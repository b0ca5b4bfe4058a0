"""Analytic moments of the walk density.

Even moments see only the |a|-dependent even density part; odd moments
are linear in (nu, alpha). Both reduce to sums over foundation values:

    <x^2>      = S[x^2 u_{t-1}^2] - S[x^2 u_t u_{t-2}] + S[u_{t-1}^2]
    <x^{2n+1}> = (4 |a| nu + 2 alpha) S_mi - 2 nu S_sq

with S[.] a lattice sum and

    S_mi = sum_j P^t_{t-2j} P^{t-1}_{t-2j-1} (t-2j)^{2n+1}
    S_sq = sum_j [P^{t-1}_{t-2j-1}]^2 (t-2j)^{2n+1}.

Per-t float paths read the three rows u_{t-2}, u_{t-1}, u_t from
``foundation.rows_for``: the O(t log t) FFT window unless a prebuilt
table or window is passed. ``moment_curves`` is the all-times route:
block sums over the recursion rows, for many |a| at once. An exact path
(Fraction arithmetic over integer coefficient rows) backs the identity
tests at small t. The
odd-moment coefficient signs follow the same oracle-fixed convention as
the densities; the published variant (alpha subtracted) sits behind
``paper_signs=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import DensityProfile
from .foundation import FoundationTable, polynomial_table, row_blocks, rows_for
from .params import (
    EffectiveParams,
    InfeasibleParamsError,
    WalkSpec,
    derive_effective,
    validate_effective,
)


@dataclass(frozen=True)
class MomentReport:
    """Headline moments of one walk at one time."""

    t: int
    abs_a: float
    nu: float
    alpha: float
    mean: float
    second: float
    variance: float
    normalized_second: float


def moment_from_density(profile: DensityProfile, n: int) -> float:
    """Sum x^n rho(x) directly; the oracle for every closed form below."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x = profile.positions.astype(float)
    return float(np.sum(x**n * profile.rho))


def _sum_rows(table: FoundationTable, t: int, weight_power: int):
    """(S[x^p u_{t-1}^2], S[x^p u_t u_{t-2}]) for p = weight_power."""
    x = np.arange(-t, t + 1)
    w = x.astype(float) ** weight_power if weight_power else np.ones_like(x, dtype=float)
    u_mid = table.row_on(t - 1, x)
    sq = float(np.sum(w * u_mid**2))
    cross = float(np.sum(w * table.row_on(t, x) * table.row_on(t - 2, x)))
    return sq, cross


def normalization_identity(
    abs_a: float, t: int, table: FoundationTable | None = None
) -> float:
    """|S[u_{t-1}^2] - S[u_t u_{t-2}] - 1|, which vanishes identically."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    sq, cross = _sum_rows(rows_for(abs_a, t, table), t, weight_power=0)
    return abs(sq - cross - 1.0)


def normalization_identity_exact(abs_a: Fraction, t: int) -> Fraction:
    """The same residual in exact rational arithmetic.

    Expands both lattice sums through the integer coefficient rows, i.e.
    sum_j [P^{t-1}_{t-2j-1}]^2 - sum_j P^t_{t-2j-2} P^{t-2}_{t-2j-2} - 1,
    evaluated at a rational |a|. Returns an exact Fraction (zero when the
    identity holds).
    """
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    rows = polynomial_table(t)
    mid = {r.k: r for r in rows[t - 1]}
    top = {r.k: r for r in rows[t]}
    low = {r.k: r for r in rows[t - 2]}
    sq = Fraction(0)
    for j in range(t):
        k = abs(t - 2 * j - 1)
        sq += mid[k].evaluate(abs_a) ** 2
    cross = Fraction(0)
    for j in range(t - 1):
        k = abs(t - 2 * j - 2)
        cross += top[k].evaluate(abs_a) * low[k].evaluate(abs_a)
    return sq - cross - 1


def second_moment(abs_a: float, t: int, table: FoundationTable | None = None) -> float:
    """<x^2> at time t; a function of |a| alone."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    table = rows_for(abs_a, t, table)
    sq2, cross2 = _sum_rows(table, t, weight_power=2)
    sq0, _ = _sum_rows(table, t, weight_power=0)
    return sq2 - cross2 + sq0


def second_moment_exact(abs_a: Fraction, t: int) -> Fraction:
    """<x^2> in exact rational arithmetic (small t identity checks).

    The u_{t-1}^2 sums live on the parity sublattice of t-1, the
    u_t u_{t-2} cross sum on that of t; the loops respect this.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rows = polynomial_table(t)
    mid = {r.k: r for r in rows[t - 1]}
    top = {r.k: r for r in rows[t]}
    low = {r.k: r for r in rows[t - 2]} if t >= 2 else {}
    total = Fraction(0)
    for x in range(-(t - 1), t):
        if (x - (t - 1)) % 2 != 0:
            continue
        v = mid[abs(x)].evaluate(abs_a)
        total += (Fraction(x * x) + 1) * v * v
    for x in range(-(t - 2), t - 1):
        if (x - t) % 2 != 0:
            continue
        total -= Fraction(x * x) * top[abs(x)].evaluate(abs_a) * low[abs(x)].evaluate(abs_a)
    return total


def _odd_sums(table: FoundationTable, t: int, n: int):
    """(S_sq, S_mi) evaluated on the float lattice rows."""
    x = np.arange(-t, t + 1)
    w = x.astype(float) ** (2 * n + 1)
    u_top = table.row_on(t, x)
    u_left = table.row_on(t - 1, x, shift=-1)
    return float(np.sum(w * u_left**2)), float(np.sum(w * u_top * u_left))


def odd_moment(
    abs_a: float,
    nu: float,
    alpha: float,
    t: int,
    n: int = 0,
    paper_signs: bool = False,
    table: FoundationTable | None = None,
) -> float:
    """<x^{2n+1}> at time t, linear in (nu, alpha).

    ``paper_signs`` flips the alpha term to the published sign; that
    variant contradicts step iteration (e.g. it sends the one-step
    Hadamard walk with nu = 0, alpha = 1/sqrt(2) to -1 while the walk
    plainly moves to +1) and exists only for the divergence record.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not validate_effective(nu, alpha, abs_a):
        raise InfeasibleParamsError(
            f"(nu={nu}, alpha={alpha}, abs_a={abs_a}) is not reachable"
        )
    s_sq, s_mi = _odd_sums(rows_for(abs_a, t, table), t, n)
    alpha_sign = -1.0 if paper_signs else 1.0
    return (4.0 * abs_a * nu + 2.0 * alpha_sign * alpha) * s_mi - 2.0 * nu * s_sq


def first_moment(
    abs_a: float,
    nu: float,
    alpha: float,
    t: int,
    paper_signs: bool = False,
    table: FoundationTable | None = None,
) -> float:
    """<x> at time t (the n = 0 odd moment)."""
    return odd_moment(abs_a, nu, alpha, t, n=0, paper_signs=paper_signs, table=table)


def first_moment_exact(
    abs_a: Fraction, nu: Fraction, alpha: Fraction, t: int, paper_signs: bool = False
) -> Fraction:
    """<x> in exact rational arithmetic via the coefficient rows."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    rows = polynomial_table(t)
    mid = {r.k: r for r in rows[t - 1]}
    top = {r.k: r for r in rows[t]}
    s_sq = Fraction(0)
    s_mi = Fraction(0)
    for j in range(t):
        x = t - 2 * j
        k = abs(x - 1)
        if k > t - 1:
            continue
        mid_val = mid[k].evaluate(abs_a)
        s_sq += x * mid_val**2
        s_mi += x * top[abs(x)].evaluate(abs_a) * mid_val
    alpha_sign = -1 if paper_signs else 1
    return (4 * abs_a * nu + 2 * alpha_sign * alpha) * s_mi - 2 * nu * s_sq


def variance(
    abs_a: float,
    nu: float,
    alpha: float,
    t: int,
    table: FoundationTable | None = None,
) -> float:
    """Var = <x^2> - <x>^2 at time t."""
    table = rows_for(abs_a, t, table)
    mean = first_moment(abs_a, nu, alpha, t, table=table)
    return second_moment(abs_a, t, table=table) - mean * mean


def normalized_second(abs_a: float, t: int, table: FoundationTable | None = None) -> float:
    """<x^2> / t^2; equals 1 identically at |a| = 1 (ballistic bound)."""
    return second_moment(abs_a, t, table=table) / float(t * t)


def moment_report(
    effective: EffectiveParams | WalkSpec, t: int, table: FoundationTable | None = None
) -> MomentReport:
    """All headline moments of one walk in a single pass."""
    if isinstance(effective, WalkSpec):
        effective = derive_effective(effective)
    abs_a, nu, alpha = effective.abs_a, effective.nu, effective.alpha
    if t == 0:
        return MomentReport(t=0, abs_a=abs_a, nu=nu, alpha=alpha,
                            mean=0.0, second=0.0, variance=0.0, normalized_second=0.0)
    table = rows_for(abs_a, t, table)
    mean = first_moment(abs_a, nu, alpha, t, table=table)
    second = second_moment(abs_a, t, table=table)
    return MomentReport(
        t=t, abs_a=abs_a, nu=nu, alpha=alpha,
        mean=mean, second=second,
        variance=second - mean * mean,
        normalized_second=second / float(t * t),
    )


def moment_curves(abs_a, nu: float, alpha: float, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(<x>, <x^2>) for t = 1 .. t_max, each of shape (t_max,) + shape(abs_a).

    All |a| share (nu, alpha) and advance in one recursion; each block of
    ``row_blocks`` gives every moment it covers by matrix-vector products.
    The sums run in another order than in ``moment_report``, its oracle.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    coins = np.asarray(abs_a, dtype=float).ravel()
    bad = [a for a in coins if not validate_effective(nu, alpha, float(a))]
    if bad and t_max:
        raise InfeasibleParamsError(f"(nu={nu}, alpha={alpha}, abs_a={bad[0]}) is not reachable")
    mean, second = np.zeros((2, t_max, coins.size))
    x = np.arange(-(t_max + 1), t_max + 2, dtype=float)
    x2 = x * x
    for cols, first, v in row_blocks(coins, t_max):
        mid, left, times = v[1:-1], v[1:-1, :, :-1], slice(first - 1, first + len(v) - 3)
        second[times, cols] = (mid * mid) @ (x2 + 1.0) - (v[2:] * v[:-2]) @ x2
        s_mi, s_sq = (v[2:, :, 1:] * left) @ x[1:], (left * left) @ x[1:]
        mean[times, cols] = (4.0 * coins[cols] * nu + 2.0 * alpha) * s_mi - 2.0 * nu * s_sq
    shape = (t_max,) + np.shape(abs_a)
    return mean.reshape(shape), second.reshape(shape)


def second_moment_profile_check(profile: DensityProfile) -> float:
    """|closed-form <x^2> - sum of x^2 rho| for one profile (diagnostic)."""
    closed = second_moment(profile.abs_a, profile.t)
    return abs(closed - moment_from_density(profile, 2))
