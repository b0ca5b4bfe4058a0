"""Analytic moments of the walk density.

Even moments see only the |a|-dependent even density part; odd moments
are linear in (nu, alpha). Both reduce to sums over foundation values:

    <x^2>      = S[x^2 u_{t-1}^2] - S[x^2 u_t u_{t-2}] + S[u_{t-1}^2]
    <x^{2n+1}> = (4 |a| nu + 2 alpha) S_mi - 2 nu S_sq

with S[.] a lattice sum and

    S_mi = sum_j P^t_{t-2j} P^{t-1}_{t-2j-1} (t-2j)^{2n+1}
    S_sq = sum_j [P^{t-1}_{t-2j-1}]^2 (t-2j)^{2n+1}.

Per-t float paths read the three rows u_{t-2}, u_{t-1}, u_t from the
O(t log t) FFT window of ``foundation.lattice_rows``. The exact path
(the ``*_exact`` functions) runs the same sums over the same window
built in Fraction arithmetic from the integer coefficient rows at a
rational |a|; it backs the identity tests at small t.

``moment_curves`` gives <x> and <x^2> at every t <= T in O(T) per coin
from two three-term recurrences and cumulative sums, with no lattice
rows. Write z = 2|a|^2 - 1, b^2 = 1 - |a|^2, L_k = P_k(z) = u_{2k}(0)
(Legendre), J_k = P_k^{(0,1)}(z) = u_{2k+1}(1) / |a| (Jacobi),
Lam_s = sum_{k<=s} L_k, D_t = sum_{s<t} Lam_s, E_t = sum_{s<t} D_s and
C_t = sum_{s<t} sum_{k<s} J_k. Then, for n = 0,

    <x^2> = t^2 - 4 b^2 E_t,   S_sq = Lam_{t-1},
    S_mi  = |a| (D_t - C_t) = (t + Lam_{t-1} - 2 b^2 D_t) / (2 |a|).

S_sq = Lam_{t-1} is proved (evenness, Parseval, U_n^2 = sum_{k<=n} U_{2k});
the other two are verified, not proved: they hold exactly in Fraction
arithmetic for t <= 40 at five |a| (tests/test_moments.py). Below
|a| = 1/2, S_mi takes the Jacobi form, which has no division by a small
|a|; from 1/2 on the Legendre form, which avoids cancelling D_t against
C_t near |a| = 1. As Lam_s -> 1/(2b) they give the laws <x^2>/t^2 -> 1 - b
(Nayak & Vishwanath, quant-ph/0010117) and <x>/t -> (2 nu + alpha/|a|)
(1 - b) (Konno, J. Math. Soc. Japan 57 (2005) 1179).

The odd-moment coefficient signs follow the same oracle-fixed convention
as the densities; the published variant (alpha subtracted) sits behind
``paper_signs=True``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .density import DensityProfile
from .foundation import ROW_BLOCK, _row_views, lattice_rows, polynomial_table
from .params import (
    EffectiveParams,
    InfeasibleParamsError,
    ResourceLimitError,
    WalkSpec,
    derive_effective,
    validate_effective,
)

# (t, |a|) points per ``moment_curves`` call. At the limit the curves take 16 MB;
# ``moments --all-times`` writes 143 MB of CSV in ~5 s and peaks at ~0.19 GB RSS.
MAX_CURVE_POINTS = 1_000_000


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


def _even_sums(rows: np.ndarray, weight_power: int):
    """(S[x^p u_{t-1}^2], S[x^p u_t u_{t-2}]) for p = weight_power over a window."""
    u_prev, u_mid, u_t, _, _ = _row_views(rows)
    t = len(u_t) // 2
    w = np.arange(-t, t + 1).astype(rows.dtype) ** weight_power
    return np.sum(w * u_mid**2), np.sum(w * u_t * u_prev)


def _mass_defect(rows: np.ndarray):
    """S[u_{t-1}^2] - S[u_t u_{t-2}] - 1, which vanishes identically."""
    sq, cross = _even_sums(rows, 0)
    return sq - cross - 1


def _second_moment(rows: np.ndarray):
    """<x^2> = S[x^2 u_{t-1}^2] - S[x^2 u_t u_{t-2}] + S[u_{t-1}^2]."""
    sq2, cross2 = _even_sums(rows, 2)
    sq0, _ = _even_sums(rows, 0)
    return sq2 - cross2 + sq0


def _odd_moment(rows: np.ndarray, abs_a, nu, alpha, n: int = 0, paper_signs: bool = False):
    """<x^{2n+1}> = (4 |a| nu + 2 alpha) S_mi - 2 nu S_sq, or with -2 alpha under
    ``paper_signs``; in integer coefficients, so exact rows and arguments stay exact."""
    _, _, u_t, u_left, _ = _row_views(rows)
    t = len(u_t) // 2
    w = np.arange(-t, t + 1).astype(rows.dtype) ** (2 * n + 1)
    s_sq, s_mi = np.sum(w * u_left**2), np.sum(w * u_t * u_left)
    alpha_sign = -1 if paper_signs else 1
    return (4 * abs_a * nu + 2 * alpha_sign * alpha) * s_mi - 2 * nu * s_sq


def _exact_rows(abs_a: Fraction, t: int) -> np.ndarray:
    """``lattice_rows`` in exact arithmetic: an object array of u_{t-2}, u_{t-1}, u_t
    from the integer coefficient rows at a rational |a|, zero off the support."""
    table = polynomial_table(t)
    rows = np.zeros((3, 2 * t + 3), dtype=object)
    for i, s in enumerate((t - 2, t - 1, t)):
        for row in table[s] if s >= 0 else ():
            rows[i, t + 1 - row.k] = rows[i, t + 1 + row.k] = row.evaluate(abs_a)
    return rows


def _check_odd(abs_a: float, nu: float, alpha: float, t: int, n: int = 0) -> None:
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not validate_effective(nu, alpha, abs_a):
        raise InfeasibleParamsError(
            f"(nu={nu}, alpha={alpha}, abs_a={abs_a}) is not reachable"
        )


def normalization_identity(abs_a: float, t: int) -> float:
    """|S[u_{t-1}^2] - S[u_t u_{t-2}] - 1|, which vanishes identically."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return abs(float(_mass_defect(lattice_rows(abs_a, t))))


def normalization_identity_exact(abs_a: Fraction, t: int) -> Fraction:
    """The same residual in exact rational arithmetic, through the integer
    coefficient rows at a rational |a| (an exact zero when the identity holds)."""
    if t < 2:
        raise ValueError(f"t must be >= 2, got {t}")
    return Fraction(_mass_defect(_exact_rows(abs_a, t)))


def second_moment(abs_a: float, t: int) -> float:
    """<x^2> at time t; a function of |a| alone."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return float(_second_moment(lattice_rows(abs_a, t)))


def second_moment_exact(abs_a: Fraction, t: int) -> Fraction:
    """<x^2> in exact rational arithmetic (small t identity checks)."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return Fraction(_second_moment(_exact_rows(abs_a, t)))


def odd_moment(
    abs_a: float,
    nu: float,
    alpha: float,
    t: int,
    n: int = 0,
    paper_signs: bool = False,
) -> float:
    """<x^{2n+1}> at time t, linear in (nu, alpha).

    ``paper_signs`` flips the alpha term to the published sign; that
    variant contradicts step iteration (e.g. it sends the one-step
    Hadamard walk with nu = 0, alpha = 1/sqrt(2) to -1 while the walk
    plainly moves to +1) and exists only for the divergence record.
    """
    _check_odd(abs_a, nu, alpha, t, n)
    return float(_odd_moment(lattice_rows(abs_a, t), abs_a, nu, alpha, n, paper_signs))


def first_moment(
    abs_a: float, nu: float, alpha: float, t: int, paper_signs: bool = False
) -> float:
    """<x> at time t (the n = 0 odd moment)."""
    return odd_moment(abs_a, nu, alpha, t, n=0, paper_signs=paper_signs)


def first_moment_exact(
    abs_a: Fraction, nu: Fraction, alpha: Fraction, t: int, paper_signs: bool = False
) -> Fraction:
    """<x> in exact rational arithmetic via the coefficient rows."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return Fraction(_odd_moment(_exact_rows(abs_a, t), abs_a, nu, alpha, 0, paper_signs))


def _mean_and_second(abs_a: float, nu: float, alpha: float, t: int) -> tuple[float, float]:
    """(<x>, <x^2>) at time t from one set of rows, checked like ``first_moment``."""
    rows = lattice_rows(abs_a, t)
    _check_odd(abs_a, nu, alpha, t)
    return float(_odd_moment(rows, abs_a, nu, alpha)), float(_second_moment(rows))


def variance(abs_a: float, nu: float, alpha: float, t: int) -> float:
    """Var = <x^2> - <x>^2 at time t."""
    mean, second = _mean_and_second(abs_a, nu, alpha, t)
    return second - mean * mean


def normalized_second(abs_a: float, t: int) -> float:
    """<x^2> / t^2; equals 1 identically at |a| = 1 (ballistic bound)."""
    return second_moment(abs_a, t) / float(t * t)


def moment_report(effective: EffectiveParams | WalkSpec, t: int) -> MomentReport:
    """All headline moments of one walk in a single pass."""
    if isinstance(effective, WalkSpec):
        effective = derive_effective(effective)
    abs_a, nu, alpha = effective.abs_a, effective.nu, effective.alpha
    if t == 0:
        return MomentReport(t=0, abs_a=abs_a, nu=nu, alpha=alpha,
                            mean=0.0, second=0.0, variance=0.0, normalized_second=0.0)
    mean, second = _mean_and_second(abs_a, nu, alpha, t)
    return MomentReport(
        t=t, abs_a=abs_a, nu=nu, alpha=alpha,
        mean=mean, second=second,
        variance=second - mean * mean,
        normalized_second=second / float(t * t),
    )


def _legendre_jacobi(z, leg, jac) -> None:
    """Fill leg[k] = P_k(z), jac[k] = P_k^{(0,1)}(z), k < len(leg), by recurrence in
    integer coefficients: a Fraction z runs exactly, an array of z by rows."""
    one = z * 0 + 1
    leg[:2], jac[:2] = [one, z][: len(leg)], [one, (3 * z - 1) / 2][: len(leg)]
    for k in range(2, len(leg)):
        leg[k] = ((2 * k - 1) * z * leg[k - 1] - (k - 1) * leg[k - 2]) / k
        jac[k] = (((4 * k * k - 1) * z - 1) * jac[k - 1] - (k - 1) * (2 * k + 1) * jac[k - 2]) / (
            (k + 1) * (2 * k - 1))


def _cumulative_sums(leg: np.ndarray, jac: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Lam_{t-1}, D_t, E_t, C_t) for t = 1 .. n from the columns L_k, J_k, k < n."""
    lam = np.cumsum(leg, axis=0)
    d = np.cumsum(lam, axis=0)
    e, c = np.zeros_like(d), np.zeros_like(d)
    e[1:] = np.cumsum(d[:-1], axis=0)
    c[1:] = np.cumsum(np.cumsum(jac[:-1], axis=0), axis=0)
    return lam, d, e, c


def moment_curves(abs_a, nu: float, alpha: float, t_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(<x>, <x^2>) for t = 1 .. t_max, each of shape (t_max,) + shape(abs_a).

    All |a| share (nu, alpha). The module docstring's closed forms, within
    1e-12 t and 1e-12 t^2 of per-t ``moment_report``: the recurrences run
    once for all coins, the sums in chunks of ~ROW_BLOCK / 4 values. Sizes
    above ``MAX_CURVE_POINTS`` raise ``ResourceLimitError`` before allocating.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    coins = np.asarray(abs_a, dtype=float).ravel()
    bad = [a for a in coins if not validate_effective(nu, alpha, float(a))]
    if bad and t_max:
        raise InfeasibleParamsError(f"(nu={nu}, alpha={alpha}, abs_a={bad[0]}) is not reachable")
    if t_max * coins.size > MAX_CURVE_POINTS:
        raise ResourceLimitError(f"t_max = {t_max} for {coins.size} coins exceeds "
                                 f"{MAX_CURVE_POINTS} moment points")
    mean, second = np.zeros((2, t_max, coins.size))
    z = 2.0 * coins * coins - 1.0
    if coins.size == 1:  # Python floats step far faster than one-element arrays
        leg, jac = [0.0] * t_max, [0.0] * t_max
        _legendre_jacobi(float(z[0]), leg, jac)
        mean[:, 0], second[:, 0] = leg, jac
    elif t_max:
        _legendre_jacobi(z, mean, second)
    t = np.arange(1, t_max + 1, dtype=float)[:, None]
    chunk = max(1, ROW_BLOCK // max(4 * t_max, 1))
    for lo in range(0, coins.size, chunk):
        cols, a = slice(lo, lo + chunk), coins[lo : lo + chunk]
        lam, d, e, c = _cumulative_sums(mean[:, cols], second[:, cols])
        b2 = (1.0 - a) * (1.0 + a)
        small = a < 0.5
        k = np.where(small, 2.0 * a * (d - c), (t + lam - 2.0 * b2 * d) / np.where(small, 1.0, a))
        mean[:, cols] = 2.0 * nu * (t - 2.0 * b2 * d) + alpha * k
        second[:, cols] = t * t - 4.0 * b2 * e
    shape = (t_max,) + np.shape(abs_a)
    return mean.reshape(shape), second.reshape(shape)
