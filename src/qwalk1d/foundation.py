"""Chebyshev polynomials of the second kind and the lattice functions they induce.

The closed-form walk is assembled from the real even lattice functions

    u_t(|a| : x) = (1/2 pi) Integral U_t(|a| cos p) e^{i x p} dp,

the Fourier coefficients of U_t(|a| cos p). They satisfy the coupled
recursion u_{t+1}(x) = |a| u_t(x+1) + |a| u_t(x-1) - u_{t-1}(x) with
u_{-1} = 0 and u_0 = delta_{x,0}, vanish off the parity sublattice
(|x| <= t, x == t mod 2), and on that sublattice are polynomials in |a|
with integer coefficients.

Every closed form needs at most the three rows u_{t-2}, u_{t-1}, u_t at
one time t. ``lattice_rows`` computes them in O(t log t) time and O(t)
memory by one real FFT, as one read-only (3, 2t + 3) array that every
formula reads through ``_row_views``. ``lattice_row_batch`` gives the
same rows for many |a| at one t from one FFT over an |a| column, for
the fit's grid of coins. Three independent routes check the
kernel: the full O(t^2) table recursion (float), the explicit integer
power series, and direct quadrature.

Next to the origin, u_{2k}(0) = P_k(z) (Legendre) and u_{2k+1}(1) =
|a| P_k^{(0,1)}(z) (Jacobi), z = 2|a|^2 - 1; ``moments`` sums these for
all-times moments, so no caller needs the rows of every time.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .params import ResourceLimitError

# Exact coefficient rows above this t are refused; the float rows stay
# available at any t. Protects against accidental huge exact requests,
# not against overflow (Python integers are unbounded).
MAX_EXACT_T = 10_000

# Values per array when many |a| are processed in chunks (the fit's inner
# fits, the moment curves): it keeps the working set of a chunk near 128 kB.
ROW_BLOCK = 1 << 14


def chebyshev_u(n: int, y):
    """Chebyshev polynomial of the second kind, U_n(y).

    Evaluated by the forward three-term recursion
    U_{n+1} = 2 y U_n - U_{n-1} with U_{-1} = 0, U_0 = 1, which stays
    accurate for |y| near 1 where the trigonometric form loses digits.
    Accepts scalar or array ``y``; n >= -1.
    """
    if n < -1:
        raise ValueError(f"n must be >= -1, got {n}")
    arr = np.asarray(y, dtype=float)
    prev = np.zeros_like(arr)
    cur = np.ones_like(arr)
    if n == -1:
        cur = prev
    else:
        for _ in range(n):
            prev, cur = cur, 2.0 * arr * cur - prev
    if np.isscalar(y) or getattr(y, "ndim", 0) == 0:
        return float(cur)
    return cur


def _check_abs_a(abs_a: float) -> None:
    if not 0.0 <= abs_a <= 1.0:
        raise ValueError(f"abs_a must lie in [0, 1], got {abs_a}")


@dataclass(frozen=True)
class FoundationTable:
    """All rows u_s(|a| : x) for s = -1 .. t_max on a padded window.

    ``values[s + 1]`` holds row s over x in [-half, half] with
    half = t_max + pad; the padding keeps shifted lookups like
    u_{t-1}(x +- 1) in range for every reachable x. Rows are immutable
    once built.
    """

    t_max: int
    values: np.ndarray

    @property
    def half(self) -> int:
        return (self.values.shape[1] - 1) // 2

    def row(self, s: int) -> np.ndarray:
        """Full padded row for time s (s = -1 allowed; identically zero)."""
        if s < -1 or s > self.t_max:
            raise ValueError(f"row {s} not in table (t_max = {self.t_max})")
        return self.values[s + 1]

    def window(self, t: int) -> np.ndarray:
        """Rows u_{t-2}, u_{t-1}, u_t on [-(t+1), t+1], shape (3, 2t + 3)."""
        h = self.half
        return np.stack([self.row(s)[h - t - 1 : h + t + 2] for s in (t - 2, t - 1, t)])


def _recursion_step(out: np.ndarray, mid: np.ndarray, other: np.ndarray, abs_a) -> None:
    """out += |a| mid(x+1) + |a| mid(x-1) - other, in the table's operation order.

    x is the last axis; an |a| column of shape (n, 1) advances n rows at once.
    """
    out[..., :-1] += abs_a * mid[..., 1:]
    out[..., 1:] += abs_a * mid[..., :-1]
    out -= other


def _fourier_rows(abs_a, t: int) -> np.ndarray:
    """u_t and u_{t-1} on [-(t+1), t+1] by one batched real FFT, 0 < |a| < 1.

    Samples U_n(y) = sin((n+1) phi) / sin(phi), y = cos(phi) = |a| cos p,
    on p in [0, pi/2] and extends to the period by U_n(-y) = (-1)^n U_n(y)
    and evenness. phi comes from 1 -+ y = (1 - |a|) + 2|a| sin^2 or
    cos^2(p/2), sums of positive terms, so it stays accurate where sin(phi)
    is tiny (|a| near 1). The 4m >= 2t + 4 point grid makes the trapezoid
    rule exact; m has four significant bits, so the FFT length factors
    into small primes. A scalar |a| gives shape (2, 2t + 3); a column of
    n coins gives (n, 2, 2t + 3), each coin bit-identical to its scalar call.
    """
    need = (t + 3) // 2
    shift = max(need.bit_length() - 4, 0)
    m = -(-need >> shift) << shift
    q = (0.5 * np.pi / m) * np.arange(m + 1)
    lo = np.sqrt((1.0 - abs_a) + 2.0 * abs_a * np.sin(0.5 * q) ** 2)
    hi = np.sqrt((1.0 - abs_a) + 2.0 * abs_a * np.cos(0.5 * q) ** 2)
    angle = 2.0 * np.arctan2(lo, hi)[..., None, :]
    vals = np.sin(np.array([[t + 1.0], [float(t)]]) * angle) / (lo * hi)[..., None, :]
    sign = np.array([[(-1.0) ** t], [(-1.0) ** (t - 1)]])
    half_period = np.concatenate([vals, sign * vals[..., m - 1::-1]], axis=-1)
    period = np.concatenate([half_period, half_period[..., -2:0:-1]], axis=-1)
    coef = np.fft.rfft(period, axis=-1).real[..., : t + 2] / (4 * m)
    return np.concatenate([coef[..., :0:-1], coef], axis=-1)


def lattice_row_batch(abs_a, t: int) -> np.ndarray:
    """``lattice_rows`` for every |a| of an array: shape (3, n, 2t + 3).

    ``values[i, j]`` is u_{t-2+i} on [-(t+1), t+1] at |a| = ``ravel(abs_a)[j]``,
    bit-identical to ``lattice_rows(abs_a[j], t)``: one FFT for the interior
    coins, the exact integer rows for |a| in {0, 1}, and one recursion step
    with the |a| column for u_{t-2}.
    """
    coins = np.asarray(abs_a, dtype=float).reshape(-1, 1)
    listed = coins[:, 0].tolist()
    for value in listed:
        _check_abs_a(value)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if 0.0 in listed or 1.0 in listed:
        sym = np.zeros((len(coins), 2, 2 * t + 3))
        sym[coins[:, 0] == 1.0] = 1.0
        sym[coins[:, 0] == 0.0, :, t + 1] = [(1, 0, -1, 0)[t % 4], (1, 0, -1, 0)[(t - 1) % 4]]
        inner = (0.0 < coins[:, 0]) & (coins[:, 0] < 1.0)
        if inner.any():
            sym[inner] = _fourier_rows(coins[inner], t)
    else:  # one coin passes as a float: cheaper than a (1, 1) column, same bits
        sym = _fourier_rows(coins if len(listed) > 1 else listed[0], t).reshape(len(coins), 2, -1)
    values = np.zeros((3, len(coins), 2 * t + 3))
    values[2, :, 1::2] = sym[:, 0, 1::2]
    values[1, :, 2:-2:2] = sym[:, 1, 2:-2:2]
    _recursion_step(values[0], values[1], values[2], coins)
    return values


def lattice_rows(abs_a: float, t: int) -> np.ndarray:
    """u_{t-2}, u_{t-1}, u_t on [-(t+1), t+1] in O(t log t) time, O(t) memory.

    Read-only, shape (3, 2t + 3): row i is u_{t-2+i}, column j is x = j - t - 1.

    u_t and u_{t-1} come from ``_fourier_rows`` (a few 1e-14 absolute at
    t = 4000), zeroed off their support; u_{t-2} from one recursion step,
    so identities resting on the recursion hold site by site. The
    endpoint coins get their exact integer rows (u_s = 1 on the support at
    |a| = 1, cos(s pi/2) delta_{x,0} at |a| = 0): results there, such as
    the ballistic variance 0 or the fit's blindness at |a| = 0, rest on
    exact cancellation. The one-coin case of ``lattice_row_batch``.
    """
    values = lattice_row_batch(abs_a, t)[:, 0]
    values.flags.writeable = False
    return values


def _row_views(rows: np.ndarray) -> tuple[np.ndarray, ...]:
    """(u_{t-2}, u_{t-1}, u_t, u_{t-1}(x - 1), u_{t-1}(x + 1)) on [-t, t], as views of
    rows laid out as ``lattice_rows`` returns them; middle axes (one per |a|) carry through."""
    return (rows[0, ..., 1:-1], rows[1, ..., 1:-1], rows[2, ..., 1:-1],
            rows[1, ..., :-2], rows[1, ..., 2:])


def foundation_table(abs_a: float, t_max: int, pad: int = 1) -> FoundationTable:
    """Build u_s for all s <= t_max by the lattice recursion, O(t_max^2).

    Seeds u_{-1} = 0 and u_0 = delta_{x,0}, then applies
    u_{s}(x) = |a| u_{s-1}(x+1) + |a| u_{s-1}(x-1) - u_{s-2}(x).
    The independent float reference for ``lattice_rows``.
    """
    _check_abs_a(abs_a)
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if pad < 1:
        raise ValueError("pad must be >= 1 so shifted lookups stay in range")
    half = t_max + pad
    width = 2 * half + 1
    values = np.zeros((t_max + 2, width))
    values[1, half] = 1.0
    for s in range(1, t_max + 1):
        _recursion_step(values[s + 1], values[s], values[s - 1], abs_a)
    values.flags.writeable = False
    return FoundationTable(t_max=t_max, values=values)


@dataclass(frozen=True)
class PolynomialRow:
    """u_t at lattice site k, as an exact polynomial in |a|.

    ``coeffs[m]`` is the integer coefficient of |a|^(t - 2m); trailing
    zero coefficients are trimmed, so the constant term is present only
    when the series reaches it (k = 0 or |k| = 1).
    """

    t: int
    k: int
    coeffs: tuple[int, ...]

    @property
    def powers(self) -> tuple[int, ...]:
        return tuple(self.t - 2 * m for m in range(len(self.coeffs)))

    def evaluate(self, abs_a):
        """Value at ``abs_a``; exact for Fraction/int input.

        Float input is promoted to the exact dyadic rational it denotes,
        folded through the same Horner scheme, and rounded once at the
        end. The alternating integer coefficients grow fast enough that
        naive float Horner loses ~1e-12 absolute by t ~ 20.
        """
        as_float = isinstance(abs_a, float)
        y = Fraction(abs_a) if as_float else abs_a
        y2 = y * y
        acc = self.coeffs[0]
        for c in self.coeffs[1:]:
            acc = acc * y2 + c
        low = self.t - 2 * (len(self.coeffs) - 1)
        out = acc * y**low
        return float(out) if as_float else out


def _check_site(t: int, k: int) -> None:
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    if abs(k) > t or (k - t) % 2 != 0:
        raise ValueError(
            f"site k = {k} is off the support of row t = {t} "
            f"(need |k| <= t and k == t mod 2)"
        )


def foundation_polynomial(t: int, k: int) -> PolynomialRow:
    """Exact coefficient row by the closed power series.

    P^t_{t-2j} = sum_m (-1)^m C(t-m, m) C(t-2m, j-m) |a|^{t-2m},
    where j = (t - |k|)/2 and the sum runs while both binomials are
    nonzero (m <= min(j, t-j)).
    """
    _check_site(t, k)
    if t > MAX_EXACT_T:
        raise ResourceLimitError(
            f"exact coefficients refused for t = {t} > {MAX_EXACT_T}; "
            f"use lattice_rows for large t"
        )
    j = (t - abs(k)) // 2
    coeffs = tuple(
        (-1) ** m * math.comb(t - m, m) * math.comb(t - 2 * m, j - m)
        for m in range(min(j, t - j) + 1)
    )
    return PolynomialRow(t=t, k=abs(k), coeffs=coeffs)


def _dense_coeffs(rows: dict[int, PolynomialRow], t: int, k: int, width: int) -> list[int]:
    """Coefficient list of P^t_k padded to ``width``, zero row off-support."""
    k = abs(k)
    if k > t or (k - t) % 2 != 0:
        return [0] * width
    row = rows[k].coeffs
    return list(row) + [0] * (width - len(row))


def polynomial_row_recursion(
    rows_t: Sequence[PolynomialRow], rows_prev: Sequence[PolynomialRow]
) -> tuple[PolynomialRow, ...]:
    """All rows at time t+1 from the complete rows at times t and t-1.

    Works directly on integer coefficient vectors:
    P^{t+1}_k = |a| P^t_{k+1} + |a| P^t_{k-1} - P^{t-1}_k, where the
    multiplication by |a| raises every power by one (same m slot) and the
    subtracted row lands two powers lower (slot m+1).
    """
    if not rows_t:
        raise ValueError("rows_t must contain at least the t = 0 row")
    t = rows_t[0].t
    if any(r.t != t for r in rows_t) or any(r.t != t - 1 for r in rows_prev):
        raise ValueError("rows_t and rows_prev must be complete adjacent rows")
    at = {r.k: r for r in rows_t}
    prev = {r.k: r for r in rows_prev}
    out = []
    width = (t + 1) // 2 + 1
    for k in range(t + 1, -1, -2):
        acc = [0] * width
        left = _dense_coeffs(at, t, k - 1, width)
        right = _dense_coeffs(at, t, k + 1, width)
        below = _dense_coeffs(prev, t - 1, k, width)
        for m in range(width):
            acc[m] += left[m] + right[m]
        for m in range(width - 1):
            acc[m + 1] -= below[m]
        j = (t + 1 - k) // 2
        trim = min(j, t + 1 - j) + 1
        if any(c != 0 for c in acc[trim:]):
            raise AssertionError("recursion produced coefficients beyond the series range")
        out.append(PolynomialRow(t=t + 1, k=k, coeffs=tuple(acc[:trim])))
    return tuple(out)


def polynomial_table(t_max: int) -> tuple[tuple[PolynomialRow, ...], ...]:
    """Rows for every t <= t_max built purely by the recursion.

    tables[t] lists sites k = t, t-2, ..., down to 0 or 1. Independent of
    foundation_polynomial; the two constructions are cross-checked in the
    test suite.
    """
    if t_max < 0:
        raise ValueError(f"t_max must be >= 0, got {t_max}")
    if t_max > MAX_EXACT_T:
        raise ResourceLimitError(
            f"exact table refused for t_max = {t_max} > {MAX_EXACT_T}; "
            f"use lattice_rows for large t"
        )
    tables = [(PolynomialRow(t=0, k=0, coeffs=(1,)),)]
    if t_max >= 1:
        tables.append((PolynomialRow(t=1, k=1, coeffs=(1,)),))
    for t in range(1, t_max):
        tables.append(polynomial_row_recursion(tables[t], tables[t - 1]))
    return tuple(tables[: t_max + 1])


def u_by_quadrature(abs_a: float, t: int, x: int, n_points: int | None = None) -> float:
    """u_t(|a| : x) by trapezoid quadrature on a uniform periodic grid.

    On the full period the trapezoid rule is the plain grid mean, and it
    integrates trigonometric polynomials exactly as long as the grid has
    more points than the integrand's degree t + |x|. The default
    n_points = 4t + 4 leaves ample margin. An independent check on the
    recursion and the power series.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    _check_abs_a(abs_a)
    if n_points is None:
        n_points = 4 * t + 4
    if n_points < 1:
        raise ValueError("n_points must be positive")
    if n_points <= t + abs(x):
        warnings.warn(
            f"n_points = {n_points} <= t + |x| = {t + abs(x)}: quadrature is "
            f"no longer exact for this frequency",
            RuntimeWarning,
            stacklevel=2,
        )
    p = 2.0 * np.pi * np.arange(n_points) / n_points
    # The imaginary part integrates to zero by evenness; use the cosine
    # kernel directly so roundoff cannot leak into it.
    return float(np.mean(chebyshev_u(t, abs_a * np.cos(p)) * np.cos(x * p)))
