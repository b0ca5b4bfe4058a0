"""Recovering (|a|, nu, alpha) from a measured position histogram.

For fixed |a| the model density is affine in the two symmetry
parameters,

    rho(x) = rho_even(x) + nu B_nu(x) + alpha B_alpha(x),
    B_nu = 2 |a| rho_mi - rho_sq,   B_alpha = rho_mi,

so the inner problem is weighted linear least squares in two unknowns.
Its normal equations are five row-wise sums over the residual
r = p - rho_even and the two bases, solved in closed form for many |a|
at once, in chunks of coins that share one batch of lattice rows. A
rank-deficient or unreachable solution is refit on the boundary of the
reachable ellipse 4 nu^2 + alpha^2 / (1 - |a|^2) <= 1, where the residual
is a quadratic form in (cos theta, sin theta) of the same five sums: a
vectorized scan, then golden section on scalars. The outer search over
|a| is bracketed by <x^2>, which depends on |a| alone: the inner fit runs
only on a grid near the |a| that matches the histogram's <x^2>, and
Brent's method refines the winner (see ``fit_walk``). The observation
time t is an input, not a fit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityProfile, density_shapes
from .foundation import ROW_BLOCK, lattice_row_batch
from .params import UnderdeterminedError, max_alpha, validate_effective

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BRACKET_TOL = 1e-6
MOMENT_SIGMAS = 6.0  # half-width of the bracket, in units of sigma_m
# Bases with det <= COLLINEAR_EPS g_nn g_aa are collinear to rounding (det errs by ~eps g_nn g_aa)
COLLINEAR_EPS = 8.0 * np.finfo(float).eps


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Observed counts (or probabilities) per site x in [-t, t]."""

    t: int
    counts: np.ndarray

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t must be >= 0, got {self.t}")
        if len(self.counts) != 2 * self.t + 1:
            raise ValueError(
                f"counts must cover [-t, t]: expected {2 * self.t + 1} entries, "
                f"got {len(self.counts)}"
            )
        if not np.all(np.isfinite(self.counts)):
            raise ValueError("counts must be finite")
        if np.any(np.asarray(self.counts) < 0):
            raise ValueError("counts must be non-negative")
        if float(np.sum(self.counts)) <= 0.0:
            raise ValueError("histogram has no mass")

    @classmethod
    def from_pairs(cls, t: int, pairs) -> "EmpiricalHistogram":
        """Build from (x, count) pairs; missing sites count zero."""
        counts = np.zeros(2 * t + 1)
        for x, c in pairs:
            xi = int(x)
            if abs(xi) > t:
                raise ValueError(f"site x = {xi} outside [-t, t] for t = {t}")
            counts[xi + t] += float(c)
        return cls(t=t, counts=counts)

    @classmethod
    def from_profile(cls, profile: DensityProfile) -> "EmpiricalHistogram":
        return cls(t=profile.t, counts=profile.rho.copy())

    @classmethod
    def multinomial(
        cls, profile: DensityProfile, draws: int, seed: int | None = None
    ) -> "EmpiricalHistogram":
        """Resample a model density into synthetic finite-statistics counts."""
        rng = np.random.default_rng(seed)
        p = np.clip(profile.rho, 0.0, None)
        return cls(t=profile.t, counts=rng.multinomial(draws, p / p.sum()).astype(float))

    def probabilities(self) -> np.ndarray:
        return self.counts / float(np.sum(self.counts))


@dataclass(frozen=True)
class FitResult:
    """Outcome of the full three-parameter fit."""

    abs_a_hat: float
    nu_hat: float
    alpha_hat: float
    residual: float
    feasible: bool


def _boundary_objective(sums, semi: float, c, s):
    """The weighted residual less sum(w r^2) at nu = c/2, alpha = semi s.

    On the boundary, c = cos(theta) and s = sin(theta), the residual is a
    quadratic form in (c, s) fixed by ``sums`` = (g_nn, g_na, g_aa, h_n,
    h_a): the Gram entries sum(w b b') and projections sum(w b r) of the
    bases b_nu, b_al. Takes floats or arrays.
    """
    g_nn, g_na, g_aa, h_n, h_a = sums
    return c * (0.25 * g_nn * c + semi * g_na * s - h_n) + semi * s * (semi * g_aa * s - 2 * h_a)


def _boundary_refit(sums: list[float], abs_a: float) -> tuple[float, float]:
    """Minimize the weighted residual on the feasibility boundary.

    Parametrizes nu = cos(theta)/2, alpha = semi * sin(theta) with
    semi = sqrt(1 - |a|^2); scans theta, then tightens by golden section.
    When semi = 0 the ellipse collapses to the alpha = 0 segment and the
    problem is a clamped one-dimensional fit.
    """
    semi = math.sqrt(max(0.0, 1.0 - abs_a * abs_a))
    if semi == 0.0:
        g_nn, h_n = sums[0], sums[3]
        return (0.0, 0.0) if g_nn == 0.0 else (max(-0.5, min(0.5, h_n / g_nn)), 0.0)
    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    i = int(np.argmin(_boundary_objective(sums, semi, np.cos(grid), np.sin(grid))))
    lo, hi = _golden_section(lambda th: _boundary_objective(sums, semi, math.cos(th), math.sin(th)),
                             grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], 1e-10)
    theta = 0.5 * (lo + hi)
    nu, alpha = 0.5 * math.cos(theta), semi * math.sin(theta)
    return nu, math.copysign(min(abs(alpha), max_alpha(abs_a, nu)), alpha)


def _golden_section(fn, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Shrink [lo, hi] around the minimum of a unimodal fn."""
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = fn(x2)
    return lo, hi


def _second_moments(abs_a, t: int) -> np.ndarray:
    """m(|a|) = sum x^2 rho_even, the <x^2> of every walk with that |a|, per |a|."""
    x = np.arange(-t, t + 1.0)
    return density_shapes(lattice_row_batch(abs_a, t))[0] @ (x * x)


def _law(m: float, t: int) -> float:
    """|a| - 1 for <x^2> = m under the large-t law m = (1 - sqrt(1 - |a|^2)) t^2.

    Written to keep its relative precision as |a| -> 1.
    """
    s = min(max(m / (t * t), 0.0), 1.0)
    return -(1.0 - s) ** 2 / (1.0 + math.sqrt(s * (2.0 - s)))


def _brent(fn, lo: float, x: float, hi: float, fx: float, tol: float) -> tuple[float, float]:
    """(x, fn(x)) at the minimum of fn on [lo, hi], starting from x, fx = fn(x).

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 5): parabolic steps guarded by golden-section ones, until the
    minimum is bracketed within tol / 2 of x.
    """
    tol1, tol2, v, w, fv, fw, d, e = 0.25 * tol, 0.5 * tol, x, x, fx, fx, 0.0, 0.0
    while max(x - lo, hi - x) > tol2:
        r, q = (x - w) * (fx - fv), (x - v) * (fx - fw)
        p, q = (x - v) * q - (x - w) * r, 2.0 * (q - r)
        p, q, toward = (-p if q > 0.0 else p), abs(q), (hi if x < 0.5 * (lo + hi) else lo) - x
        if abs(e) > tol1 and abs(p) < abs(0.5 * q * e) and q * (lo - x) < p < q * (hi - x):
            e, d = d, p / q
            if min(x + d - lo, hi - x - d) < tol2:
                d = math.copysign(tol1, toward)
        else:
            e, d = toward, (1.0 - GOLDEN) * toward
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = fn(u)
        if fu <= fx:
            lo, hi = (lo, x) if u < x else (x, hi)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            lo, hi = (u, hi) if u < x else (lo, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v in (x, w):
                v, fv = u, fu
    return x, fx


def _invert(fn, target: float, lo: float, f_lo: float, hi: float, f_hi: float, tol: float) -> float:
    """Where an increasing fn meets target on [lo, hi], to ~tol; an end if beyond.

    Illinois regula falsi: an end kept twice has its distance from target
    halved, and no step lands within tol / 2 of an end.
    """
    if target <= f_lo or target >= f_hi:
        return lo if target <= f_lo else hi
    g_lo, g_hi, side = f_lo - target, f_hi - target, 0
    while hi - lo > tol:
        a = min(max((lo * g_hi - hi * g_lo) / (g_hi - g_lo), lo + 0.5 * tol), hi - 0.5 * tol)
        g = fn(a) - target
        if g == 0.0:
            return a
        if g < 0.0:
            lo, g_lo, g_hi, side = a, g, g_hi * (0.5 if side < 0 else 1.0), -1
        else:
            hi, g_hi, g_lo, side = a, g, g_lo * (0.5 if side > 0 else 1.0), 1
    return 0.5 * (lo + hi)


def _weights(hist: EmpiricalHistogram, weighting: str) -> np.ndarray:
    if weighting not in ("none", "poisson"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if weighting == "poisson":
        return 1.0 / np.maximum(hist.counts, 1.0)
    return np.ones(len(hist.counts))


def _inner_fits(
    p: np.ndarray, w: np.ndarray, abs_a: np.ndarray, t: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(nu, alpha, residual, informative) for each |a| of a 1-D array.

    ``informative`` counts the sites that respond to (nu, alpha); where it
    is below 2 the coin gets (0, 0) and the even-only residual. The |a|
    axis runs in chunks of ~ROW_BLOCK sites per array, each one batch of
    rows, five row-wise sums and a closed-form 2x2 solve.
    """
    out = np.empty((4, len(abs_a)))
    chunk = max(1, ROW_BLOCK // (2 * t + 3))
    rcond = np.finfo(float).eps * (2 * t + 1)  # np.linalg.lstsq's default
    for lo in range(0, len(abs_a), chunk):
        coins = abs_a[lo : lo + chunk]
        rho_even, rho_sq, b_al = density_shapes(lattice_row_batch(coins, t))
        r = p - rho_even
        b_nu = 2.0 * coins[:, None] * b_al - rho_sq
        pairs = ((b_nu, b_nu), (b_nu, b_al), (b_al, b_al), (b_nu, r), (b_al, r))
        sums = np.array([np.sum(w * u * v, axis=-1) for u, v in pairs])
        g_nn, g_na, g_aa, h_n, h_a = sums
        det = g_nn * g_aa - g_na * g_na
        # rank 2 iff s_min > rcond s_max for the design and the bases are not collinear
        full = (det > (rcond * 0.5 * (g_nn + g_aa + np.hypot(g_nn - g_aa, 2.0 * g_na))) ** 2) & (
            det > COLLINEAR_EPS * g_nn * g_aa)
        det = np.where(full, det, 1.0)
        nu, alpha = (g_aa * h_n - g_na * h_a) / det, (g_nn * h_a - g_na * h_n) / det
        informative = np.count_nonzero((b_nu != 0.0) | (b_al != 0.0), axis=-1)
        for j, (coin, n, a) in enumerate(zip(coins.tolist(), nu.tolist(), alpha.tolist())):
            if informative[j] < 2:
                nu[j] = alpha[j] = 0.0
            elif not (full[j] and validate_effective(n, a, coin)):
                # Rank deficiency (|a| = 1 makes the two bases collinear) is
                # resolved the same way as infeasibility: solve on the boundary
                # of the reachable ellipse, where alpha is tied to nu.
                nu[j], alpha[j] = _boundary_refit(sums[:, j].tolist(), coin)
        diff = r - nu[:, None] * b_nu - alpha[:, None] * b_al
        out[:, lo : lo + chunk] = nu, alpha, np.sum(w * diff * diff, axis=-1), informative
    return out[0], out[1], out[2], out[3]


def fit_symmetry_params(
    hist: EmpiricalHistogram, abs_a: float, weighting: str = "none"
) -> tuple[float, float, float]:
    """Best (nu, alpha) at a fixed |a|, with the weighted squared residual.

    ``weighting="poisson"`` scales each site by 1/max(count, 1),
    approximating inverse-variance weights for counted data; the default
    is plain least squares on probabilities. Raises when the model is
    blind to (nu, alpha), e.g. t = 0 or the |a| = 0 even-t walk.
    """
    w = _weights(hist, weighting)
    if hist.t < 1:
        raise UnderdeterminedError("t = 0 has a single site; nothing to fit")
    nu, alpha, residual, informative = (
        float(v[0]) for v in _inner_fits(hist.probabilities(), w, np.array([abs_a]), hist.t))
    if informative < 2:
        raise UnderdeterminedError(f"only {informative:.0f} sites respond to (nu, alpha) "
                                   f"at |a| = {abs_a}, t = {hist.t}")
    return nu, alpha, residual


def fit_walk(
    hist: EmpiricalHistogram, tol: float = BRACKET_TOL, weighting: str = "none"
) -> FitResult:
    """Full (|a|, nu, alpha) fit: a second-moment bracket, a grid in it, then Brent.

    m(|a|) = sum x^2 rho_even rises strictly with |a|, so regula falsi
    inverts the histogram's m_p = sum x^2 p to a_m (0 or 1 beyond m(0) or
    t^2). The inner fit runs on the grid k h, h = min(0.005, 1/t), over
    [a_m - 2h, a_m + 2h] and m^-1([m_p - 6 sigma_m, m_p + 6 sigma_m]), with
    sigma_m^2 = sum x^4 (p - rho_hat)^2 at the best of the first points;
    the grid widens while its winner sits on an edge other than 0 or 1.
    Ties break toward smaller |a|, and underdetermined points compete with
    (nu, alpha) = (0, 0) and the even-only residual. Brent's method refines
    between the winner's neighbours to ``tol``; a_m is the last candidate.
    """
    if hist.t < 2:
        raise UnderdeterminedError("need t >= 2 to separate |a| from (nu, alpha)")
    t, p, w = hist.t, hist.probabilities(), _weights(hist, weighting)
    n, x2 = max(200, t), np.arange(-t, t + 1.0) ** 2  # grid step h = 1/n
    fits: dict[float, tuple[float, float, float]] = {}  # |a| -> (nu, alpha, residual)

    def residual(*coins: float) -> float:
        """Inner-fit the coins not seen yet in one batch; the residual at the last."""
        new = [a for a in coins if a not in fits]
        if new:
            batch = _inner_fits(p, w, np.array(new), t)[:3]
            fits.update(zip(new, zip(*(v.tolist() for v in batch))))
        return fits[coins[-1]][2]

    def grid(k_lo: int, k_hi: int) -> int:  # the best k of k / n, k_lo <= k <= k_hi
        residual(*(k / n for k in range(k_lo, k_hi + 1)))
        return min(range(k_lo, k_hi + 1), key=lambda k: fits[k / n][2])

    def law(a: float) -> float:  # near-linear in |a|, so regula falsi steps well
        return _law(float(_second_moments(a, t)[0]), t)

    m_p = float(p @ x2)
    l_0, l_p = law(0.0), _law(m_p, t)
    a_m = _invert(law, l_p, 0.0, l_0, 1.0, 0.0, 1e-14)
    k_lo, k_hi = max(0, math.ceil(a_m * n - 2.0)), min(n, math.floor(a_m * n + 2.0))
    a_0 = grid(k_lo, k_hi) / n
    rho_even, rho_sq, rho_mi = (s[0] for s in density_shapes(lattice_row_batch(a_0, t)))
    nu, alpha, _ = fits[a_0]
    rho_hat = rho_even + nu * (2.0 * a_0 * rho_mi - rho_sq) + alpha * rho_mi
    spread = MOMENT_SIGMAS * math.sqrt(float(np.sum((x2 * (p - rho_hat)) ** 2)))
    lo = _invert(law, _law(m_p - spread, t), 0.0, l_0, a_m, l_p, 0.25 / n)
    hi = _invert(law, _law(m_p + spread, t), a_m, l_p, 1.0, 0.0, 0.25 / n)
    k_lo, k_hi = min(k_lo, math.floor(lo * n)), max(k_hi, math.ceil(hi * n))
    k = grid(k_lo, k_hi)
    while 0 < k == k_lo or k == k_hi < n:  # widen past the winning edge by the grid's width
        width = k_hi - k_lo
        k_lo, k_hi = (max(0, k_lo - width), k_hi) if k == k_lo else (k_lo, min(n, k_hi + width))
        k = grid(k_lo, k_hi)
    x, _ = _brent(residual, max(k - 1, 0) / n, k / n, min(k + 1, n) / n, fits[k / n][2], tol)
    best = a_m if residual(a_m) < fits[x][2] else x
    nu_hat, alpha_hat, residual_hat = fits[best]
    return FitResult(
        abs_a_hat=best,
        nu_hat=nu_hat,
        alpha_hat=alpha_hat,
        residual=residual_hat,
        feasible=validate_effective(nu_hat, alpha_hat, best),
    )
