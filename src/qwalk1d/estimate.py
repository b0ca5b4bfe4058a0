"""Recovering (|a|, nu, alpha) from a measured position histogram.

For fixed |a| the model density is affine in the two symmetry
parameters,

    rho(x) = rho_even(x) + nu B_nu(x) + alpha B_alpha(x),
    B_nu = 2 |a| rho_mi - rho_sq,   B_alpha = rho_mi,

so the inner problem is plain linear least squares, clipped to the
physically reachable ellipse 4 nu^2 + alpha^2 / (1 - |a|^2) <= 1 (with a
boundary refit when the unconstrained minimum falls outside). The outer
problem is a one-dimensional search over |a|: a coarse grid to locate the
basin, then golden-section refinement. The observation time t is an
input, not a fit parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import DensityProfile, even_density, odd_components
from .foundation import lattice_rows
from .params import UnderdeterminedError, max_alpha, validate_effective

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
COARSE_POINTS = 201
BRACKET_TOL = 1e-6


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


def _boundary_refit(
    r: np.ndarray, b_nu: np.ndarray, b_al: np.ndarray, abs_a: float, w: np.ndarray
) -> tuple[float, float]:
    """Minimize the weighted residual on the feasibility boundary.

    Parametrizes nu = cos(theta)/2, alpha = semi * sin(theta) with
    semi = sqrt(1 - |a|^2); scans theta, then tightens by golden section.
    When semi = 0 the ellipse collapses to the alpha = 0 segment and the
    problem is a clamped one-dimensional fit.
    """
    semi = math.sqrt(max(0.0, 1.0 - abs_a * abs_a))
    if semi == 0.0:
        denom = float(np.sum(w * b_nu * b_nu))
        if denom == 0.0:
            return 0.0, 0.0
        nu = float(np.sum(w * r * b_nu)) / denom
        return max(-0.5, min(0.5, nu)), 0.0

    def objective(theta: float) -> float:
        nu = 0.5 * math.cos(theta)
        alpha = semi * math.sin(theta)
        diff = r - nu * b_nu - alpha * b_al
        return float(np.sum(w * diff * diff))

    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    values = [objective(th) for th in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    lo, hi = _golden_section(objective, lo, hi, 1e-10)
    theta = 0.5 * (lo + hi)
    return 0.5 * math.cos(theta), semi * math.sin(theta)


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


def fit_symmetry_params(
    hist: EmpiricalHistogram, abs_a: float, weighting: str = "none"
) -> tuple[float, float, float]:
    """Best (nu, alpha) at a fixed |a|, with the weighted squared residual.

    ``weighting="poisson"`` scales each site by 1/max(count, 1),
    approximating inverse-variance weights for counted data; the default
    is plain least squares on probabilities. Raises when the model is
    blind to (nu, alpha), e.g. t = 0 or the |a| = 0 even-t walk.
    """
    if weighting not in ("none", "poisson"):
        raise ValueError(f"unknown weighting {weighting!r}")
    if hist.t < 1:
        raise UnderdeterminedError("t = 0 has a single site; nothing to fit")
    if not 0.0 <= abs_a <= 1.0:
        raise ValueError(f"abs_a must lie in [0, 1], got {abs_a}")
    t = hist.t
    p = hist.probabilities()
    w = (1.0 / np.maximum(hist.counts, 1.0)) if weighting == "poisson" else np.ones_like(p)
    rows = lattice_rows(abs_a, t)
    r = p - even_density(abs_a, t, rows)
    rho_sq, rho_mi = odd_components(abs_a, t, rows)
    b_nu = 2.0 * abs_a * rho_mi - rho_sq
    b_al = rho_mi
    informative = int(np.sum((b_nu != 0.0) | (b_al != 0.0)))
    if informative < 2:
        raise UnderdeterminedError(
            f"only {informative} sites respond to (nu, alpha) at |a| = {abs_a}, t = {t}"
        )
    sw = np.sqrt(w)
    design = np.column_stack([sw * b_nu, sw * b_al])
    sol, _, rank, _ = np.linalg.lstsq(design, sw * r, rcond=None)
    nu, alpha = float(sol[0]), float(sol[1])
    if rank < 2 or not validate_effective(nu, alpha, abs_a):
        # Rank deficiency (|a| = 1 makes the two bases collinear) is
        # resolved the same way as infeasibility: solve on the boundary
        # of the reachable ellipse, where alpha is tied to nu.
        nu, alpha = _boundary_refit(r, b_nu, b_al, abs_a, w)
        alpha = math.copysign(min(abs(alpha), max_alpha(abs_a, nu)), alpha)
    diff = r - nu * b_nu - alpha * b_al
    return nu, alpha, float(np.sum(w * diff * diff))


def fit_walk(
    hist: EmpiricalHistogram,
    coarse_points: int = COARSE_POINTS,
    tol: float = BRACKET_TOL,
    weighting: str = "none",
) -> FitResult:
    """Full (|a|, nu, alpha) fit: coarse |a| grid, then golden section.

    Grid ties break toward smaller |a|; grid points where the inner fit
    is underdetermined fall back to (nu, alpha) = (0, 0) with the
    even-only residual, so they compete on equal terms without aborting
    the search.
    """
    if hist.t < 2:
        raise UnderdeterminedError("need t >= 2 to separate |a| from (nu, alpha)")
    if coarse_points < 3:
        raise ValueError("coarse_points must be >= 3")

    def inner(abs_a: float) -> tuple[float, float, float]:
        try:
            return fit_symmetry_params(hist, abs_a, weighting)
        except UnderdeterminedError:
            p = hist.probabilities()
            w = (1.0 / np.maximum(hist.counts, 1.0)) if weighting == "poisson" \
                else np.ones_like(p)
            diff = p - even_density(abs_a, hist.t)
            return 0.0, 0.0, float(np.sum(w * diff * diff))

    grid = np.linspace(0.0, 1.0, coarse_points)
    residuals = np.array([inner(a)[2] for a in grid])
    i = int(np.argmin(residuals))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]
    lo, hi = _golden_section(lambda a: inner(a)[2], lo, hi, tol)
    abs_a_hat = 0.5 * (lo + hi)
    # Keep the coarse winner if refinement did not actually improve on it
    if inner(abs_a_hat)[2] > residuals[i]:
        abs_a_hat = float(grid[i])
    nu_hat, alpha_hat, residual = inner(abs_a_hat)
    return FitResult(
        abs_a_hat=float(abs_a_hat),
        nu_hat=nu_hat,
        alpha_hat=alpha_hat,
        residual=residual,
        feasible=validate_effective(nu_hat, alpha_hat, abs_a_hat),
    )
