"""Probability densities and their even/odd decomposition.

The density of any walk splits as rho = rho_even + rho_odd where the even
part depends only on |a| and the odd part is linear in the two symmetry
parameters (nu, alpha):

    rho_even(x) = (1/2)[u_{t-1}^2(x-1) + u_{t-1}^2(x+1)] - u_t(x) u_{t-2}(x)
    rho_odd(x)  = (2 |a| nu + alpha) rho_mi(x) - nu rho_sq(x)

with the two odd basis shapes

    rho_sq(x) = u_{t-1}^2(x-1) - u_{t-1}^2(x+1)
    rho_mi(x) = u_t(x) [u_{t-1}(x-1) - u_{t-1}(x+1)].

The rho_odd coefficients were fixed by fitting against brute-force
evolution over a parameter grid (see tests); a published variant of the
formula with a flipped alpha sign and a flipped rho_sq sign is available
behind ``paper_signs=True`` for documentation of that divergence. It is
excluded from every equivalence test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closedform import shifted_foundation
from .foundation import _row_views, lattice_rows
from .params import (
    EffectiveParams,
    InfeasibleParamsError,
    WalkSpec,
    derive_effective,
    validate_effective,
)


@dataclass(frozen=True)
class DensityProfile:
    """All density arrays of one walk at one time, over x in [-t, t]."""

    t: int
    abs_a: float
    nu: float
    alpha: float
    rho: np.ndarray
    rho0: np.ndarray
    rho1: np.ndarray
    rho_even: np.ndarray
    rho_odd: np.ndarray
    rho_mi: np.ndarray
    rho_sq: np.ndarray

    @property
    def positions(self) -> np.ndarray:
        return np.arange(-self.t, self.t + 1)

    def total_mass(self) -> float:
        return float(np.sum(self.rho))


def _component_arrays(
    abs_a: float, nu: float, alpha: float, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rho0, rho1) over [-t, t] from the effective parameters and the rows at t.

    rho0(x) = (1/2 + nu) f_t^2(x) + (1 - |a|^2)(1/2 - nu) u_{t-1}^2(x-1)
              + alpha f_t(x) u_{t-1}(x-1)
    and rho1 is the mirror image with nu and the cross sign flipped.
    """
    f = shifted_foundation(abs_a, rows)
    u_left = _row_views(rows)[3]
    b_sq = 1.0 - abs_a * abs_a
    rho0 = (0.5 + nu) * f**2 + b_sq * (0.5 - nu) * u_left**2 + alpha * f * u_left
    rho1 = ((0.5 - nu) * f**2 + b_sq * (0.5 + nu) * u_left**2 - alpha * f * u_left)[::-1]
    return rho0, rho1.copy()


def component_densities(spec: WalkSpec, t: int) -> tuple[np.ndarray, np.ndarray]:
    """(|psi0|^2, |psi1|^2) over [-t, t], without forming amplitudes.

    Written purely in terms of (|a|, nu, alpha); phases d, k and the
    phase split of delta drop out, which the tests verify against
    amplitude-level evolution.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eff = derive_effective(spec)
    return _component_arrays(eff.abs_a, eff.nu, eff.alpha, lattice_rows(eff.abs_a, t))


def density_shapes(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho_even, rho_sq, rho_mi) over [-t, t] from rows u_{t-2}, u_{t-1}, u_t.

    ``rows`` is laid out as ``lattice_rows`` returns it, optionally with
    one axis per |a| in the middle, as from ``lattice_row_batch``.
    """
    u_prev, _, u_t, u_left, u_right = _row_views(rows)
    # u_{t-2} is the u_{-1} zero row at t = 1
    rho_even = 0.5 * (u_left**2 + u_right**2) - u_t * u_prev
    return rho_even, u_left**2 - u_right**2, u_t * (u_left - u_right)


def even_density(abs_a: float, t: int) -> np.ndarray:
    """The |a|-only even part of the density, over x in [-t, t]."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return density_shapes(lattice_rows(abs_a, t))[0]


def odd_components(abs_a: float, t: int) -> tuple[np.ndarray, np.ndarray]:
    """The two odd basis shapes (rho_sq, rho_mi) over x in [-t, t]."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return density_shapes(lattice_rows(abs_a, t))[1:]


def odd_coefficients(
    abs_a: float, nu: float, alpha: float, paper_signs: bool = False
) -> tuple[float, float]:
    """(c_sq, c_mi) such that rho_odd = c_sq rho_sq + c_mi rho_mi.

    The default pair is the one fixed by the oracle fit. ``paper_signs``
    switches to the published variant (rho_sq coefficient +nu instead of
    -nu, alpha subtracted instead of added), which does NOT reproduce the
    true odd part; it exists to document the divergence.
    """
    if paper_signs:
        return nu, 2.0 * abs_a * nu - alpha
    return -nu, 2.0 * abs_a * nu + alpha


def total_density(
    effective: EffectiveParams | WalkSpec,
    t: int,
    paper_signs: bool = False,
) -> DensityProfile:
    """Full profile with all decomposition pieces, over x in [-t, t].

    ``rho`` is always the reconstruction rho_even + rho_odd; under
    ``paper_signs`` this deliberately disagrees with rho0 + rho1 (that
    mismatch is the documented divergence). ``effective`` may be a
    WalkSpec, in which case the effective parameters are derived first.
    """
    if isinstance(effective, WalkSpec):
        effective = derive_effective(effective)
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    abs_a, nu, alpha = effective.abs_a, effective.nu, effective.alpha
    if not validate_effective(nu, alpha, abs_a):
        raise InfeasibleParamsError(
            f"(nu={nu}, alpha={alpha}, abs_a={abs_a}) is not reachable"
        )
    if t == 0:
        one = np.array([1.0])
        zero = np.array([0.0])
        return DensityProfile(
            t=0, abs_a=abs_a, nu=nu, alpha=alpha,
            rho=one, rho0=np.array([0.5 + nu]), rho1=np.array([0.5 - nu]),
            rho_even=one.copy(), rho_odd=zero, rho_mi=zero.copy(), rho_sq=zero.copy(),
        )
    rows = lattice_rows(abs_a, t)
    rho0, rho1 = _component_arrays(abs_a, nu, alpha, rows)
    rho_even, rho_sq, rho_mi = density_shapes(rows)
    c_sq, c_mi = odd_coefficients(abs_a, nu, alpha, paper_signs)
    rho_odd = c_sq * rho_sq + c_mi * rho_mi
    return DensityProfile(
        t=t, abs_a=abs_a, nu=nu, alpha=alpha,
        rho=rho_even + rho_odd, rho0=rho0, rho1=rho1,
        rho_even=rho_even, rho_odd=rho_odd, rho_mi=rho_mi, rho_sq=rho_sq,
    )
