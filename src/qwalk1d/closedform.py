"""Closed-form evolution: operator, momentum spinors, position amplitudes.

The one-step momentum matrix S(p) is unimodular, so its powers collapse
to a two-term Chebyshev combination instead of a matrix product chain:

    T(t, 0)(p) = e^{i t k} [ U_t(y) I - U_{t-1}(y) S^{-1}(p) ],
    y = |a| cos(p - d),  d = arg a.

Inverse Fourier transforming term by term turns this into position-space
amplitudes built from the lattice rows u_t and u_{t-1} (the FFT window
of ``foundation.lattice_rows``), with every x- and t-dependent phase
collected in the single prefactor e^{i(x d + t k)}.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .direct import MomentumWavefunction, WaveField, _momentum_grid
from .foundation import _row_views, chebyshev_u, lattice_rows
from .params import WalkSpec, derive_effective


@dataclass(frozen=True)
class EvolutionOperatorSample:
    """The full t-step momentum-space transfer matrix at one momentum."""

    p: float
    t: int
    matrix: np.ndarray

    def unitarity_defect(self) -> float:
        return float(np.max(np.abs(self.matrix @ self.matrix.conj().T - np.eye(2))))


def step_matrix_single(spec: WalkSpec, p: float) -> np.ndarray:
    """S(p) as a plain 2x2 array (unimodular: det = 1, inverse = adjoint)."""
    em = cmath.exp(-1j * p)
    ep = cmath.exp(1j * p)
    return np.array(
        [[spec.a * em, spec.b * em], [-spec.b.conjugate() * ep, spec.a.conjugate() * ep]]
    )


def half_trace(spec: WalkSpec, p: float) -> float:
    """Half the trace of S(p), which equals |a| cos(p - arg a).

    This is the cosine of the per-step rotation angle; the whole
    closed form depends on p only through it.
    """
    s = step_matrix_single(spec, p)
    return float((s[0, 0] + s[1, 1]).real) / 2.0


def evolution_operator(spec: WalkSpec, p: float, t: int) -> EvolutionOperatorSample:
    """T(t, 0)(p) by the two-term Chebyshev form (no matrix powers).

    Uses S^{-1} = adjoint(S), valid because S is unitary with unit
    determinant.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    spec.validate()
    d = cmath.phase(spec.a)
    y = abs(spec.a) * math.cos(p - d)
    s_inv = step_matrix_single(spec, p).conj().T
    matrix = chebyshev_u(t, y) * np.eye(2) - chebyshev_u(t - 1, y) * s_inv
    matrix = cmath.exp(1j * t * spec.k) * matrix
    return EvolutionOperatorSample(p=p, t=t, matrix=matrix)


def momentum_wavefunction(
    spec: WalkSpec, t: int, grid_size: int | None = None
) -> MomentumWavefunction:
    """Spinor phi(p, t) on a uniform grid, directly from the closed form.

    phi0 = e^{itk} [ (U_t - U_{t-1} conj(a) e^{ip}) c0 + U_{t-1} b e^{-ip} c1 ]
    phi1 = e^{itk} [ -U_{t-1} conj(b) e^{ip} c0 + (U_t - U_{t-1} a e^{-ip}) c1 ]

    with U_n evaluated at y = |a| cos(p - d). Same aliasing rule as the
    direct momentum evolver: grid_size >= 2t + 1.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    spec.validate()
    p = _momentum_grid(t, grid_size)
    d = cmath.phase(spec.a)
    y = abs(spec.a) * np.cos(p - d)
    u_t = chebyshev_u(t, y)
    u_tm1 = chebyshev_u(t - 1, y)
    ep = np.exp(1j * p)
    em = np.exp(-1j * p)
    phase = cmath.exp(1j * t * spec.k)
    phi0 = phase * ((u_t - u_tm1 * spec.a.conjugate() * ep) * spec.c0
                    + u_tm1 * spec.b * em * spec.c1)
    phi1 = phase * (-u_tm1 * spec.b.conjugate() * ep * spec.c0
                    + (u_t - u_tm1 * spec.a * em) * spec.c1)
    return MomentumWavefunction(t=t, grid=p, phi0=phi0, phi1=phi1)


def shifted_foundation(abs_a: float, rows: np.ndarray) -> np.ndarray:
    """f_t(|a| : x) = u_t(|a| : x) - |a| u_{t-1}(|a| : x + 1) over [-t, t].

    ``rows`` is the window of ``lattice_rows(abs_a, t)``.
    """
    _, _, u_t, _, u_right = _row_views(rows)
    return u_t - abs_a * u_right


def position_wavefunction(spec: WalkSpec, t: int) -> WaveField:
    """psi(x, t) over the window [-t, t], assembled from foundation rows.

    psi0(x) = e^{i(xd + tk)} [ c0 f_t(x) + beta c1 u_{t-1}(x - 1) ]
    psi1(x) = e^{i(xd + tk)} [ c1 f_t(-x) - conj(beta) c0 u_{t-1}(-x - 1) ]

    where beta = b e^{-i d} strips the coin phase out of b. The rows are
    the O(t log t) FFT window of ``lattice_rows``.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    eff = derive_effective(spec)
    rows = lattice_rows(eff.abs_a, t)
    x = np.arange(-t, t + 1)
    f_pos = shifted_foundation(eff.abs_a, rows)
    u_left = _row_views(rows)[3]
    phase = np.exp(1j * (x * eff.d + t * spec.k))
    psi0 = phase * (spec.c0 * f_pos + eff.beta * spec.c1 * u_left)
    psi1 = phase * (spec.c1 * f_pos[::-1] - eff.beta.conjugate() * spec.c0 * u_left[::-1])
    return WaveField(t=t, psi0=psi0, psi1=psi1)
