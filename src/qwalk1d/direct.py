"""Brute-force evolution of the walk, in position and momentum space.

This module is the reference oracle: it implements the one-step update
rule literally and iterates it, with no closed-form shortcuts. Every
analytic routine in the package is tested against it.

Position-space state is stored dense over the reachable window
[-t, t]; one step costs O(t), a full evolution O(t^2). Momentum-space
evolution multiplies the spinor at each grid momentum by the one-step
matrix, again with no closed form.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .params import AliasingError, ResourceLimitError, WalkSpec

MAX_DIRECT_T = 100_000


@dataclass(frozen=True)
class WaveField:
    """Spinor wavefunction over a symmetric position window at fixed time.

    ``psi0[i]`` and ``psi1[i]`` are the two spinor components at site
    ``x = i - half``, where ``half = (len - 1) // 2``. The window always
    covers [-t, t] so unreachable sites are stored as exact zeros.
    """

    t: int
    psi0: np.ndarray
    psi1: np.ndarray

    @property
    def half(self) -> int:
        return (len(self.psi0) - 1) // 2

    @property
    def positions(self) -> np.ndarray:
        h = self.half
        return np.arange(-h, h + 1)

    def component(self, s: int, x: int) -> complex:
        """Amplitude of spinor component ``s`` at site ``x`` (0 off-window)."""
        i = x + self.half
        if i < 0 or i >= len(self.psi0):
            return 0.0 + 0.0j
        return complex((self.psi0 if s == 0 else self.psi1)[i])

    def density(self) -> np.ndarray:
        return np.abs(self.psi0) ** 2 + np.abs(self.psi1) ** 2

    def norm_sq(self) -> float:
        return float(np.sum(self.density()))


def initial_field(spec: WalkSpec) -> WaveField:
    """The t = 0 field: the initial spinor concentrated at the origin."""
    psi0 = np.zeros(1, dtype=complex)
    psi1 = np.zeros(1, dtype=complex)
    psi0[0] = spec.c0
    psi1[0] = spec.c1
    return WaveField(t=0, psi0=psi0, psi1=psi1)


def step(spec: WalkSpec, field: WaveField) -> WaveField:
    """Apply one walk step.

    Component 0 takes its input from the left neighbour, component 1 from
    the right, each mixed through the coin and multiplied by exp(i k):

        psi0(x, t) = e^{ik} [ a  psi0(x-1) + b    psi1(x-1) ]
        psi1(x, t) = e^{ik} [ -conj(b) psi0(x+1) + conj(a) psi1(x+1) ]
    """
    phase = cmath.exp(1j * spec.k)
    n = len(field.psi0)
    psi0 = np.zeros(n + 2, dtype=complex)
    psi1 = np.zeros(n + 2, dtype=complex)
    # Old site x occupies new index x + half + 1; shift by +-1 accordingly.
    psi0[2:] = phase * (spec.a * field.psi0 + spec.b * field.psi1)
    psi1[:-2] = phase * (-spec.b.conjugate() * field.psi0 + spec.a.conjugate() * field.psi1)
    return WaveField(t=field.t + 1, psi0=psi0, psi1=psi1)


def evolve_direct(spec: WalkSpec, t: int, max_t: int = MAX_DIRECT_T) -> WaveField:
    """Evolve the walk to time ``t`` by literal iteration of the step rule."""
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t > max_t:
        raise ResourceLimitError(
            f"direct evolution to t = {t} exceeds the ceiling {max_t}"
        )
    spec.validate()
    field = initial_field(spec)
    for _ in range(t):
        field = step(spec, field)
    return field


@dataclass(frozen=True)
class MomentumWavefunction:
    """Spinor wavefunction sampled on a uniform momentum grid at fixed time.

    Grid point ``j`` sits at momentum ``p = 2 pi j / n`` for
    ``j = 0 .. n-1``; position amplitudes are recovered by the discrete
    Fourier transform psi(x) = (1/n) sum_j phi(p_j) e^{i x p_j}, which is
    exact as long as n exceeds the support width.
    """

    t: int
    grid: np.ndarray
    phi0: np.ndarray
    phi1: np.ndarray

    def to_position(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Inverse transform onto integer sites ``x`` (exact when unaliased):
        one inverse FFT of the uniform grid, read at ``x`` mod n."""
        sites = np.asarray(x) % len(self.grid)
        return np.fft.ifft(self.phi0)[sites], np.fft.ifft(self.phi1)[sites]


def _momentum_grid(t: int, grid_size: int | None) -> np.ndarray:
    """Momentum grid p_j = 2 pi j / n, n = ``grid_size`` (default 2t + 2), n >= 2t + 1."""
    if grid_size is None:
        grid_size = 2 * t + 2
    if grid_size < 2 * t + 1:
        raise AliasingError(
            f"grid_size = {grid_size} aliases a walk of support width "
            f"{2 * t + 1}; need grid_size >= 2 t + 1"
        )
    return 2.0 * np.pi * np.arange(grid_size) / grid_size


def step_matrix(spec: WalkSpec, p: np.ndarray) -> np.ndarray:
    """One-step momentum-space matrices S(p), shape (len(p), 2, 2).

    S(p) = [[ a e^{-ip},        b e^{-ip}  ],
            [ -conj(b) e^{ip},  conj(a) e^{ip} ]]
    """
    em = np.exp(-1j * p)
    ep = np.exp(1j * p)
    out = np.empty((len(p), 2, 2), dtype=complex)
    out[:, 0, 0] = spec.a * em
    out[:, 0, 1] = spec.b * em
    out[:, 1, 0] = -spec.b.conjugate() * ep
    out[:, 1, 1] = spec.a.conjugate() * ep
    return out


def evolve_momentum_direct(
    spec: WalkSpec, t: int, grid_size: int | None = None, max_t: int = MAX_DIRECT_T
) -> MomentumWavefunction:
    """Evolve in momentum space by repeated matrix application.

    The grid must satisfy ``grid_size >= 2 t + 1``: coarser grids alias the
    walk (support [-t, t]) back onto itself, so the inverse transform would
    silently return wrong amplitudes.
    """
    if t < 0:
        raise ValueError(f"t must be non-negative, got {t}")
    if t > max_t:
        raise ResourceLimitError(
            f"momentum evolution to t = {t} exceeds the ceiling {max_t}"
        )
    spec.validate()
    grid = _momentum_grid(t, grid_size)
    phi = np.empty((len(grid), 2), dtype=complex)
    phi[:, 0] = spec.c0
    phi[:, 1] = spec.c1
    s = step_matrix(spec, grid)
    phase = cmath.exp(1j * spec.k)
    for _ in range(t):
        phi = phase * np.einsum("pij,pj->pi", s, phi)
    return MomentumWavefunction(t=t, grid=grid, phi0=phi[:, 0], phi1=phi[:, 1])
