"""The brute-force evolvers: the oracle everything else is checked against."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwalk1d import (
    AliasingError,
    ResourceLimitError,
    WalkSpec,
    evolve_direct,
    evolve_momentum_direct,
    step,
)
from qwalk1d.direct import MomentumWavefunction, initial_field, step_matrix
from conftest import random_spec, spec_strategy

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def test_initial_field_is_spinor_at_origin():
    field = initial_field(WalkSpec(a=0.6, b=0.8, c0=0.6j, c1=0.8))
    assert field.t == 0
    assert field.component(0, 0) == 0.6j
    assert field.component(1, 0) == 0.8
    assert field.component(0, 5) == 0.0


def test_one_step_balanced_coin():
    field = evolve_direct(WalkSpec.hadamard(), 1)
    assert abs(field.component(0, 1) - INV_SQRT2) < 1e-15
    assert abs(field.component(1, -1) + INV_SQRT2) < 1e-15
    assert field.component(0, -1) == 0.0
    assert field.component(1, 1) == 0.0


def test_two_step_balanced_density():
    field = evolve_direct(WalkSpec.hadamard(), 2)
    rho = {int(x): float(r) for x, r in zip(field.positions, field.density())}
    assert abs(rho[-2] - 0.25) < 1e-15
    assert abs(rho[0] - 0.5) < 1e-15
    assert abs(rho[2] - 0.25) < 1e-15


def test_shift_only_coin_marches_right():
    field = evolve_direct(WalkSpec(a=1.0, b=0.0, c0=1.0, c1=0.0), 7)
    rho = field.density()
    assert abs(rho[-1] - 1.0) < 1e-15
    assert float(np.sum(rho[:-1])) == 0.0


@given(spec_strategy(), st.integers(min_value=0, max_value=30))
def test_norm_preserved(spec, t):
    assert abs(evolve_direct(spec, t).norm_sq() - 1.0) < 1e-12


@given(spec_strategy(), st.integers(min_value=0, max_value=20))
def test_support_parity(spec, t):
    field = evolve_direct(spec, t)
    for x, p0, p1 in zip(field.positions, field.psi0, field.psi1):
        if (x - t) % 2 != 0:
            assert p0 == 0.0 and p1 == 0.0


def test_global_phase_only_rotates_amplitudes():
    base = WalkSpec.hadamard()
    phased = WalkSpec.hadamard(k=0.7)
    f0 = evolve_direct(base, 9)
    f1 = evolve_direct(phased, 9)
    rot = np.exp(1j * 9 * 0.7)
    assert np.max(np.abs(f1.psi0 - rot * f0.psi0)) < 1e-14
    assert np.max(np.abs(f1.psi1 - rot * f0.psi1)) < 1e-14


def test_rejects_negative_time_and_resource_limit():
    with pytest.raises(ValueError):
        evolve_direct(WalkSpec.hadamard(), -1)
    with pytest.raises(ResourceLimitError):
        evolve_direct(WalkSpec.hadamard(), 101, max_t=100)


def test_step_grows_window_by_one():
    field = initial_field(WalkSpec.hadamard())
    stepped = step(WalkSpec.hadamard(), field)
    assert stepped.t == 1
    assert len(stepped.psi0) == 3


class TestMomentumDirect:
    def test_step_matrix_unitary(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng)
        p = rng.uniform(-math.pi, math.pi, size=8)
        s = step_matrix(spec, p)
        prod = np.einsum("pij,pkj->pik", s, s.conj())
        assert np.max(np.abs(prod - np.eye(2))) < 1e-14

    def test_aliasing_guard(self):
        with pytest.raises(AliasingError):
            evolve_momentum_direct(WalkSpec.hadamard(), 10, grid_size=20)

    def test_resource_limit(self):
        with pytest.raises(ResourceLimitError):
            evolve_momentum_direct(WalkSpec.hadamard(), 11, max_t=10)

    def test_pointwise_norm_one(self):
        rng = np.random.default_rng(11)
        mom = evolve_momentum_direct(random_spec(rng), 17)
        norms = np.abs(mom.phi0) ** 2 + np.abs(mom.phi1) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_matches_position_evolution(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            spec = random_spec(rng)
            t = int(rng.integers(1, 25))
            field = evolve_direct(spec, t)
            mom = evolve_momentum_direct(spec, t)
            psi0, psi1 = mom.to_position(field.positions)
            assert np.max(np.abs(psi0 - field.psi0)) < 1e-12
            assert np.max(np.abs(psi1 - field.psi1)) < 1e-12

    def test_to_position_on_a_large_grid(self):
        # A dense len(x) x n kernel would need 640 GB here; spot-check sites,
        # negative ones included, against the explicit sum with exact phases.
        rng = np.random.default_rng(3)
        n = 200_000
        j = np.arange(n)
        phi0, phi1 = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        mom = MomentumWavefunction(t=n // 2 - 1, grid=2.0 * np.pi * j / n, phi0=phi0, phi1=phi1)
        x = np.arange(-(n // 2) + 1, n // 2)
        psi0, psi1 = mom.to_position(x)
        assert psi0.shape == psi1.shape == x.shape
        for i in rng.integers(0, len(x), size=5):
            phase = np.exp(2j * np.pi * ((j * x[i]) % n) / n)
            assert abs(psi0[i] - np.sum(phi0 * phase) / n) < 1e-12
            assert abs(psi1[i] - np.sum(phi1 * phase) / n) < 1e-12
