"""Closed-form momentum and position wavefunctions against the stepping oracle."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given

from qwalk1d import (
    WalkSpec,
    evolution_operator,
    evolve_direct,
    evolve_momentum_direct,
    foundation_table,
    half_trace,
    momentum_wavefunction,
    position_wavefunction,
    shifted_foundation,
)
from qwalk1d.direct import step_matrix

from conftest import random_spec, spec_strategy

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestEvolutionOperator:
    def test_single_step_is_step_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            spec = random_spec(rng)
            p = float(rng.uniform(-math.pi, math.pi))
            sample = evolution_operator(spec, p, 1)
            expected = cmath.exp(1j * spec.k) * step_matrix(spec, np.array([p]))[0]
            assert np.max(np.abs(sample.matrix - expected)) < 1e-14

    def test_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            spec = random_spec(rng)
            p = float(rng.uniform(-math.pi, math.pi))
            t = int(rng.integers(0, 60))
            assert evolution_operator(spec, p, t).unitarity_defect() < 1e-12

    def test_matches_matrix_power(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            spec = random_spec(rng)
            p = float(rng.uniform(-math.pi, math.pi))
            t = int(rng.integers(1, 30))
            single = cmath.exp(1j * spec.k) * step_matrix(spec, np.array([p]))[0]
            power = np.linalg.matrix_power(single, t)
            sample = evolution_operator(spec, p, t)
            assert np.max(np.abs(sample.matrix - power)) < 1e-11

    def test_shift_only_coin_is_diagonal(self):
        spec = WalkSpec(a=1.0, b=0.0, k=0.0)
        sample = evolution_operator(spec, 0.9, 5)
        off = abs(sample.matrix[0, 1]) + abs(sample.matrix[1, 0])
        assert off < 1e-13
        assert abs(sample.matrix[0, 0] - cmath.exp(-1j * 0.9 * 5)) < 1e-12

    def test_half_trace_formula(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            spec = random_spec(rng)
            p = float(rng.uniform(-math.pi, math.pi))
            single = step_matrix(spec, np.array([p]))[0]
            direct = (single[0, 0] + single[1, 1]).real / 2
            assert abs(half_trace(spec, p) - direct) < 1e-13


class TestMomentumWavefunction:
    def test_time_zero_is_spinor_constant(self):
        spec = WalkSpec(a=0.6, b=0.8, c0=0.6 + 0j, c1=0.8j)
        wf = momentum_wavefunction(spec, 0, grid_size=9)
        assert np.max(np.abs(wf.phi0 - spec.c0)) < 1e-15
        assert np.max(np.abs(wf.phi1 - spec.c1)) < 1e-15

    def test_matches_direct_momentum_evolution(self):
        spec = WalkSpec.hadamard()
        t = 64
        closed = momentum_wavefunction(spec, t)
        direct = evolve_momentum_direct(spec, t)
        assert np.max(np.abs(closed.phi0 - direct.phi0)) < 1e-11
        assert np.max(np.abs(closed.phi1 - direct.phi1)) < 1e-11

    def test_pointwise_spinor_norm_one(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng)
        wf = momentum_wavefunction(spec, 17)
        norms = np.abs(wf.phi0) ** 2 + np.abs(wf.phi1) ** 2
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_aliasing_guard(self):
        from qwalk1d import AliasingError

        with pytest.raises(AliasingError):
            momentum_wavefunction(WalkSpec.hadamard(), 10, grid_size=20)

    def test_inverse_transform_recovers_position(self):
        rng = np.random.default_rng(29)
        spec = random_spec(rng)
        t = 12
        wf = momentum_wavefunction(spec, t)
        field = position_wavefunction(spec, t)
        xs = np.array([-t, -4, 0, 3, t])
        p0, p1 = wf.to_position(xs)
        for i, x in enumerate(xs):
            assert abs(p0[i] - field.component(0, int(x))) < 1e-12
            assert abs(p1[i] - field.component(1, int(x))) < 1e-12


class TestPositionWavefunction:
    def test_time_zero(self):
        spec = WalkSpec(a=0.28, b=0.96, c0=0.8 + 0j, c1=0.6j)
        field = position_wavefunction(spec, 0)
        assert field.component(0, 0) == spec.c0
        assert field.component(1, 0) == spec.c1

    def test_hadamard_single_step(self):
        field = position_wavefunction(WalkSpec.hadamard(), 1)
        assert abs(field.component(0, 1) - INV_SQRT2) < 1e-15
        assert abs(field.component(1, -1) - (-INV_SQRT2)) < 1e-15
        assert abs(field.component(0, -1)) < 1e-15
        assert abs(field.component(1, 1)) < 1e-15

    def test_matches_stepping_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            spec = random_spec(rng)
            t = int(rng.integers(0, 50))
            closed = position_wavefunction(spec, t)
            direct = evolve_direct(spec, t)
            assert np.max(np.abs(closed.psi0 - direct.psi0)) < 1e-11
            assert np.max(np.abs(closed.psi1 - direct.psi1)) < 1e-11

    @given(spec_strategy())
    def test_norm_is_one(self, spec):
        field = position_wavefunction(spec, 21)
        assert abs(field.norm_sq() - 1.0) < 1e-11

    def test_phases_factor_out_of_modulus(self):
        # Absorbing arg(a) and k into prefactors leaves |psi| untouched.
        rng = np.random.default_rng(37)
        for _ in range(6):
            spec = random_spec(rng)
            d = cmath.phase(spec.a) if spec.a != 0 else 0.0
            stripped = WalkSpec(
                a=abs(spec.a),
                b=spec.b * cmath.exp(-1j * d),
                k=0.0,
                c0=spec.c0,
                c1=spec.c1,
            )
            t = 14
            full = position_wavefunction(spec, t)
            plain = position_wavefunction(stripped, t)
            assert np.max(np.abs(np.abs(full.psi0) - np.abs(plain.psi0))) < 1e-12
            assert np.max(np.abs(np.abs(full.psi1) - np.abs(plain.psi1))) < 1e-12

    def test_fourier_relation(self):
        # phi(p_j) = sum_x psi(x) e^{-i p_j x} on any grid with > 2t+1 points
        rng = np.random.default_rng(41)
        spec = random_spec(rng)
        t = 9
        field = position_wavefunction(spec, t)
        wf = momentum_wavefunction(spec, t)
        xs = field.positions
        kernel = np.exp(-1j * np.outer(wf.grid, xs))
        assert np.max(np.abs(kernel @ field.psi0 - wf.phi0)) < 1e-10
        assert np.max(np.abs(kernel @ field.psi1 - wf.phi1)) < 1e-10

    def test_shifted_foundation_values(self):
        f = shifted_foundation(INV_SQRT2, foundation_table(INV_SQRT2, 3).window(1))
        # f_1(1) = u_1(1) - |a| u_0(2) = |a|; f_1(-1) = |a| - |a| u_0(0) = 0
        assert abs(f[2] - INV_SQRT2) < 1e-15
        assert abs(f[0]) < 1e-15
