"""Density decomposition: components, even/odd split, and the frozen sign convention."""

import cmath
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwalk1d import (
    EffectiveParams,
    InfeasibleParamsError,
    WalkSpec,
    component_densities,
    derive_effective,
    even_density,
    evolve_direct,
    max_alpha,
    odd_coefficients,
    odd_components,
    total_density,
)

from conftest import random_spec

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestProfileInvariants:
    @pytest.mark.parametrize("seed", [3, 5, 7, 11])
    def test_mass_split_and_parity(self, seed):
        rng = np.random.default_rng(seed)
        spec = random_spec(rng)
        t = int(rng.integers(1, 60))
        prof = total_density(spec, t)
        assert abs(prof.total_mass() - 1.0) < 1e-12
        assert np.max(np.abs(prof.rho - (prof.rho0 + prof.rho1))) < 1e-12
        assert np.max(np.abs(prof.rho - (prof.rho_even + prof.rho_odd))) < 1e-12
        assert np.max(np.abs(prof.rho_even - prof.rho_even[::-1])) < 1e-12
        assert np.max(np.abs(prof.rho_odd + prof.rho_odd[::-1])) < 1e-12
        assert prof.rho.min() > -1e-12

    def test_matches_amplitude_squares(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec = random_spec(rng)
            rho0, rho1 = component_densities(spec, 50)
            field = evolve_direct(spec, 50)
            assert np.max(np.abs(rho0 - np.abs(field.psi0) ** 2)) < 1e-11
            assert np.max(np.abs(rho1 - np.abs(field.psi1) ** 2)) < 1e-11

    def test_hadamard_single_step(self):
        rho0, rho1 = component_densities(WalkSpec.hadamard(), 1)
        assert abs(rho0[2] - 0.5) < 1e-15
        assert abs(rho1[0] - 0.5) < 1e-15
        assert abs(rho0[0]) < 1e-15 and abs(rho1[2]) < 1e-15

    def test_shift_only_coin_is_delta(self):
        prof = total_density(WalkSpec(a=1.0, b=0.0, c0=1.0 + 0j, c1=0j), 5)
        expected = np.zeros(11)
        expected[-1] = 1.0
        assert np.max(np.abs(prof.rho - expected)) < 1e-14


class TestEvenDensity:
    def test_single_step(self):
        rho = even_density(INV_SQRT2, 1)
        assert abs(rho[0] - 0.5) < 1e-15
        assert abs(rho[2] - 0.5) < 1e-15
        assert abs(rho[1]) < 1e-15

    def test_unit_mass(self):
        for abs_a in (0.0, 0.3, INV_SQRT2, 0.9, 1.0):
            for t in (1, 4, 37, 100):
                assert abs(even_density(abs_a, t).sum() - 1.0) < 1e-12

    def test_is_symmetric_initial_condition_density(self):
        # nu = alpha = 0 walks reproduce the even part exactly.
        spec = WalkSpec.from_symmetry(0.6, 0.0, 0.0)
        t = 23
        prof = total_density(spec, t)
        assert np.max(np.abs(prof.rho - even_density(0.6, t))) < 1e-12


class TestOddComponents:
    def test_single_step_shapes(self):
        rho_sq, rho_mi = odd_components(INV_SQRT2, 1)
        expected_sq = np.array([-1.0, 0.0, 1.0])
        expected_mi = np.array([-INV_SQRT2, 0.0, INV_SQRT2])
        assert np.max(np.abs(rho_sq - expected_sq)) < 1e-15
        assert np.max(np.abs(rho_mi - expected_mi)) < 1e-15

    def test_zero_sums(self):
        for t in (1, 2, 9, 30):
            rho_sq, rho_mi = odd_components(0.44, t)
            assert abs(rho_sq.sum()) < 1e-12
            assert abs(rho_mi.sum()) < 1e-12

    def test_phase_invariance(self):
        # The density depends only on (|a|, nu, alpha); rephasing amplitudes
        # in a delta-preserving way leaves it fixed.
        t = 16
        base = WalkSpec.from_symmetry(0.55, 0.21, 0.3 * max_alpha(0.55, 0.21))
        eff = derive_effective(base)
        rotated = WalkSpec(
            a=base.a * cmath.exp(0.8j),
            b=base.b * cmath.exp(-0.3j),
            k=1.1,
            c0=base.c0 * cmath.exp(0.25j),
            # delta = arg a - arg b + arg c0 - arg c1 stays fixed
            c1=base.c1 * cmath.exp(1j * (0.8 + 0.3 + 0.25)),
        )
        eff2 = derive_effective(rotated)
        assert abs(eff2.nu - eff.nu) < 1e-14
        assert abs(eff2.alpha - eff.alpha) < 1e-14
        r0a, r1a = component_densities(base, t)
        r0b, r1b = component_densities(rotated, t)
        assert np.max(np.abs((r0a + r1a) - (r0b + r1b))) < 1e-12


class TestFrozenSignConvention:
    """Exactly one sign assignment reconstructs the stepping oracle; it is frozen."""

    CASES = [
        (abs_a, nu_frac, al_frac, t)
        for abs_a in (0.3, INV_SQRT2, 0.9)
        for nu_frac, al_frac in ((0.8, 0.5), (-0.6, -0.7), (0.4, -0.9))
        for t in (1, 2, 5)
    ]

    @staticmethod
    def _oracle_odd(spec, t):
        rho = evolve_direct(spec, t).density()
        return (rho - rho[::-1]) / 2

    def test_only_shipped_assignment_is_exact(self):
        budgets = {combo: 0.0 for combo in itertools.product((-1, 1), repeat=3)}
        for abs_a, nu_frac, al_frac, t in self.CASES:
            nu = 0.5 * nu_frac
            alpha = al_frac * max_alpha(abs_a, nu)
            spec = WalkSpec.from_symmetry(abs_a, nu, alpha)
            rho_sq, rho_mi = odd_components(abs_a, t)
            target = self._oracle_odd(spec, t)
            for s_nu, s_cross, s_al in budgets:
                trial = (
                    s_nu * nu * rho_sq
                    + (s_cross * 2 * abs_a * nu + s_al * alpha) * rho_mi
                )
                budgets[(s_nu, s_cross, s_al)] = max(
                    budgets[(s_nu, s_cross, s_al)],
                    float(np.max(np.abs(trial - target))),
                )
        shipped = (-1, 1, 1)
        assert budgets[shipped] < 1e-12
        for combo, worst in budgets.items():
            if combo != shipped:
                assert worst > 1e-3, f"assignment {combo} not excluded"

    def test_odd_coefficients_expose_frozen_pair(self):
        c_sq, c_mi = odd_coefficients(0.6, 0.2, 0.1)
        assert c_sq == -0.2
        assert abs(c_mi - (2 * 0.6 * 0.2 + 0.1)) < 1e-15

    def test_printed_variant_flips_both(self):
        c_sq, c_mi = odd_coefficients(0.6, 0.2, 0.1, paper_signs=True)
        assert c_sq == 0.2
        assert abs(c_mi - (2 * 0.6 * 0.2 - 0.1)) < 1e-15


class TestTotalDensity:
    def test_accepts_spec_or_effective(self):
        spec = WalkSpec.from_symmetry(0.7, 0.1, 0.05)
        eff = derive_effective(spec)
        a = total_density(spec, 8)
        b = total_density(eff, 8)
        assert np.max(np.abs(a.rho - b.rho)) < 1e-14

    def test_time_zero(self):
        eff = EffectiveParams(0.5, 0.0, math.sqrt(0.75), 0.3, 0.0, 0.0)
        prof = total_density(eff, 0)
        assert prof.rho.shape == (1,)
        assert prof.rho[0] == 1.0
        assert prof.rho0[0] == 0.8

    def test_matches_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            spec = random_spec(rng)
            t = int(rng.integers(1, 40))
            prof = total_density(spec, t)
            target = evolve_direct(spec, t).density()
            assert np.max(np.abs(prof.rho - target)) < 1e-11

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleParamsError):
            total_density(EffectiveParams(0.9, 0.0, 0.0, 0.5, 0.4, 0.0), 3)

    def test_paper_signs_skews_total(self):
        eff = derive_effective(WalkSpec(a=1.0, b=0.0, c0=1.0 + 0j, c1=0j))
        prof = total_density(eff, 1, paper_signs=True)
        # Printed coefficients at x = 1: even part 1/2 plus odd part 3/2,
        # so the reconstructed rho exceeds the site's total probability.
        assert abs(prof.rho_odd[2] - 1.5) < 1e-12
        assert abs(prof.rho[2] - 2.0) < 1e-12
        assert abs(prof.rho[0] + 1.0) < 1e-12
        assert np.max(np.abs(prof.rho0 + prof.rho1 - np.array([0.0, 0.0, 1.0]))) < 1e-12

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=-0.45, max_value=0.45),
        st.floats(min_value=-0.9, max_value=0.9),
        st.integers(min_value=1, max_value=25),
    )
    def test_affine_structure_in_nu_alpha(self, abs_a, nu, frac, t):
        # rho is affine in (nu, alpha): the four-point combination cancels.
        alpha = frac * max_alpha(abs_a, nu)
        b = math.sqrt(1 - abs_a**2)

        def rho(n, al):
            return total_density(EffectiveParams(abs_a, 0.0, b, n, al, 0.0), t).rho

        lhs = rho(nu, alpha) - rho(0.0, alpha) - rho(nu, 0.0) + rho(0.0, 0.0)
        assert np.max(np.abs(lhs)) < 1e-12
