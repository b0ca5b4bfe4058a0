"""Moment formulas: density sums, closed forms, and exact rational routes."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qwalk1d import (
    InfeasibleParamsError,
    ResourceLimitError,
    WalkSpec,
    derive_effective,
    first_moment,
    first_moment_exact,
    max_alpha,
    moment_curves,
    moment_from_density,
    moment_report,
    normalization_identity,
    normalization_identity_exact,
    normalized_second,
    odd_moment,
    second_moment,
    second_moment_exact,
    total_density,
    variance,
)
from qwalk1d.foundation import foundation_polynomial
from qwalk1d.moments import MAX_CURVE_POINTS, _cumulative_sums, _legendre_jacobi

INV_SQRT2 = 1.0 / math.sqrt(2.0)

# Second moments at small t are even polynomials in |a|.
SECOND_MOMENT_POLYS = {
    1: lambda a: 1.0,
    2: lambda a: 4 * a**2,
    3: lambda a: 8 * a**4 + 1,
    4: lambda a: 24 * a**6 - 24 * a**4 + 16 * a**2,
    5: lambda a: 80 * a**8 - 128 * a**6 + 72 * a**4 + 1,
    6: lambda a: 280 * a**10 - 600 * a**8 + 464 * a**6 - 144 * a**4 + 36 * a**2,
}


class TestMomentFromDensity:
    def test_zeroth_is_mass(self):
        prof = total_density(WalkSpec.hadamard(), 9)
        assert abs(moment_from_density(prof, 0) - 1.0) < 1e-12

    def test_hadamard_two_steps(self):
        prof = total_density(WalkSpec.hadamard(), 2)
        assert abs(moment_from_density(prof, 1)) < 1e-14
        assert abs(moment_from_density(prof, 2) - 2.0) < 1e-14

    def test_even_profile_kills_odd_moments(self):
        prof = total_density(WalkSpec.from_symmetry(0.61, 0.0, 0.0), 15)
        for n in (1, 3, 5):
            assert abs(moment_from_density(prof, n)) < 1e-11

    def test_negative_order_rejected(self):
        prof = total_density(WalkSpec.hadamard(), 2)
        with pytest.raises(ValueError):
            moment_from_density(prof, -1)


class TestNormalization:
    def test_float_residual_small(self):
        for abs_a in (0.0, 0.35, INV_SQRT2, 0.97, 1.0):
            for t in (1, 3, 10, 41):
                assert normalization_identity(abs_a, t) < 1e-12

    def test_exact_rational_route(self):
        for abs_a in (Fraction(0), Fraction(3, 7), Fraction(1, 2), Fraction(1)):
            for t in range(2, 26):
                assert normalization_identity_exact(abs_a, t) == 0


class TestSecondMoment:
    def test_small_time_polynomials(self):
        for t, poly in SECOND_MOMENT_POLYS.items():
            for abs_a in np.linspace(0.0, 1.0, 21):
                assert abs(second_moment(float(abs_a), t) - poly(abs_a)) < 1e-12

    def test_unit_coin_is_ballistic(self):
        for t in range(1, 101):
            assert abs(second_moment(1.0, t) - t * t) < 1e-12 * max(1.0, t * t)

    def test_hadamard_four_steps(self):
        assert abs(second_moment(INV_SQRT2, 4) - 5.0) < 1e-13

    def test_exact_route_matches_float(self):
        for abs_a in (Fraction(1, 2), Fraction(2, 3), Fraction(1)):
            for t in (1, 2, 5, 9, 16):
                ex = second_moment_exact(abs_a, t)
                fl = second_moment(float(abs_a), t)
                assert abs(float(ex) - fl) < 1e-11
        assert second_moment_exact(Fraction(1, 2), 5) == Fraction(61, 16)

    def test_matches_density_sum(self):
        rng = np.random.default_rng(47)
        for _ in range(8):
            abs_a = float(rng.uniform(0, 1))
            nu = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1, 1)) * max_alpha(abs_a, nu)
            t = int(rng.integers(1, 45))
            prof = total_density(WalkSpec.from_symmetry(abs_a, nu, alpha), t)
            assert abs(second_moment(abs_a, t) - moment_from_density(prof, 2)) < 1e-10


class TestOddMoments:
    def test_unit_coin_first_moment(self):
        for nu in (-0.5, -0.2, 0.0, 0.3, 0.5):
            for t in (1, 4, 17, 60):
                assert abs(odd_moment(1.0, nu, 0.0, t, 0) - 2 * nu * t) < 1e-11 * max(1, t)

    def test_symmetric_parameters_vanish(self):
        for t in (1, 2, 7):
            assert odd_moment(0.77, 0.0, 0.0, t, 0) == 0.0
            assert odd_moment(0.77, 0.0, 0.0, t, 1) == 0.0

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleParamsError):
            odd_moment(0.9, 0.5, 0.4, 3, 0)

    def test_single_step_closed_form(self):
        # t = 1: <x> = 4 nu |a|^2 - 2 nu + 2 alpha |a|, straight from the sums.
        rng = np.random.default_rng(59)
        for _ in range(10):
            abs_a = float(rng.uniform(0, 1))
            nu = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1, 1)) * max_alpha(abs_a, nu)
            want = 4 * nu * abs_a**2 - 2 * nu + 2 * alpha * abs_a
            assert abs(odd_moment(abs_a, nu, alpha, 1, 0) - want) < 1e-13
        # Hadamard start (1, 0): nu = 1/2, alpha = 0 -> mean 0 at t = 1.
        assert abs(first_moment(INV_SQRT2, 0.5, 0.0, 1)) < 1e-15

    def test_matches_density_sums(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            abs_a = float(rng.uniform(0, 1))
            nu = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1, 1)) * max_alpha(abs_a, nu)
            t = int(rng.integers(1, 40))
            prof = total_density(WalkSpec.from_symmetry(abs_a, nu, alpha), t)
            want = moment_from_density(prof, 1)
            assert abs(first_moment(abs_a, nu, alpha, t) - want) < 1e-10
            want3 = moment_from_density(prof, 3)
            assert abs(odd_moment(abs_a, nu, alpha, t, 1) - want3) < 1e-9 * max(1, t**3)

    def test_exact_first_moment(self):
        val = first_moment_exact(Fraction(1, 2), Fraction(1, 4), Fraction(0), 5)
        assert abs(float(val) - first_moment(0.5, 0.25, 0.0, 5)) < 1e-12
        # alpha enters linearly: nu = 0 leaves a pure alpha multiple of S_mi.
        half_alpha = first_moment_exact(Fraction(1, 2), Fraction(0), Fraction(1, 4), 3)
        full_alpha = first_moment_exact(Fraction(1, 2), Fraction(0), Fraction(1, 2), 3)
        assert half_alpha * 2 == full_alpha

    def test_paper_signs_alpha_flip(self):
        plus = odd_moment(0.6, 0.1, 0.2, 4, 0)
        minus = odd_moment(0.6, 0.1, 0.2, 4, 0, paper_signs=True)
        base = odd_moment(0.6, 0.1, 0.0, 4, 0)
        assert abs((plus - base) + (minus - base)) < 1e-13
        assert abs(plus - minus) > 1e-3

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            odd_moment(0.5, 0.1, 0.0, 0, 0)
        with pytest.raises(ValueError):
            odd_moment(0.5, 0.1, 0.0, 3, -1)


class TestVarianceAndScaling:
    def test_degenerate_coins(self):
        assert abs(variance(0.0, 0.2, 0.0, 8)) < 1e-12
        assert abs(variance(1.0, 0.5, 0.0, 25)) < 1e-10

    def test_matches_density(self):
        prof = total_density(WalkSpec.hadamard(), 4)
        m1 = moment_from_density(prof, 1)
        m2 = moment_from_density(prof, 2)
        assert abs(variance(INV_SQRT2, 0.5, 0.0, 4) - (m2 - m1 * m1)) < 1e-10

    def test_normalized_second_endpoints(self):
        for t in (1, 2, 5, 24):
            assert abs(normalized_second(1.0, t) - 1.0) < 1e-12
        for t in (1, 3, 9):
            assert abs(normalized_second(0.0, t) - 1.0 / t**2) < 1e-14
        for t in (2, 4, 10):
            assert abs(normalized_second(0.0, t)) < 1e-14


class TestMomentReport:
    def test_fields_consistent(self):
        rep = moment_report(WalkSpec.from_symmetry(0.62, 0.25, 0.1), 12)
        assert rep.t == 12
        assert abs(rep.variance - (rep.second - rep.mean**2)) < 1e-13
        assert abs(rep.normalized_second - rep.second / 144) < 1e-15

    def test_time_zero(self):
        rep = moment_report(WalkSpec.hadamard(), 0)
        assert rep.mean == 0.0
        assert rep.second == 0.0


def assert_curves_close(mean, second, mean_ref, second_ref):
    # The closed forms sum in another order than the per-t lattice sums:
    # allow |d mean| <= 1e-12 t and |d second| <= 1e-12 t^2 (worst seen ~1e-13).
    t = np.arange(1, len(mean) + 1, dtype=float).reshape((-1,) + (1,) * (np.ndim(mean) - 1))
    assert np.all(np.abs(mean - mean_ref) <= 1e-12 * t)
    assert np.all(np.abs(second - second_ref) <= 1e-12 * t**2)


def report_curves(eff, t_max):
    reports = [moment_report(eff, t) for t in range(1, t_max + 1)]
    return [r.mean for r in reports], [r.second for r in reports]


class TestMomentCurves:
    def test_matches_per_time_reports(self):
        rng = np.random.default_rng(20070)
        for t_max in (1, 2, 3, 57, 1000):
            abs_a = float(rng.uniform(0.0, 1.0))
            nu = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1.0, 1.0)) * max_alpha(abs_a, nu)
            eff = derive_effective(WalkSpec.from_symmetry(abs_a, nu, alpha))
            mean, second = moment_curves(eff.abs_a, eff.nu, eff.alpha, t_max)
            assert mean.shape == second.shape == (t_max,)
            assert_curves_close(mean, second, *report_curves(eff, t_max))

    @pytest.mark.parametrize("abs_a", [0.0, 1e-9, 0.4999, 0.5, 1.0 - 1e-8, 1.0])
    def test_both_alpha_branches_match_reports(self, abs_a):
        # alpha at its maximum weighs the alpha coefficient most: the Jacobi
        # form below |a| = 1/2, the Legendre form from 1/2 on.
        nu, t_max = -0.2, 1000
        eff = derive_effective(WalkSpec.from_symmetry(abs_a, nu, max_alpha(abs_a, nu)))
        mean, second = moment_curves(eff.abs_a, eff.nu, eff.alpha, t_max)
        assert_curves_close(mean, second, *report_curves(eff, t_max))
        # a smaller coin reaches the same alpha, so the two share one batch
        batch = moment_curves(np.array([eff.abs_a, 0.5 * eff.abs_a]), eff.nu, eff.alpha, t_max)
        assert np.array_equal(batch[0][:, 0], mean) and np.array_equal(batch[1][:, 0], second)

    def test_batched_coins_match_scalar_calls(self):
        grid = np.linspace(0.0, 1.0, 11)
        nu, alpha, t_max = 0.3, 0.0, 120
        mean, second = moment_curves(grid, nu, alpha, t_max)
        assert mean.shape == second.shape == (t_max, 11)
        for j, abs_a in enumerate(grid):
            assert_curves_close(mean[:, j], second[:, j], *moment_curves(abs_a, nu, alpha, t_max))

    def test_endpoint_coins(self):
        t = np.arange(1, 201, dtype=float)
        mean, second = moment_curves(np.array([0.0, 1.0]), 0.5, 0.0, 200)
        assert np.all(np.abs(second[:, 1] / t**2 - 1.0) <= 1e-12)
        assert np.all(np.abs(second - mean**2) <= 1e-10)

    def test_time_zero_is_empty(self):
        mean, second = moment_curves(0.4, 0.1, 0.0, 0)
        assert mean.shape == second.shape == (0,)
        mean, second = moment_curves(np.linspace(0.0, 1.0, 5), 0.1, 0.0, 0)
        assert mean.shape == second.shape == (0, 5)
        with pytest.raises(ValueError):
            moment_curves(0.4, 0.1, 0.0, -1)

    def test_infeasible_rejected(self):
        with pytest.raises(InfeasibleParamsError):
            moment_curves(np.array([0.2, 1.0]), 0.3, 0.1, 4)

    def test_memory_does_not_grow_with_the_grid(self):
        # 1001 coins at t = 100: one unchunked 3-row block would be 4.9 MB.
        # Beyond the two returned (100, 1001) curves, the chunked blocks
        # keep the working set to ~max(2^14, 3 (2t + 3)) doubles.
        tracemalloc.start()
        try:
            mean, second = moment_curves(np.linspace(0.0, 1.0, 1001), 0.1, 0.0, 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - mean.nbytes - second.nbytes < 1_000_000


class TestCurveIdentities:
    @pytest.mark.parametrize("abs_a", [Fraction(0), Fraction(1, 3), Fraction(5, 7),
                                       Fraction(99, 100), Fraction(1)])
    def test_exact_at_rational_coins(self, abs_a):
        # The helpers of moment_curves, run on Fractions: every identity of
        # the moments docstring holds exactly for t <= 40.
        t_max = 40
        leg, jac = [None] * t_max, [None] * t_max
        _legendre_jacobi(2 * abs_a * abs_a - 1, leg, jac)
        for k in range(t_max // 2):
            assert leg[k] == foundation_polynomial(2 * k, 0).evaluate(abs_a)
            assert abs_a * jac[k] == foundation_polynomial(2 * k + 1, 1).evaluate(abs_a)
        lam, d, e, c = _cumulative_sums(np.array(leg, dtype=object), np.array(jac, dtype=object))
        b2 = 1 - abs_a * abs_a
        for t in range(1, t_max + 1):
            s_mi = first_moment_exact(abs_a, Fraction(0), Fraction(1), t) / 2
            s_sq = 2 * abs_a * s_mi - first_moment_exact(abs_a, Fraction(1), Fraction(0), t) / 2
            assert second_moment_exact(abs_a, t) == t * t - 4 * b2 * e[t - 1]
            assert s_sq == lam[t - 1]
            assert s_mi == abs_a * (d[t - 1] - c[t - 1])
            assert 2 * abs_a * s_mi == t + lam[t - 1] - 2 * b2 * d[t - 1]

    def test_resource_ceiling_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError):
                moment_curves(np.linspace(0.0, 1.0, 101), 0.0, 0.0, MAX_CURVE_POINTS // 100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        with pytest.raises(InfeasibleParamsError):  # validation comes first
            moment_curves(np.array([0.5, 1.5]), 0.0, 0.0, MAX_CURVE_POINTS)


class TestLargeTimeEnvelope:
    @pytest.mark.parametrize("abs_a", [0.3, INV_SQRT2, 0.9])
    def test_mass_positivity_and_long_time_law(self, abs_a):
        # At t = 10^5 the table would need ~160 GB and the step oracle takes
        # minutes, so mass, positivity and the long-time law
        # <x^2>/t^2 -> 1 - sqrt(1 - |a|^2) (Nayak & Vishwanath,
        # quant-ph/0010117) check the FFT rows. The law's gap closes as
        # O(1/t^2): 6.8e-11 at |a| = 0.9 here.
        t = 100_000
        nu = 0.2
        spec = WalkSpec.from_symmetry(abs_a, nu, 0.5 * max_alpha(abs_a, nu))
        rho = total_density(spec, t).rho
        assert abs(float(np.sum(rho)) - 1.0) <= 1e-9
        assert float(np.min(rho)) >= -1e-12
        law = 1.0 - math.sqrt(1.0 - abs_a**2)
        assert abs(second_moment(abs_a, t) / t**2 - law) <= 1e-9

    @pytest.mark.parametrize("abs_a", [0.3, INV_SQRT2, 0.9])
    def test_curves_at_large_time(self, abs_a):
        # Three times up to 10^5 against the per-t FFT reports, and both large-t
        # laws: <x>/t -> (2 nu + alpha/|a|)(1 - b) (Konno, J. Math. Soc. Japan
        # 57 (2005) 1179) with a gap below 0.2/t here, and <x^2>/t^2 -> 1 - b.
        t_max, nu = 100_000, 0.2
        eff = derive_effective(WalkSpec.from_symmetry(abs_a, nu, 0.5 * max_alpha(abs_a, nu)))
        mean, second = moment_curves(eff.abs_a, eff.nu, eff.alpha, t_max)
        for t in (1_000, 54_321, t_max):
            rep = moment_report(eff, t)
            assert abs(mean[t - 1] - rep.mean) <= 1e-12 * t
            assert abs(second[t - 1] - rep.second) <= 1e-12 * t**2
        b = math.sqrt(1.0 - eff.abs_a**2)
        law = (2.0 * eff.nu + eff.alpha / eff.abs_a) * (1.0 - b)
        assert abs(mean[-1] / t_max - law) <= 1.0 / t_max
        assert abs(second[-1] / t_max**2 - (1.0 - b)) <= 1.0 / t_max**2
