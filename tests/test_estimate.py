"""Parameter estimation from position histograms."""

import functools
import math

import numpy as np
import pytest

from qwalk1d import (
    EmpiricalHistogram,
    UnderdeterminedError,
    WalkSpec,
    fit_symmetry_params,
    fit_walk,
    foundation_table,
    max_alpha,
    second_moment,
    total_density,
    validate_effective,
)
from qwalk1d import estimate
from qwalk1d.density import density_shapes
from qwalk1d.estimate import (
    _boundary_objective,
    _brent,
    _golden_section,
    _inner_fits,
    _invert,
    _law,
    _second_moments,
    _weights,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)
REFERENCE_POINTS = 201  # the full-range grid of step 0.005 the reference tests scan


def profile_histogram(abs_a, nu, alpha, t):
    spec = WalkSpec.from_symmetry(abs_a, nu, alpha)
    return EmpiricalHistogram.from_profile(total_density(spec, t))


class TestHistogram:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            EmpiricalHistogram(t=2, counts=np.array([0.5, 0.5]))

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalHistogram(t=1, counts=np.array([0.5, -0.1, 0.6]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            EmpiricalHistogram(t=1, counts=np.array([0.5, bad, 0.6]))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalHistogram(t=1, counts=np.zeros(3))

    def test_from_pairs(self):
        hist = EmpiricalHistogram.from_pairs(2, [(2, 3.0), (-2, 1.0)])
        assert np.array_equal(hist.counts, [1.0, 0.0, 0.0, 0.0, 3.0])
        probs = hist.probabilities()
        assert abs(probs.sum() - 1.0) < 1e-15
        assert abs(probs[-1] - 0.75) < 1e-15

    def test_from_pairs_rejects_off_lattice(self):
        with pytest.raises(ValueError):
            EmpiricalHistogram.from_pairs(2, [(3, 1.0)])

    def test_multinomial_reproducible(self):
        prof = total_density(WalkSpec.hadamard(), 6)
        h1 = EmpiricalHistogram.multinomial(prof, 500, seed=9)
        h2 = EmpiricalHistogram.multinomial(prof, 500, seed=9)
        assert np.array_equal(h1.counts, h2.counts)
        assert float(h1.counts.sum()) == 500.0


class TestInnerFit:
    def test_noiseless_round_trip(self):
        hist = profile_histogram(INV_SQRT2, 0.3, 0.1, 50)
        nu, alpha, rss = fit_symmetry_params(hist, INV_SQRT2)
        assert abs(nu - 0.3) < 1e-9
        assert abs(alpha - 0.1) < 1e-9
        assert rss < 1e-18

    def test_even_histogram_gives_origin(self):
        hist = profile_histogram(0.6, 0.0, 0.0, 30)
        nu, alpha, _ = fit_symmetry_params(hist, 0.6)
        assert abs(nu) < 1e-10
        assert abs(alpha) < 1e-10

    def test_unit_coin_delta(self):
        counts = np.zeros(11)
        counts[-1] = 1.0
        hist = EmpiricalHistogram(t=5, counts=counts)
        nu, alpha, _ = fit_symmetry_params(hist, 1.0)
        assert abs(nu - 0.5) < 1e-6
        assert alpha == 0.0
        assert validate_effective(nu, alpha, 1.0)

    def test_time_zero_rejected(self):
        hist = EmpiricalHistogram(t=0, counts=np.ones(1))
        with pytest.raises(UnderdeterminedError):
            fit_symmetry_params(hist, 0.5)

    def test_frozen_coin_even_time_underdetermined(self):
        # |a| = 0, even t: the density is one central spike however the
        # walk starts, so no site responds to (nu, alpha).
        hist = profile_histogram(0.0, 0.2, 0.0, 4)
        with pytest.raises(UnderdeterminedError):
            fit_symmetry_params(hist, 0.0)

    def test_bad_weighting_rejected(self):
        hist = profile_histogram(0.5, 0.1, 0.0, 10)
        with pytest.raises(ValueError):
            fit_symmetry_params(hist, 0.5, weighting="cauchy")

    def test_bad_abs_a_rejected(self):
        hist = profile_histogram(0.5, 0.1, 0.0, 10)
        with pytest.raises(ValueError):
            fit_symmetry_params(hist, 1.5)

    def test_infeasible_target_projects_to_boundary(self):
        # A delta at x = t cannot come from any feasible (nu, alpha) at a
        # mid-range coin; the fit must return a reachable point anyway.
        counts = np.zeros(21)
        counts[-1] = 1.0
        hist = EmpiricalHistogram(t=10, counts=counts)
        nu, alpha, _ = fit_symmetry_params(hist, 0.6)
        assert validate_effective(nu, alpha, 0.6)
        assert 4 * nu**2 + alpha**2 / (1 - 0.36) <= 1.0 + 1e-9

    def test_poisson_weighting_round_trip(self):
        hist = profile_histogram(0.45, -0.2, 0.1, 40)
        nu, alpha, _ = fit_symmetry_params(hist, 0.45, weighting="poisson")
        assert abs(nu + 0.2) < 1e-8
        assert abs(alpha - 0.1) < 1e-8

    def test_residual_is_global_minimum(self):
        hist = profile_histogram(0.7, 0.15, -0.2, 25)
        _, _, best = fit_symmetry_params(hist, 0.7)
        rng = np.random.default_rng(61)
        probs = hist.probabilities()
        for _ in range(50):
            nu = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1, 1)) * max_alpha(0.7, nu)
            model = total_density(WalkSpec.from_symmetry(0.7, nu, alpha), 25).rho
            rss = float(np.sum((probs - model) ** 2))
            assert rss >= best - 1e-15

    def test_collinear_bases_take_the_boundary_refit(self):
        # At t = 2 the two bases live on x = +-2 only, collinear for every
        # |a|. Here both normal-equation numerators cancel to 0 at |a| = 0.993;
        # a closed-form solve there gave (0, 0) and residual 0.49 against
        # ~3e-4 at |a| = 0.9925 and 0.9935.
        counts = np.array([0.70749, 0.00338, 2.1e-13, 0.00651, 2.28e-5])
        hist = EmpiricalHistogram(t=2, counts=counts)
        nu, alpha, best = fit_symmetry_params(hist, 0.993, weighting="poisson")
        assert validate_effective(nu, alpha, 0.993)
        neighbours = [fit_symmetry_params(hist, a, "poisson")[2] for a in (0.9925, 0.9935)]
        assert best <= max(neighbours)
        rng = np.random.default_rng(2)
        probs = hist.probabilities()
        for _ in range(200):
            nu = float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1, 1)) * max_alpha(0.993, nu)
            model = total_density(WalkSpec.from_symmetry(0.993, nu, alpha), 2).rho
            assert float(np.sum((probs - model) ** 2)) >= best - 1e-15


class TestOuterFit:
    def test_noiseless_round_trip(self):
        hist = profile_histogram(0.6, -0.2, 0.15, 50)
        res = fit_walk(hist)
        assert abs(res.abs_a_hat - 0.6) < 1e-3
        assert abs(res.nu_hat + 0.2) < 1e-6
        assert abs(res.alpha_hat - 0.15) < 1e-6
        assert res.residual < 1e-12
        assert res.feasible

    def test_unit_coin_recovered(self):
        counts = np.zeros(41)
        counts[-1] = 1.0
        hist = EmpiricalHistogram(t=20, counts=counts)
        res = fit_walk(hist)
        assert res.abs_a_hat >= 0.999

    def test_short_walks_rejected(self):
        hist = EmpiricalHistogram(t=1, counts=np.array([0.25, 0.0, 0.75]))
        with pytest.raises(UnderdeterminedError):
            fit_walk(hist)

    def test_multinomial_noise_stays_sane(self):
        prof = total_density(WalkSpec.from_symmetry(0.55, 0.25, -0.1), 40)
        hist = EmpiricalHistogram.multinomial(prof, 10_000, seed=123)
        res = fit_walk(hist)
        errs = (
            abs(res.abs_a_hat - 0.55),
            abs(res.nu_hat - 0.25),
            abs(res.alpha_hat + 0.1),
        )
        print(
            f"multinomial 1e4 draws: errors abs_a {errs[0]:.4f} "
            f"nu {errs[1]:.4f} alpha {errs[2]:.4f}"
        )
        assert errs[0] < 0.1 and errs[1] < 0.15 and errs[2] < 0.2
        assert res.feasible

    @pytest.mark.parametrize("t, fits", [(1000, 40), (2000, 12)])
    def test_wide_counted_draws_at_large_t_reach_the_truth(self, t, fits):
        # The wide draw at large t, where a fixed 0.005 grid stopped in a
        # local minimum (at draws 39 of t = 1000, and 0 and 10 of t = 2000).
        rng = np.random.default_rng(1)
        for k in range(fits):
            abs_a, nu = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1.0, 1.0)) * max_alpha(abs_a, nu)
            prof = total_density(WalkSpec.from_symmetry(abs_a, nu, alpha), t)
            hist = EmpiricalHistogram.multinomial(prof, 20_000, seed=int(rng.integers(2**32)))
            res = fit_walk(hist, weighting="poisson")
            w = _weights(hist, "poisson")
            truth = float(np.sum(w * (hist.probabilities() - prof.rho) ** 2))
            assert res.residual <= truth * (1.0 + 1e-6) + 1e-9, (k, abs_a, res)


def moment_coin(m, t):
    """|a| with m(|a|) = m, as fit_walk inverts it."""
    def law(a):
        return _law(float(_second_moments(a, t)[0]), t)

    return _invert(law, _law(m, t), 0.0, law(0.0), 1.0, 0.0, 1e-14)


def record_coins(monkeypatch):
    """The |a| batches fit_walk hands to _inner_fits, one list per call."""
    batches = []

    def recording(p, w, abs_a, t):
        batches.append(abs_a.tolist())
        return _inner_fits(p, w, abs_a, t)

    monkeypatch.setattr(estimate, "_inner_fits", recording)
    return batches


class TestMomentBracket:
    MOMENT_TIMES = list(range(2, 81)) + [100, 200, 500, 1000, 2000]

    @pytest.mark.parametrize("t", MOMENT_TIMES)
    def test_second_moment_rises_strictly_with_abs_a(self, t):
        grid = np.linspace(0.0, 1.0, 2001)
        m = np.concatenate([_second_moments(chunk, t) for chunk in np.array_split(grid, 8)])
        assert np.all(np.diff(m) > 0.0)
        assert m[-1] == t * t

    @pytest.mark.parametrize("t", [2, 3, 10, 51, 200, 1000])
    def test_second_moment_matches_moments_module(self, t):
        grid = np.linspace(0.0, 1.0, 41)
        m = _second_moments(grid, t)
        ref = np.array([second_moment(float(a), t) for a in grid])
        assert np.max(np.abs(m - ref)) <= 1e-12 * t * t

    @pytest.mark.parametrize("t", [2, 7, 50, 200, 1000])
    def test_inversion_recovers_abs_a_from_a_noiseless_moment(self, t):
        for abs_a in (0.0, 0.05, 0.15, 0.5, 0.77, 0.92, 0.999, 1.0):
            m = float(_second_moments(abs_a, t)[0])
            assert abs(moment_coin(m, t) - abs_a) <= 1e-12
        assert moment_coin(-1.0, t) == 0.0 and moment_coin(t * t + 1.0, t) == 1.0

    def test_bracket_holds_the_generating_abs_a(self, monkeypatch):
        batches = record_coins(monkeypatch)
        rng = np.random.default_rng(21)
        for k in range(210):
            t = (50, 100, 200)[k % 3]
            abs_a, nu = float(rng.uniform(0.0, 1.0)), float(rng.uniform(-0.5, 0.5))
            alpha = float(rng.uniform(-1.0, 1.0)) * max_alpha(abs_a, nu)
            prof = total_density(WalkSpec.from_symmetry(abs_a, nu, alpha), t)
            hist = EmpiricalHistogram.multinomial(prof, 20_000, seed=k)
            batches.clear()
            fit_walk(hist, weighting="poisson")
            # Every coin fit_walk tries lies inside the grid it scans
            coins = [a for batch in batches for a in batch]
            assert min(coins) <= abs_a <= max(coins), (k, abs_a, min(coins), max(coins))

    def test_edge_winner_widens_the_grid(self, monkeypatch):
        # With no moment spread the grid is only a_m +- 2h; few draws put the
        # residual's minimum beyond it, so the winner lands on an edge.
        prof = total_density(WalkSpec.from_symmetry(0.6, 0.3, -0.2), 200)
        hist = EmpiricalHistogram.multinomial(prof, 300, seed=2)
        full = fit_walk(hist, weighting="poisson")
        monkeypatch.setattr(estimate, "MOMENT_SIGMAS", 0.0)
        batches = record_coins(monkeypatch)
        narrow = fit_walk(hist, weighting="poisson")
        assert len(batches[0]) == 4 and len(batches[1]) == 3  # the a_m +- 2h grid, then one step out
        assert narrow.residual <= full.residual * (1.0 + 1e-12)


class TestGoldenSection:
    def test_quadratic_minimum(self):
        lo, hi = _golden_section(lambda x: (x - 0.37) ** 2, 0.0, 1.0, 1e-9)
        assert hi - lo < 1e-8
        assert abs((lo + hi) / 2 - 0.37) < 1e-6


class TestBrent:
    def test_quadratic_minimum_in_few_steps(self):
        calls = []

        def fn(x):
            calls.append(x)
            return (x - 0.37) ** 2

        x, fx = _brent(fn, 0.0, 0.5, 1.0, fn(0.5), 1e-9)
        assert abs(x - 0.37) <= 1e-9 and fx == (x - 0.37) ** 2
        assert len(calls) <= 10  # a parabola is exact after the first fit

    @pytest.mark.parametrize("start", [0.0, 0.2, 0.9, 1.0])
    def test_agrees_with_golden_section(self, start):
        def fn(x):
            return math.cosh(3.0 * (x - 0.613)) - 0.4 * x

        x_min = 0.613 + math.asinh(0.4 / 3.0) / 3.0
        lo, hi = _golden_section(fn, 0.0, 1.0, 1e-8)
        x, _ = _brent(fn, 0.0, start, 1.0, fn(start), 1e-8)
        assert abs(0.5 * (lo + hi) - x_min) <= 5e-9
        assert abs(x - x_min) <= 5e-9

    def test_minimum_on_the_bracket_edge(self):
        x, _ = _brent(lambda x: x, 0.0, 0.005, 0.01, 0.005, 1e-6)
        assert 0.0 <= x <= 5e-7


def reference_boundary(r, b_nu, b_al, abs_a, w):
    """The boundary refit by direct weighted sums: a 721-point scan, then golden section."""
    semi = math.sqrt(max(0.0, 1.0 - abs_a * abs_a))
    if semi == 0.0:
        denom = float(np.sum(w * b_nu * b_nu))
        if denom == 0.0:
            return 0.0, 0.0
        return max(-0.5, min(0.5, float(np.sum(w * r * b_nu)) / denom)), 0.0

    def direct(theta):
        diff = r - 0.5 * math.cos(theta) * b_nu - semi * math.sin(theta) * b_al
        return float(np.sum(w * diff * diff))

    grid = np.linspace(0.0, 2.0 * math.pi, 721)
    diff = r - 0.5 * np.cos(grid)[:, None] * b_nu - semi * np.sin(grid)[:, None] * b_al
    i = int(np.argmin(np.sum(w * diff * diff, axis=-1)))
    lo, hi = _golden_section(direct, grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)], 1e-10)
    theta = 0.5 * (lo + hi)
    nu, alpha = 0.5 * math.cos(theta), semi * math.sin(theta)
    return nu, math.copysign(min(abs(alpha), max_alpha(abs_a, nu)), alpha)


def reference_bases(abs_a, t):
    """(rho_even, b_nu, b_al) on foundation_table rows."""
    rho_even, rho_sq, rho_mi = density_shapes(foundation_table(abs_a, t).window(t))
    return rho_even, 2.0 * abs_a * rho_mi - rho_sq, rho_mi


def reference_inner(p, w, abs_a, bases):
    """One inner fit as the parent ran it, by lstsq: (nu, alpha, residual, blind)."""
    rho_even, b_nu, b_al = bases
    r = p - rho_even
    if np.count_nonzero((b_nu != 0.0) | (b_al != 0.0)) < 2:
        return 0.0, 0.0, float(np.sum(w * r * r)), True
    sw = np.sqrt(w)
    sol, _, rank, _ = np.linalg.lstsq(np.column_stack([sw * b_nu, sw * b_al]), sw * r, rcond=None)
    nu, alpha = float(sol[0]), float(sol[1])
    if rank < 2 or not validate_effective(nu, alpha, abs_a):
        nu, alpha = reference_boundary(r, b_nu, b_al, abs_a, w)
    diff = r - nu * b_nu - alpha * b_al
    return nu, alpha, float(np.sum(w * diff * diff)), False


@functools.cache
def grid_bases(t):
    return [reference_bases(float(abs_a), t) for abs_a in np.linspace(0.0, 1.0, REFERENCE_POINTS)]


def fit_inputs():
    """Criterion 8's noiseless grid at t = 50, then seeded fit_histograms-style inputs."""
    for abs_a in (0.15, 0.35, 0.55, 0.75, 0.92):
        for nu in (-0.45, -0.2, 0.0, 0.25, 0.45):
            for frac in (-0.9, -0.4, 0.0, 0.5, 0.9):
                yield profile_histogram(abs_a, nu, frac * max_alpha(abs_a, nu), 50), "none"
    rng = np.random.default_rng(4711)
    for k in range(36):
        t = (50, 100, 200)[k % 3]
        abs_a, nu = rng.uniform(0.1, 0.95), rng.uniform(-0.45, 0.45)
        alpha = rng.uniform(-0.9, 0.9) * max_alpha(abs_a, nu)
        prof = total_density(WalkSpec.from_symmetry(abs_a, nu, alpha), t)
        if k % 2:
            yield EmpiricalHistogram.multinomial(prof, 20_000, seed=k), "poisson"
        else:
            yield EmpiricalHistogram.from_profile(prof), "none"


class TestBatchedInnerFit:
    def test_grid_matches_the_lstsq_reference(self):
        # Stated tolerance: |residual - reference| <= 1e-10 reference + 1e-20;
        # the reference's table rows differ from the kernel's by ~1e-15.
        for hist, weighting in fit_inputs():
            p, w = hist.probabilities(), _weights(hist, weighting)
            grid = np.linspace(0.0, 1.0, REFERENCE_POINTS)
            _, _, res, informative = _inner_fits(p, w, grid, hist.t)
            ref = np.array([reference_inner(p, w, float(a), bases)
                            for a, bases in zip(grid, grid_bases(hist.t))])
            assert np.all(np.abs(res - ref[:, 2]) <= 1e-10 * ref[:, 2] + 1e-20)
            assert int(np.argmin(res)) == int(np.argmin(ref[:, 2]))
            assert np.array_equal(informative < 2, ref[:, 3] == 1.0)

    def test_chunks_match_one_coin_calls_bit_for_bit(self):
        prof = total_density(WalkSpec.from_symmetry(0.63, 0.2, -0.1), 200)
        hist = EmpiricalHistogram.multinomial(prof, 20_000, seed=3)
        p, w = hist.probabilities(), _weights(hist, "poisson")
        grid = np.linspace(0.0, 1.0, REFERENCE_POINTS)  # 40 coins a chunk at t = 200
        batched = np.array(_inner_fits(p, w, grid, 200))
        for j in range(len(grid)):
            single = np.array(_inner_fits(p, w, grid[j : j + 1], 200))
            assert single[:, 0].tobytes() == batched[:, j].tobytes()

    def test_quadratic_form_equals_the_direct_sum(self):
        counts = np.zeros(41)
        counts[-1] = 3.0
        counts[5] = 1.0
        hist = EmpiricalHistogram(t=20, counts=counts)
        for abs_a, weighting in ((0.6, "none"), (0.3, "poisson"), (0.97, "none")):
            p, w = hist.probabilities(), _weights(hist, weighting)
            rho_even, b_nu, b_al = reference_bases(abs_a, 20)
            r = p - rho_even
            sums = np.array([np.sum(w * u * v) for u, v in
                             ((b_nu, b_nu), (b_nu, b_al), (b_al, b_al), (b_nu, r), (b_al, r))])
            semi = math.sqrt(1.0 - abs_a * abs_a)
            theta = np.linspace(0.0, 2.0 * math.pi, 97)[:, None]
            diff = r - 0.5 * np.cos(theta) * b_nu - semi * np.sin(theta) * b_al
            direct = np.sum(w * diff * diff, axis=-1)
            quadratic = np.sum(w * r * r) + _boundary_objective(
                sums, semi, np.cos(theta[:, 0]), np.sin(theta[:, 0]))
            assert np.all(np.abs(quadratic - direct) <= 1e-12 * direct)

    @pytest.mark.parametrize("abs_a, t", [(1.0, 20), (1.0, 21), (0.0, 21), (0.0, 20)])
    def test_edge_coins_keep_the_reference_results(self, abs_a, t):
        # |a| = 1: collinear bases, a clamped fit on alpha = 0. |a| = 0: odd t
        # has b_al = 0 (refit on the ellipse); even t is blind, (0, 0).
        prof = total_density(WalkSpec.from_symmetry(0.55, 0.3, 0.2), t)
        hist = EmpiricalHistogram.multinomial(prof, 5_000, seed=t)
        p, w = hist.probabilities(), _weights(hist, "poisson")
        got = [float(v[0]) for v in _inner_fits(p, w, np.array([abs_a]), t)]
        ref = reference_inner(p, w, abs_a, reference_bases(abs_a, t))
        assert got[3] < 2 if ref[3] else got[3] >= 2
        # A golden section pins a flat minimum's theta only to ~sqrt(eps)
        assert abs(got[0] - ref[0]) <= 1e-7 and abs(got[1] - ref[1]) <= 1e-7
        assert abs(got[2] - ref[2]) <= 1e-12 * ref[2]
        if ref[3]:
            assert got[:3] == [0.0, 0.0, ref[2]]
            with pytest.raises(UnderdeterminedError):
                fit_symmetry_params(hist, abs_a, weighting="poisson")

    def test_fit_result_holds_python_scalars(self):
        prof = total_density(WalkSpec.from_symmetry(0.7, 0.1, 0.2), 47)
        for hist, weighting in ((EmpiricalHistogram.from_profile(prof), "none"),
                                (EmpiricalHistogram.multinomial(prof, 20_000, seed=5), "poisson"),
                                (EmpiricalHistogram.multinomial(prof, 20_000, seed=6), "none")):
            res = fit_walk(hist, weighting=weighting)
            assert [type(v) for v in (res.abs_a_hat, res.nu_hat, res.alpha_hat, res.residual)] \
                == [float] * 4
            assert type(res.feasible) is bool
