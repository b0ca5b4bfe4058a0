"""Chebyshev evaluation, foundation tables, and the exact coefficient rows."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qwalk1d import (
    ResourceLimitError,
    chebyshev_u,
    foundation_polynomial,
    foundation_table,
    lattice_rows,
    polynomial_row_recursion,
    polynomial_table,
    u_by_quadrature,
)
from qwalk1d.foundation import (
    ROW_BLOCK,
    PolynomialRow,
    _fourier_rows,
    lattice_row_batch,
)

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def at(table, s: int, x: int) -> float:
    """u_s(|a| : x) read from a foundation table's padded row."""
    return float(table.row(s)[x + table.half])


class TestChebyshev:
    def test_degree_one(self):
        assert chebyshev_u(1, 0.25) == 0.5

    def test_boundary_cases(self):
        assert chebyshev_u(-1, 0.7) == 0.0
        assert chebyshev_u(0, 0.7) == 1.0
        with pytest.raises(ValueError):
            chebyshev_u(-2, 0.0)

    def test_value_at_one_counts_degree(self):
        for n in range(12):
            assert chebyshev_u(n, 1.0) == n + 1

    def test_sine_ratio_identity(self):
        # sin(t theta) = U_{t-1}(cos theta) sin(theta)
        theta, t = 0.3, 7
        lhs = math.sin(t * theta)
        rhs = chebyshev_u(t - 1, math.cos(theta)) * math.sin(theta)
        assert abs(lhs - rhs) < 1e-13

    def test_vectorized_matches_scalar(self):
        y = np.linspace(-1.0, 1.0, 11)
        vec = chebyshev_u(6, y)
        assert all(abs(vec[i] - chebyshev_u(6, float(v))) < 1e-14 for i, v in enumerate(y))


class TestFoundationTable:
    def test_first_rows(self):
        for abs_a in (0.0, 0.3, INV_SQRT2, 1.0):
            table = foundation_table(abs_a, 2)
            assert at(table, 0, 0) == 1.0
            assert at(table, -1, 0) == 0.0
            assert at(table, 1, 1) == abs_a
            assert at(table, 1, -1) == abs_a
            assert abs(at(table, 2, 0) - (2 * abs_a**2 - 1)) < 1e-15
            assert abs(at(table, 2, 2) - abs_a**2) < 1e-15

    def test_unit_coin_rows_are_flat(self):
        table = foundation_table(1.0, 30)
        for t in (1, 7, 30):
            for x in range(-t, t + 1):
                expected = 1.0 if (x - t) % 2 == 0 else 0.0
                assert at(table, t, x) == expected

    def test_zero_coin_rows_alternate(self):
        table = foundation_table(0.0, 12)
        for t in range(13):
            for x in range(-12, 13):
                if t % 2 == 1 or x != 0:
                    assert at(table, t, x) == 0.0
            if t % 2 == 0:
                assert at(table, t, 0) == (-1.0) ** (t // 2)

    def test_even_symmetry_and_parity_support(self):
        table = foundation_table(0.62, 25)
        for t in range(26):
            row = table.row(t)
            assert np.array_equal(row, row[::-1])
            for x in range(-25, 26):
                if (x - t) % 2 != 0 or abs(x) > t:
                    assert at(table, t, x) == 0.0

    def test_rows_are_immutable(self):
        table = foundation_table(0.5, 4)
        with pytest.raises(ValueError):
            table.row(2)[0] = 1.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            foundation_table(1.2, 5)
        with pytest.raises(ValueError):
            foundation_table(0.5, -1)
        table = foundation_table(0.5, 3)
        with pytest.raises(ValueError):
            table.row(5)


class TestPolynomialRows:
    def test_edge_row_is_pure_power(self):
        for t in (1, 4, 9):
            row = foundation_polynomial(t, t)
            assert row.coeffs == (1,)
            assert row.powers == (t,)

    def test_next_to_edge_row(self):
        for t in (2, 5, 8):
            row = foundation_polynomial(t, t - 2)
            assert row.coeffs == (t, -(t - 1))

    def test_small_printed_style_rows(self):
        assert foundation_polynomial(4, 0).coeffs == (6, -6, 1)
        assert foundation_polynomial(5, 1).coeffs == (10, -12, 3)
        assert foundation_polynomial(6, 0).coeffs == (20, -30, 12, -1)
        assert foundation_polynomial(6, 2).coeffs == (15, -20, 6)

    def test_even_in_site_index(self):
        assert foundation_polynomial(7, -3) == foundation_polynomial(7, 3)

    def test_parity_violation_rejected(self):
        with pytest.raises(ValueError):
            foundation_polynomial(4, 1)
        with pytest.raises(ValueError):
            foundation_polynomial(3, 5)

    def test_unit_evaluation_exact(self):
        for t in range(16):
            for k in range(t % 2, t + 1, 2):
                assert foundation_polynomial(t, k).evaluate(Fraction(1)) == 1

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            foundation_polynomial(10_001, 1)
        with pytest.raises(ResourceLimitError):
            polynomial_table(10_001)

    def test_evaluate_matches_table(self):
        # Full contract domain: every supported site up to t = 50.
        for abs_a in (0.0, 0.3, INV_SQRT2, 0.95, 1.0):
            table = foundation_table(abs_a, 50)
            for t in range(51):
                for k in range(t % 2, t + 1, 2):
                    poly = float(foundation_polynomial(t, k).evaluate(abs_a))
                    assert abs(poly - at(table, t, k)) < 1e-12


class TestRowRecursion:
    def test_first_recursed_row(self):
        rows = polynomial_row_recursion(
            (PolynomialRow(t=1, k=1, coeffs=(1,)),),
            (PolynomialRow(t=0, k=0, coeffs=(1,)),),
        )
        by_k = {r.k: r for r in rows}
        assert by_k[0].coeffs == (2, -1)
        assert by_k[2].coeffs == (1,)

    def test_degree_six_row(self):
        table = polynomial_table(6)
        by_k = {r.k: r for r in table[6]}
        assert by_k[2].coeffs == (15, -20, 6)

    def test_recursion_agrees_with_series(self):
        for t, rows in enumerate(polynomial_table(25)):
            for row in rows:
                assert row == foundation_polynomial(t, row.k)

    def test_rejects_inconsistent_rows(self):
        with pytest.raises(ValueError):
            polynomial_row_recursion(
                (PolynomialRow(t=2, k=0, coeffs=(2, -1)),),
                (PolynomialRow(t=0, k=0, coeffs=(1,)),),
            )


class TestQuadrature:
    def test_time_zero_is_delta(self):
        assert abs(u_by_quadrature(0.8, 0, 0) - 1.0) < 1e-15
        assert abs(u_by_quadrature(0.8, 0, 3)) < 1e-15

    def test_known_value(self):
        # t = 3, x = 1 at the balanced coin: 3 y^3 - 2 y at y = 1/sqrt2
        expected = 3 * INV_SQRT2**3 - 2 * INV_SQRT2
        assert abs(u_by_quadrature(INV_SQRT2, 3, 1) - expected) < 1e-14
        assert abs(expected + 1 / (2 * math.sqrt(2))) < 1e-15

    def test_insufficient_grid_warns(self):
        with pytest.warns(RuntimeWarning):
            u_by_quadrature(0.5, 10, 5, n_points=12)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    def test_agrees_with_table(self, abs_a, t, x):
        # Explicit grid: the default 4t + 4 only resolves |x| <= 3t + 3,
        # and the far off-support sites here exceed that.
        n = 2 * (t + abs(x)) + 2
        table = foundation_table(abs_a, t, pad=max(1, abs(x) - t + 1))
        assert abs(u_by_quadrature(abs_a, t, x, n_points=n) - at(table, t, x)) < 1e-12


def table_tolerance(t: int) -> float:
    """Bound on |lattice_rows - foundation_table| at time t.

    The table's own recursion error dominates: near |a| = 1 it grows like
    t^2, up to 3.0e-11 at t = 2000 around |a| = 1 - 1e-11, where the
    exact series puts the kernel within 1.2e-14. Elsewhere the two agree
    to ~4e-14 at t = 2000. The bound keeps a 3x margin over the worst.
    """
    return 1e-13 + 1e-10 * (t / 2000) ** 2


def window_deviation(abs_a: float, t: int) -> float:
    rows = lattice_rows(abs_a, t)
    table = foundation_table(abs_a, max(t, 1))
    h = table.half
    return max(
        float(np.max(np.abs(rows[s - t + 2] - table.row(s)[h - t - 1 : h + t + 2])))
        for s in range(max(t - 2, -1), t + 1)
    )


class TestLatticeRows:
    @settings(max_examples=25)
    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=0, max_value=2000))
    def test_agrees_with_table(self, abs_a, t):
        assert window_deviation(abs_a, t) <= table_tolerance(t)

    @pytest.mark.parametrize("abs_a", [0.0, 1 - 1e-6, 1 - 1e-12, 1.0])
    @pytest.mark.parametrize("t", [0, 1, 2, 7, 400, 2000])
    def test_edge_coins(self, abs_a, t):
        assert window_deviation(abs_a, t) <= table_tolerance(t)

    def test_endpoint_coins_are_exact(self):
        for abs_a in (0.0, 1.0):
            table = foundation_table(abs_a, 60)
            for t in (1, 2, 3, 4, 59, 60):
                assert np.array_equal(lattice_rows(abs_a, t), table.window(t))

    def test_parity_zeros_and_evenness_are_exact(self):
        for abs_a, t in ((0.3, 9), (0.8, 10), (INV_SQRT2, 301)):
            rows = lattice_rows(abs_a, t)
            x = np.arange(-(t + 1), t + 2)
            for s, row in zip((t - 2, t - 1, t), rows):
                assert np.array_equal(row, row[::-1])
                assert np.all(row[(x - s) % 2 != 0] == 0.0)
            for s, row in zip((t - 1, t), rows[1:]):
                assert np.all(row[np.abs(x) > s] == 0.0)

    def test_quadrature_and_exact_series(self):
        for abs_a in (0.3, INV_SQRT2, 0.95):
            for t in (3, 40, 121):
                rows = lattice_rows(abs_a, t)
                for k in range(t % 2, t + 1, max(2, 2 * (t // 8))):
                    value = rows[2, t + 1 + k]
                    assert abs(value - u_by_quadrature(abs_a, t, k)) < 1e-13
                    assert abs(value - foundation_polynomial(t, k).evaluate(abs_a)) < 1e-13

    def test_accurate_where_the_table_drifts(self):
        # At |a| = 1 - 1e-11 the table recursion is off by ~6e-12 at t = 1000
        abs_a, t = 1 - 1e-11, 1000
        rows = lattice_rows(abs_a, t)
        for k in (0, 250, 998):
            assert abs(rows[2, t + 1 + k] - foundation_polynomial(t, k).evaluate(abs_a)) < 1e-13

    def test_window_interface(self):
        rows = lattice_rows(0.5, 6)
        assert rows.shape == (3, 2 * 7 + 1)
        with pytest.raises(ValueError):
            rows[2, 0] = 1.0

    @pytest.mark.parametrize("abs_a", [math.nan, math.inf, -math.inf, -0.1, 1.1])
    def test_rejects_bad_abs_a_like_the_table(self, abs_a):
        with pytest.raises(ValueError) as table_error:
            foundation_table(abs_a, 3)
        with pytest.raises(ValueError) as kernel_error:
            lattice_rows(abs_a, 3)
        assert str(kernel_error.value) == str(table_error.value)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            lattice_rows(0.5, -1)
        with pytest.raises(ValueError):
            lattice_row_batch([0.5], -1)

    @pytest.mark.parametrize("t", [1, 2, 50, 200, 1000])
    def test_batch_is_bit_identical_to_lattice_rows(self, t):
        # One coin more than the fit's chunk of ROW_BLOCK sites, both endpoints included
        coins = np.linspace(0.0, 1.0, ROW_BLOCK // (2 * t + 3) + 2)
        batch = lattice_row_batch(coins, t)
        assert batch.shape == (3, len(coins), 2 * t + 3)
        fourier = _fourier_rows(coins[1:-1, None], t)
        for j, abs_a in enumerate(coins.tolist()):
            assert batch[:, j].tobytes() == lattice_rows(abs_a, t).tobytes()
            if 0 < j < len(coins) - 1:
                assert fourier[j - 1].tobytes() == _fourier_rows(abs_a, t).tobytes()

    def test_batch_rejects_bad_abs_a(self):
        for abs_a in (math.nan, -0.1, 1.1):
            with pytest.raises(ValueError):
                lattice_row_batch(np.array([0.5, abs_a]), 3)
