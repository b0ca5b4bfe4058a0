"""Acceptance gate: the nine headline guarantees, one printed line each.

Run as part of the normal suite; each test prints a [PASS]/[FAIL] line
(visible even without -s) and then asserts, so the gate both reports and
fails loudly. Tolerances and runtime budgets are part of the guarantees.
"""

import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from qwalk1d import (
    WalkSpec,
    EffectiveParams,
    even_density,
    evolve_direct,
    first_moment,
    fit_walk,
    foundation_polynomial,
    max_alpha,
    normalization_identity,
    odd_moment,
    polynomial_table,
    position_wavefunction,
    second_moment,
    total_density,
    variance,
)
from qwalk1d.cli import main
from qwalk1d.errata import balanced_first_moment_values, quartic_centre_values
from qwalk1d.estimate import EmpiricalHistogram

from conftest import random_spec

INV_SQRT2 = 1.0 / math.sqrt(2.0)

TIME_LADDER = (1, 2, 5, 16, 64, 128)

SECOND_MOMENT_POLYS = {
    1: lambda a: 1.0,
    2: lambda a: 4 * a**2,
    3: lambda a: 8 * a**4 + 1,
    4: lambda a: 24 * a**6 - 24 * a**4 + 16 * a**2,
    5: lambda a: 80 * a**8 - 128 * a**6 + 72 * a**4 + 1,
    6: lambda a: 280 * a**10 - 600 * a**8 + 464 * a**6 - 144 * a**4 + 36 * a**2,
}


def report(capsys, label, ok):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}")


def test_criterion_1_amplitude_equivalence(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(50):
        spec = random_spec(rng)
        for t in TIME_LADDER:
            direct = evolve_direct(spec, t)
            closed = position_wavefunction(spec, t)
            worst = max(
                worst,
                float(np.max(np.abs(direct.psi0 - closed.psi0))),
                float(np.max(np.abs(direct.psi1 - closed.psi1))),
            )
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-11 and elapsed <= 60.0
    report(
        capsys,
        f"criterion 1: closed-form amplitudes match step iteration for 50 specs, "
        f"t up to 128 (max |diff| {worst:.2e}, {elapsed:.1f}s)",
        ok,
    )
    assert worst <= 1e-11
    assert elapsed <= 60.0


def test_criterion_2_second_moment_polynomials(capsys):
    poly_worst = 0.0
    for t, poly in SECOND_MOMENT_POLYS.items():
        for abs_a in np.linspace(0.0, 1.0, 20):
            poly_worst = max(
                poly_worst, abs(second_moment(float(abs_a), t) - poly(abs_a))
            )
    oracle_worst = 0.0
    for abs_a in (0.0, 0.3, INV_SQRT2, 0.9, 1.0):
        for nu, frac in ((0.0, 0.0), (0.3, 0.7), (-0.45, -0.5)):
            spec = WalkSpec.from_symmetry(abs_a, nu, frac * max_alpha(abs_a, nu))
            for t in range(1, 7):
                field = evolve_direct(spec, t)
                x = field.positions.astype(float)
                target = float(np.sum(x * x * field.density()))
                oracle_worst = max(
                    oracle_worst, abs(second_moment(abs_a, t) - target)
                )
    ok = poly_worst <= 1e-12 and oracle_worst <= 1e-10
    report(
        capsys,
        f"criterion 2: small-t second-moment polynomials (poly resid "
        f"{poly_worst:.2e}, oracle resid {oracle_worst:.2e})",
        ok,
    )
    assert poly_worst <= 1e-12
    assert oracle_worst <= 1e-10


def test_criterion_3_ballistic_boundary_laws(capsys):
    second_worst = 0.0
    mean_worst = 0.0
    for t in range(1, 101):
        second_worst = max(
            second_worst, abs(second_moment(1.0, t) - t * t) / (t * t)
        )
        for nu in (-0.5, -0.25, 0.0, 0.25, 0.5):
            mean_worst = max(
                mean_worst, abs(odd_moment(1.0, nu, 0.0, t, 0) - 2 * nu * t) / t
            )
    ok = second_worst <= 1e-12 and mean_worst <= 1e-12
    report(
        capsys,
        f"criterion 3: |a| = 1 gives <x^2> = t^2 and <x> = 2 nu t up to t = 100 "
        f"(residuals {second_worst:.2e}, {mean_worst:.2e})",
        ok,
    )
    assert second_worst <= 1e-12
    assert mean_worst <= 1e-12


def test_criterion_4_exact_identities(capsys):
    unit_ok = all(
        foundation_polynomial(t, k).evaluate(Fraction(1)) == 1
        for t in range(41)
        for k in range(t % 2, t + 1, 2)
    )
    norm_worst = 0.0
    for abs_a in np.linspace(0.0, 1.0, 10):
        for t in range(1, 61):
            norm_worst = max(norm_worst, normalization_identity(float(abs_a), t))
    recursion_ok = all(
        row == foundation_polynomial(t, row.k)
        for t, rows in enumerate(polynomial_table(40))
        for row in rows
    )
    ok = unit_ok and norm_worst <= 1e-12 and recursion_ok
    report(
        capsys,
        f"criterion 4: exact coefficient-row identities (unit rows {unit_ok}, "
        f"normalization resid {norm_worst:.2e}, series == recursion {recursion_ok})",
        ok,
    )
    assert unit_ok
    assert norm_worst <= 1e-12
    assert recursion_ok


def test_criterion_5_density_decomposition(capsys):
    rng = np.random.default_rng(5)
    recon_worst = 0.0
    parity_worst = 0.0
    for _ in range(20):
        spec = random_spec(rng)
        t = int(rng.integers(1, 65))
        prof = total_density(spec, t)
        rho = evolve_direct(spec, t).density()
        recon_worst = max(recon_worst, float(np.max(np.abs(prof.rho - rho))))
        parity_worst = max(
            parity_worst,
            float(np.max(np.abs(prof.rho_even - prof.rho_even[::-1]))),
            float(np.max(np.abs(prof.rho_odd + prof.rho_odd[::-1]))),
        )
    affine_worst = 0.0
    for abs_a in (0.25, 0.65, 0.9):
        b = math.sqrt(1.0 - abs_a**2)
        for t in (1, 7, 24):

            def rho_of(n, al):
                eff = EffectiveParams(abs_a, 0.0, b, n, al, 0.0)
                return total_density(eff, t).rho

            for nu, frac in ((0.4, 0.6), (-0.3, -0.8), (0.15, 0.25)):
                alpha = frac * max_alpha(abs_a, nu)
                four = (
                    rho_of(nu, alpha) - rho_of(0.0, alpha)
                    - rho_of(nu, 0.0) + rho_of(0.0, 0.0)
                )
                affine_worst = max(affine_worst, float(np.max(np.abs(four))))
    ok = recon_worst <= 1e-11 and parity_worst <= 1e-12 and affine_worst <= 1e-12
    report(
        capsys,
        f"criterion 5: even/odd decomposition (oracle resid {recon_worst:.2e}, "
        f"parity resid {parity_worst:.2e}, affine resid {affine_worst:.2e})",
        ok,
    )
    assert recon_worst <= 1e-11
    assert parity_worst <= 1e-12
    assert affine_worst <= 1e-12


def test_criterion_6_figure_scale_properties(capsys, tmp_path):
    # Symmetrized balanced-coin walk at t = 100: the headline distribution.
    rho = even_density(INV_SQRT2, 100)
    sym = float(np.max(np.abs(rho - rho[::-1])))
    mass = abs(float(np.sum(rho)) - 1.0)
    x = np.arange(-100, 101)
    peak = int(x[int(np.argmax(rho))])
    peaks_ok = 60 <= abs(peak) <= 80
    # Data grids behind the sweep plots must emit cleanly.
    sweep_jobs = (
        ["sweep", "--kind", "moments", "--t", "20", "--grid", "21",
         "--output", str(tmp_path / "m.csv")],
        ["sweep", "--kind", "variance", "--t", "20", "--grid", "21",
         "--nu", "0.5", "--alpha", "0", "--output", str(tmp_path / "v.csv")],
        ["sweep", "--kind", "density", "--t", "60", "--nu-list", "0,0.25,0.5",
         "--a-abs", str(INV_SQRT2), "--output", str(tmp_path / "d.csv")],
    )
    emits = [
        main(argv) == 0 and len(Path(argv[-1]).read_text().splitlines()) > 1
        for argv in sweep_jobs
    ]
    emits_ok = all(emits)
    # Variance endpoints: frozen and shift-only coins are deterministic.
    var_worst = 0.0
    for t in (10, 50, 100):
        var_worst = max(
            var_worst,
            abs(variance(0.0, 0.5, 0.0, t)),
            abs(variance(1.0, 0.5, 0.0, t)),
        )
    ok = sym <= 1e-12 and mass <= 1e-12 and peaks_ok and emits_ok and var_worst <= 1e-10
    report(
        capsys,
        f"criterion 6: t = 100 balanced even walk (symmetry {sym:.2e}, mass defect "
        f"{mass:.2e}, peak |x| = {abs(peak)}), sweeps emit, variance endpoints "
        f"{var_worst:.2e}",
        ok,
    )
    assert sym <= 1e-12
    assert mass <= 1e-12
    assert peaks_ok
    assert all(emits)
    assert var_worst <= 1e-10


def test_criterion_7_published_divergences(capsys):
    printed_row, resolved_row = quartic_centre_values()
    printed_mean, resolved_mean, oracle_mean = balanced_first_moment_values()
    ok = (
        printed_row == 19
        and resolved_row == 1
        and abs(printed_mean + 1.0) < 1e-12
        and abs(resolved_mean - 1.0) < 1e-12
        and abs(oracle_mean - 1.0) < 1e-12
    )
    report(
        capsys,
        f"criterion 7: published variants reproduce (row {printed_row} vs {resolved_row}; "
        f"first moment {printed_mean:+.0f} vs oracle {oracle_mean:+.0f})",
        ok,
    )
    assert printed_row == 19 and resolved_row == 1
    assert abs(printed_mean + 1.0) < 1e-12
    assert abs(resolved_mean - 1.0) < 1e-12
    assert abs(oracle_mean - 1.0) < 1e-12


def test_criterion_8_estimation_round_trip(capsys):
    started = time.perf_counter()
    t = 50
    abs_a_grid = (0.15, 0.35, 0.55, 0.75, 0.92)
    nu_grid = (-0.45, -0.2, 0.0, 0.25, 0.45)
    frac_grid = (-0.9, -0.4, 0.0, 0.5, 0.9)
    worst = [0.0, 0.0, 0.0]
    for abs_a in abs_a_grid:
        for nu in nu_grid:
            for frac in frac_grid:
                alpha = frac * max_alpha(abs_a, nu)
                spec = WalkSpec.from_symmetry(abs_a, nu, alpha)
                hist = EmpiricalHistogram.from_profile(total_density(spec, t))
                res = fit_walk(hist)
                worst[0] = max(worst[0], abs(res.abs_a_hat - abs_a))
                worst[1] = max(worst[1], abs(res.nu_hat - nu))
                worst[2] = max(worst[2], abs(res.alpha_hat - alpha))
    elapsed = time.perf_counter() - started
    ok = worst[0] <= 1e-3 and worst[1] <= 1e-6 and worst[2] <= 1e-6 and elapsed <= 120.0
    report(
        capsys,
        f"criterion 8: noiseless 5x5x5 fit round-trip at t = 50 (errors "
        f"{worst[0]:.2e}/{worst[1]:.2e}/{worst[2]:.2e}, {elapsed:.1f}s)",
        ok,
    )
    assert worst[0] <= 1e-3
    assert worst[1] <= 1e-6
    assert worst[2] <= 1e-6
    assert elapsed <= 120.0


def test_criterion_9_moment_regimes(capsys):
    lo, hi = 0.0, -1.0
    for abs_a in np.linspace(0.0, 0.1, 6):
        for t in range(1, 31):
            mean = first_moment(float(abs_a), 0.5, 0.0, t)
            lo = min(lo, mean)
            hi = max(hi, mean)
    slow_ok = -1.01 <= lo and hi <= 0.01
    increasing_ok = True
    min_step = math.inf
    for abs_a in (0.8, 0.85, 0.9, 0.95, 1.0):
        means = [first_moment(abs_a, 0.5, 0.0, t) for t in range(1, 31)]
        steps = np.diff(means)
        min_step = min(min_step, float(steps.min()))
        if not np.all(steps > 0):
            increasing_ok = False
    ok = slow_ok and increasing_ok
    report(
        capsys,
        f"criterion 9: slow coins keep the mean in [-1.01, 0.01] "
        f"(range [{lo:.3f}, {hi:.3f}]); fast coins drift monotonically "
        f"(min step {min_step:.3f})",
        ok,
    )
    assert slow_ok
    assert increasing_ok
