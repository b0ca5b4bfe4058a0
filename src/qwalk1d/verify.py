"""Self-contained verification sweep: closed forms versus brute force.

Runs the oracle-equivalence and identity checks over seeded random walk
specs and reports one entry per check with its worst residual. The
documented published divergences are included as separate entries that
pass when the divergence reproduces (printed value differs, implemented
value matches the oracle), so a regression in either direction is caught.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import errata
from .closedform import half_trace, evolution_operator, momentum_wavefunction, position_wavefunction
from .density import even_density, total_density
from .direct import evolve_direct, evolve_momentum_direct, step_matrix
from .foundation import foundation_polynomial, polynomial_table
from .moments import (
    first_moment,
    moment_from_density,
    normalization_identity,
    second_moment,
)
from .params import WalkSpec, derive_effective

DEFAULT_SEED = 20260815
DEFAULT_T_MAX = 64
DEFAULT_N_SPECS = 25


def random_spec(rng: np.random.Generator) -> WalkSpec:
    """One uniformly-phased normalized spec (coin and spinor)."""
    a_abs = math.sqrt(rng.uniform())
    c0_abs = math.sqrt(rng.uniform())
    pa, pb, p0, p1, k = rng.uniform(-math.pi, math.pi, size=5)
    return WalkSpec(
        a=a_abs * np.exp(1j * pa),
        b=math.sqrt(1.0 - a_abs**2) * np.exp(1j * pb),
        k=float(k),
        c0=c0_abs * np.exp(1j * p0),
        c1=math.sqrt(1.0 - c0_abs**2) * np.exp(1j * p1),
    )


def run_verification(
    t_max: int = DEFAULT_T_MAX,
    n_specs: int = DEFAULT_N_SPECS,
    seed: int = DEFAULT_SEED,
    paper_signs: bool = False,
) -> dict:
    """Execute the full check battery; returns a JSON-ready report."""
    if t_max < 1:
        raise ValueError(f"t_max must be >= 1, got {t_max}")
    if n_specs < 0:
        raise ValueError(f"n_specs must be >= 0, got {n_specs}")
    rng = np.random.default_rng(seed)
    specs = [random_spec(rng) for _ in range(n_specs)]
    specs.append(WalkSpec.hadamard())
    specs.append(WalkSpec(a=1.0, b=0.0, c0=1.0, c1=0.0))
    specs.append(WalkSpec(a=0.0, b=1.0, c0=0.6, c1=0.8j))
    ladder = sorted({t for t in (1, 2, 5, 16, 64, 128) if t <= t_max} | {t_max})

    checks: list[dict] = []

    def record(name: str, residual: float, tolerance: float) -> None:
        checks.append(
            {
                "name": name,
                "max_residual": float(residual),
                "tolerance": float(tolerance),
                "passed": bool(residual <= tolerance),
            }
        )

    # Amplitude-level equivalence and density decomposition against brute force
    amp = 0.0
    decomp = 0.0
    parity = 0.0
    mom1 = 0.0
    mom2 = 0.0
    for spec in specs:
        eff = derive_effective(spec)
        for t in ladder:
            direct = evolve_direct(spec, t)
            closed = position_wavefunction(spec, t)
            amp = max(
                amp,
                float(np.max(np.abs(direct.psi0 - closed.psi0))),
                float(np.max(np.abs(direct.psi1 - closed.psi1))),
            )
            rho = direct.density()
            profile = total_density(eff, t)
            decomp = max(decomp, float(np.max(np.abs(profile.rho - rho))))
            even_part = 0.5 * (rho + rho[::-1])
            odd_part = 0.5 * (rho - rho[::-1])
            decomp = max(
                decomp,
                float(np.max(np.abs(profile.rho_even - even_part))),
                float(np.max(np.abs(profile.rho_odd - odd_part))),
            )
            parity = max(
                parity,
                float(np.max(np.abs(profile.rho_even - profile.rho_even[::-1]))),
                float(np.max(np.abs(profile.rho_odd + profile.rho_odd[::-1]))),
            )
            x = direct.positions.astype(float)
            mom1 = max(mom1, abs(first_moment(eff.abs_a, eff.nu, eff.alpha, t)
                                 - float(np.sum(x * rho))))
            mom2 = max(mom2, abs(second_moment(eff.abs_a, t) - float(np.sum(x * x * rho))))
    record("amplitudes: closed form vs step iteration", amp, 1e-10)
    record("density: even/odd reconstruction vs oracle", decomp, 1e-10)
    record("density: even part even, odd part odd", parity, 1e-12)
    record("first moment: closed form vs density sum", mom1, 1e-9)
    record("second moment: closed form vs density sum", mom2, 1e-9)

    # Momentum space: operator vs repeated matrix product, and both spinors
    op_res = 0.0
    mom_res = 0.0
    trace_res = 0.0
    t_op = min(17, t_max)
    for spec in specs[:10]:
        phases = rng.uniform(-math.pi, math.pi, size=4)
        direct_mom = evolve_momentum_direct(spec, t_op, grid_size=2 * t_op + 2)
        closed_mom = momentum_wavefunction(spec, t_op, grid_size=2 * t_op + 2)
        mom_res = max(
            mom_res,
            float(np.max(np.abs(direct_mom.phi0 - closed_mom.phi0))),
            float(np.max(np.abs(direct_mom.phi1 - closed_mom.phi1))),
        )
        for p in phases:
            sample = evolution_operator(spec, float(p), t_op)
            product = np.eye(2, dtype=complex)
            s = step_matrix(spec, np.array([float(p)]))[0]
            for _ in range(t_op):
                product = s @ product
            product *= np.exp(1j * t_op * spec.k)
            op_res = max(op_res, float(np.max(np.abs(sample.matrix - product))))
            trace_res = max(
                trace_res,
                abs(half_trace(spec, float(p))
                    - abs(spec.a) * math.cos(float(p) - np.angle(spec.a))),
            )
    record("evolution operator: Chebyshev form vs matrix power", op_res, 1e-11)
    record("momentum spinors: closed form vs step iteration", mom_res, 1e-11)
    record("half trace equals |a| cos(p - d)", trace_res, 1e-13)

    # Exact identities
    unit_bad = 0
    t_unit = min(40, max(t_max, 10))
    for t in range(t_unit + 1):
        for k in range(t % 2, t + 1, 2):
            if foundation_polynomial(t, k).evaluate(Fraction(1)) != 1:
                unit_bad += 1
    record(f"coefficient rows evaluate to 1 at |a| = 1 (t <= {t_unit})", float(unit_bad), 0.0)

    series_vs_rec = 0
    t_cross = min(40, max(t_max, 10))
    for t, rows in enumerate(polynomial_table(t_cross)):
        for row in rows:
            if row != foundation_polynomial(t, row.k):
                series_vs_rec += 1
    record(f"power series equals recursion rows (t <= {t_cross})", float(series_vs_rec), 0.0)

    norm_res = 0.0
    t_norm = min(60, max(t_max, 10))
    for abs_a in np.linspace(0.0, 1.0, 10):
        for t in (2, 3, 5, 9, 17, 33, t_norm):
            if t <= t_norm:
                norm_res = max(norm_res, normalization_identity(float(abs_a), t))
    record(f"normalization identity (t <= {t_norm}, 10 |a| values)", norm_res, 1e-12)

    ballistic = 0.0
    for t in range(1, 101):
        ballistic = max(ballistic, abs(second_moment(1.0, t) - t * t) / (t * t))
    record("ballistic bound: <x^2> = t^2 at |a| = 1 (t <= 100)", ballistic, 1e-12)

    even_norm = 0.0
    for abs_a in (0.0, 0.3, 1 / math.sqrt(2), 0.95, 1.0):
        for t in (1, 2, 17, 64):
            even_norm = max(even_norm, abs(float(np.sum(even_density(abs_a, t))) - 1.0))
    record("even part carries all probability mass", even_norm, 1e-12)

    divergences = []
    witnesses = errata._witnesses()
    for rec in errata.RECORDS:
        reproduced, values = witnesses[rec.key]
        entry = {
            "key": rec.key,
            "reproduced": reproduced,
            "test_id": rec.test_id,
        }
        if paper_signs:
            entry.update(values)
        divergences.append(entry)

    passed = all(c["passed"] for c in checks) and all(d["reproduced"] for d in divergences)
    return {
        "seed": seed,
        "t_max": t_max,
        "n_specs": n_specs,
        "paper_signs": paper_signs,
        "checks": checks,
        "documented_divergences": divergences,
        "passed": bool(passed),
    }
