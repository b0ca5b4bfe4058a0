"""The four benchmark workloads: seeded inputs, one timed call, its check.

Each workload yields its operations in cycles. A cycle is a fixed mix of
input sizes in a seeded order, with fresh seeded walk parameters, so
that any whole number of cycles carries the same amount of work. Inputs
come from ``numpy.random.default_rng(seed)`` in this file only; the
library sees nothing but the generated values.

An ``Op`` splits into ``run`` (the timed call into the public API) and
``check`` (run outside the timed interval). ``check`` returns the worst
absolute deviation it saw and raises ``CheckFailed`` when the result is
wrong.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import qwalk1d as qw
from qwalk1d import cli


class CheckFailed(AssertionError):
    """A result fell outside its correctness check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Op:
    """One closed-loop operation.

    ``sites`` counts the lattice values the operation hands back and
    ``rows`` the moment rows among them; ``output`` is the file a CLI
    operation writes. These feed the traced run's ratios.
    """

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], float]
    sites: int
    rows: int = 0
    output: Path | None = None


# Tolerances of the per-op checks. AMPLITUDE_TOL is the oracle gate of
# ``qwalk1d verify`` and FIT_ABS_A_TOL the bound of acceptance criterion 8
# in tests/test_acceptance.py. The others sit at least 100x above the
# largest deviation measured at these sizes.
AMPLITUDE_TOL = 1e-10
MASS_TOL = 1e-9
NEGATIVE_TOL = 1e-12
MOMENT_RTOL = 1e-9
FIT_ABS_A_TOL = 1e-3
FIT_RESIDUAL_RTOL = 1e-6
FIT_RESIDUAL_ATOL = 1e-9


def random_spec(rng: np.random.Generator) -> qw.WalkSpec:
    """A normalized walk with uniformly random phases."""
    a_abs = math.sqrt(rng.uniform(0.05, 0.95))
    c0_abs = math.sqrt(rng.uniform())
    pa, pb, p0, p1, k = (float(v) for v in rng.uniform(-math.pi, math.pi, size=5))
    return qw.WalkSpec(
        a=a_abs * complex(math.cos(pa), math.sin(pa)),
        b=math.sqrt(1.0 - a_abs**2) * complex(math.cos(pb), math.sin(pb)),
        k=k,
        c0=c0_abs * complex(math.cos(p0), math.sin(p0)),
        c1=math.sqrt(1.0 - c0_abs**2) * complex(math.cos(p1), math.sin(p1)),
    )


def random_symmetry(rng: np.random.Generator) -> tuple[float, float, float]:
    """A reachable (|a|, nu, alpha) away from the degenerate corners."""
    abs_a = float(rng.uniform(0.1, 0.95))
    nu = float(rng.uniform(-0.45, 0.45))
    alpha = float(rng.uniform(-0.9, 0.9)) * qw.max_alpha(abs_a, nu)
    return abs_a, nu, alpha


def moment_error(value: float, profile: qw.DensityProfile, n: int, what: str) -> float:
    """|value - sum x^n rho| / t^n, checked against MOMENT_RTOL.

    Scaling by t^n makes the deviation comparable with amplitude errors.
    """
    oracle = qw.moment_from_density(profile, n)
    err = abs(value - oracle) / max(1.0, float(profile.t) ** n)
    require(err <= MOMENT_RTOL, f"{what} at t = {profile.t}: {value!r} vs density sum {oracle!r}")
    return err


class Workload:
    """Base: ``cycle`` returns the next cycle of ops from the shared rng.

    ``scale="tiny"`` swaps in the class's ``TINY`` sizes (smoke test).
    """

    name = ""
    TINY: dict[str, Any] = {}

    def __init__(self, rng: np.random.Generator, workdir: Path, scale: str = "full"):
        self.rng = rng
        self.workdir = workdir
        self.count = 0
        for key, value in (self.TINY if scale == "tiny" else {}).items():
            setattr(self, key, value)

    def next_path(self, stem: str) -> Path:
        self.count += 1
        return self.workdir / f"{stem}-{self.count}.csv"

    def cycle(self) -> list[Op]:
        raise NotImplementedError


class LargeTProfiles(Workload):
    """Amplitudes, density and moments of one random walk at large t."""

    name = "large_t_profiles"
    LADDER = (500, 1000, 1500, 2000, 2500, 3000, 4000)
    TINY = {"LADDER": (20, 40, 60)}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.oracle_done: set[int] = set()

    def cycle(self) -> list[Op]:
        return [self.op(int(t)) for t in self.rng.permutation(self.LADDER)]

    def op(self, t: int) -> Op:
        spec = random_spec(self.rng)

        def run():
            return (qw.position_wavefunction(spec, t), qw.total_density(spec, t),
                    qw.moment_report(spec, t))

        def check(result) -> float:
            field, profile, report = result
            rho = profile.rho
            mass = abs(float(np.sum(rho)) - 1.0)
            require(mass <= MASS_TOL, f"t = {t}: |sum rho - 1| = {mass:.3e}")
            require(float(np.min(rho)) >= -NEGATIVE_TOL, f"t = {t}: min rho = {np.min(rho):.3e}")
            err = max(mass, float(np.max(np.abs(field.density() - rho))))
            require(err <= AMPLITUDE_TOL, f"t = {t}: |psi|^2 differs from rho by {err:.3e}")
            err = max(err, moment_error(report.mean, profile, 1, "<x>"),
                      moment_error(report.second, profile, 2, "<x^2>"))
            if t not in self.oracle_done:
                self.oracle_done.add(t)
                direct = qw.evolve_direct(spec, t)
                amp = max(float(np.max(np.abs(direct.psi0 - field.psi0))),
                          float(np.max(np.abs(direct.psi1 - field.psi1))))
                require(amp <= AMPLITUDE_TOL, f"t = {t}: amplitudes off the oracle by {amp:.3e}")
                err = max(err, amp)
            return err

        return Op(f"t={t}", run, check, sites=2 * (2 * t + 1) + 1, rows=1)


class FitHistograms(Workload):
    """Full (|a|, nu, alpha) fits of noiseless and counted histograms."""

    name = "fit_histograms"
    TIMES = (50, 100, 200)
    DRAWS = 20_000
    TINY = {"TIMES": (8,)}

    def cycle(self) -> list[Op]:
        kinds = [(t, noisy) for t in self.TIMES for noisy in (False, True)]
        return [self.op(*kinds[i]) for i in self.rng.permutation(len(kinds))]

    def op(self, t: int, noisy: bool) -> Op:
        abs_a, nu, alpha = random_symmetry(self.rng)
        profile = qw.total_density(qw.WalkSpec.from_symmetry(abs_a, nu, alpha), t)
        if noisy:
            seed = int(self.rng.integers(2**32))
            hist = qw.EmpiricalHistogram.multinomial(profile, self.DRAWS, seed=seed)
            weighting = "poisson"
        else:
            hist = qw.EmpiricalHistogram.from_profile(profile)
            weighting = "none"

        def run():
            return qw.fit_walk(hist, weighting=weighting)

        def check(fit: qw.FitResult) -> float:
            require(fit.feasible, f"t = {t}: infeasible fit {fit}")
            w = 1.0 / np.maximum(hist.counts, 1.0) if noisy else 1.0
            diff = hist.probabilities() - profile.rho
            truth = float(np.sum(w * diff * diff))
            slack = FIT_RESIDUAL_RTOL * truth + FIT_RESIDUAL_ATOL
            require(fit.residual <= truth + slack,
                    f"t = {t}: residual {fit.residual!r} above the truth's {truth!r}")
            if noisy:
                return 0.0
            err = abs(fit.abs_a_hat - abs_a)
            require(err <= FIT_ABS_A_TOL, f"t = {t}: |a| = {abs_a!r} fitted as {fit.abs_a_hat!r}")
            return err

        label = f"t={t},{'multinomial' if noisy else 'noiseless'}"
        return Op(label, run, check, sites=2 * t + 1)


def read_csv(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


class MomentCurves(Workload):
    """``moments --all-times`` and ``sweep`` through the in-process CLI."""

    name = "moment_curves"
    T_ALL = 1000
    T_SWEEP = 150
    GRID = 11
    SAMPLES = 3
    TINY = {"T_ALL": 12, "T_SWEEP": 6, "GRID": 3}

    def cycle(self) -> list[Op]:
        makers = (self.all_times, self.sweep_variance, self.sweep_moments)
        return [makers[i]() for i in self.rng.permutation(len(makers))]

    def cli_op(self, label: str, argv: list[str], sites: int, check) -> Op:
        out = self.next_path(label)
        argv = argv + ["--output", str(out)]

        def checked(code: int) -> float:
            require(code == 0, f"{' '.join(argv)} exited {code}")
            return check(read_csv(out))

        return Op(label, lambda: cli.main(argv), checked, sites=sites, rows=sites, output=out)

    def sampler(self):
        """Picks SAMPLES random rows and the last one, with its own rng."""
        rng = np.random.default_rng(int(self.rng.integers(2**32)))

        def sampled(rows: list[dict[str, str]]) -> list[dict[str, str]]:
            picks = rng.choice(len(rows), size=min(self.SAMPLES, len(rows)), replace=False)
            return [rows[i] for i in sorted(picks)] + [rows[-1]]

        return sampled

    def all_times(self) -> Op:
        abs_a, nu, alpha = random_symmetry(self.rng)
        eff = qw.derive_effective(qw.WalkSpec.from_symmetry(abs_a, nu, alpha))
        t_max = self.T_ALL
        sampled = self.sampler()

        def check(rows) -> float:
            require(len(rows) == t_max, f"moments: {len(rows)} rows, expected {t_max}")
            err = 0.0
            for row in sampled(rows):
                profile = qw.total_density(eff, int(row["t"]))
                err = max(err, moment_error(float(row["mean"]), profile, 1, "mean"),
                          moment_error(float(row["second"]), profile, 2, "second"))
            return err

        argv = ["moments", "--a-abs", repr(abs_a), "--nu", repr(nu), "--alpha", repr(alpha),
                "--t", str(t_max), "--all-times"]
        return self.cli_op("moments", argv, t_max, check)

    def sweep_rows(self, kind: str, nu: float) -> Op:
        t_max, grid = self.T_SWEEP, self.GRID
        sampled = self.sampler()

        def check(rows) -> float:
            require(len(rows) == t_max * grid, f"sweep {kind}: {len(rows)} rows")
            err = 0.0
            for row in sampled(rows):
                t, abs_a = int(row["t"]), float(row["abs_a"])
                spec = qw.WalkSpec.from_symmetry(abs_a, nu if kind == "variance" else 0.0, 0.0)
                profile = qw.total_density(spec, t)
                second = qw.moment_from_density(profile, 2)
                if kind == "variance":
                    mean = qw.moment_from_density(profile, 1)
                    value, oracle = float(row["normalized_variance"]), (second - mean**2) / t**2
                else:
                    value, oracle = float(row["normalized_second"]), second / t**2
                dev = abs(value - oracle)
                require(dev <= MOMENT_RTOL, f"sweep {kind} at t = {t}, |a| = {abs_a}: "
                                            f"{value!r} vs density sum {oracle!r}")
                err = max(err, dev)
            return err

        argv = ["sweep", "--kind", kind, "--t", str(t_max), "--grid", str(grid)]
        if kind == "variance":
            argv += ["--nu", repr(nu), "--alpha", "0"]
        return self.cli_op(f"sweep-{kind}", argv, t_max * grid, check)

    def sweep_variance(self) -> Op:
        return self.sweep_rows("variance", float(self.rng.uniform(-0.5, 0.5)))

    def sweep_moments(self) -> Op:
        return self.sweep_rows("moments", 0.0)


class VerifyBattery(Workload):
    """``qwalk1d verify`` with a fresh seed through the in-process CLI."""

    name = "verify_battery"
    T_MAX = 64
    N_SPECS = 25
    PER_CYCLE = 4
    TINY = {"T_MAX": 5, "N_SPECS": 2, "PER_CYCLE": 1}

    def cycle(self) -> list[Op]:
        return [self.op() for _ in range(self.PER_CYCLE)]

    def op(self) -> Op:
        out = self.next_path("verify")
        seed = int(self.rng.integers(2**31))
        argv = ["verify", "--tmax", str(self.T_MAX), "--n-specs", str(self.N_SPECS),
                "--seed", str(seed), "--output", str(out)]

        def check(code: int) -> float:
            report = json.loads(out.read_text())
            require(code == 0 and report["passed"] is True,
                    f"verify --seed {seed} exited {code}: "
                    f"{[c['name'] for c in report['checks'] if not c['passed']]}")
            return max(c["max_residual"] for c in report["checks"])

        ladder = sorted({t for t in (1, 2, 5, 16, 64, 128) if t <= self.T_MAX} | {self.T_MAX})
        sites = (self.N_SPECS + 3) * sum(2 * t + 1 for t in ladder)
        return Op(f"seed={seed}", lambda: cli.main(argv), check, sites=sites, output=out)


WORKLOADS = {w.name: w for w in (LargeTProfiles, FitHistograms, MomentCurves, VerifyBattery)}
