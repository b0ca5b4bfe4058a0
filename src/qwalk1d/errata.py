"""Documented divergences between published formulas and the oracle.

The closed forms implemented by this package disagree with their printed
sources in a handful of places; in every case literal step iteration of
the walk (the oracle) settles which side is right. Each divergence is a
data record pairing the printed form, the form this package ships, a
concrete numeric witness, and the test that demonstrates it. The records
drive both the generated ERRATA document and the `verify` report, so the
three can never drift apart.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .density import total_density
from .direct import evolve_direct
from .foundation import foundation_polynomial
from .moments import first_moment
from .params import WalkSpec, derive_effective


@dataclass(frozen=True)
class ErratumRecord:
    """One published slip: where it sits, both forms, and its proof, which
    reproduces when each of ``values()`` is within 1e-12 of ``expected``."""

    key: str
    location: str
    printed: str
    resolved: str
    witness: str
    test_id: str
    values: Callable[[], tuple]
    value_names: tuple[str, ...]
    expected: tuple[float, ...]


def quartic_centre_values() -> tuple[int, int]:
    """(printed, resolved) values of the t = 4 centre row at |a| = 1."""
    printed = 30 - 12 + 1
    resolved = foundation_polynomial(4, 0).evaluate(Fraction(1))
    return printed, int(resolved)


def shift_walk_odd_values() -> tuple[float, float, float]:
    """(printed odd part, true odd part, true density) at x = 1 for the
    right-shift walk a = 1, c0 = 1, t = 1."""
    spec = WalkSpec(a=1.0, b=0.0, c0=1.0, c1=0.0)
    eff = derive_effective(spec)
    printed = float(total_density(eff, 1, paper_signs=True).rho_odd[2])
    rho = evolve_direct(spec, 1).density()
    return printed, float(0.5 * (rho[2] - rho[0])), float(rho[2])


def balanced_first_moment_values() -> tuple[float, float, float]:
    """(printed, resolved, oracle) first moments for the balanced walk
    |a| = 1/sqrt2, nu = 0, alpha = 1/sqrt2, t = 1."""
    r = 1.0 / math.sqrt(2.0)
    printed = first_moment(r, 0.0, r, 1, paper_signs=True)
    resolved = first_moment(r, 0.0, r, 1)
    spec = WalkSpec(a=r, b=r, c0=r, c1=r)
    field = evolve_direct(spec, 1)
    oracle = float(np.sum(field.positions * field.density()))
    return printed, resolved, oracle


def duplicated_factor_values() -> tuple[float, float]:
    """(printed-literal, oracle) amplitude at x = -1 for the one-step
    balanced-coin walk started in c0 = 1."""
    r = 1.0 / math.sqrt(2.0)
    spec = WalkSpec(a=r, b=r, c0=1.0, c1=0.0)
    eff = derive_effective(spec)
    # Literal reading: the trailing term carries (beta* c0)^2; at x = -1,
    # t = 1 the c1 term vanishes and u_0(x + 1) = u_0(0) = 1.
    printed = -((eff.beta.conjugate() * spec.c0) ** 2).real * 1.0
    oracle = evolve_direct(spec, 1).component(1, -1).real
    return float(printed), float(oracle)


RECORDS: tuple[ErratumRecord, ...] = (
    ErratumRecord(
        key="quartic-centre-row",
        location="coefficient row of the centre site at t = 4 (worked examples "
                 "of the closed power series)",
        printed="30 y^4 - 12 y^2 + 1   (y = |a|)",
        resolved="6 y^4 - 6 y^2 + 1",
        witness="every coefficient row must evaluate to 1 at |a| = 1 (the "
                "shift-only coin spreads uniformly); the printed row gives 19, "
                "the resolved row gives 1, and the recursion and power-series "
                "constructions agree on the resolved row exactly",
        test_id="tests/test_errata.py::test_quartic_centre_row_diverges",
        values=quartic_centre_values,
        value_names=("printed_value_at_unit_coin", "resolved_value_at_unit_coin"),
        expected=(19, 1),
    ),
    ErratumRecord(
        key="odd-density-coefficients",
        location="odd part of the density decomposition (coefficients on "
                 "rho_sq and rho_mi); a companion passage also drops the |a| "
                 "from the rho_mi coefficient",
        printed="rho_odd = +nu rho_sq + (2|a|nu - alpha) rho_mi   "
                "(variant without the |a| factor: (2 nu - alpha))",
        resolved="rho_odd = -nu rho_sq + (2|a|nu + alpha) rho_mi",
        witness="right-shift walk (a = 1, c0 = 1, t = 1): the printed form "
                "evaluates to 1.5 at x = 1, exceeding the site's total "
                "probability 1; the true odd part there is 0.5. The fit of "
                "the oracle odd part over a (nu, alpha) grid at several |a| "
                "is exact only for the resolved coefficients, pinning both "
                "signs and the |a| factor",
        test_id="tests/test_errata.py::test_odd_density_coefficients_diverge",
        values=shift_walk_odd_values,
        value_names=("printed_odd_part_at_x1", "true_odd_part_at_x1", "true_density_at_x1"),
        expected=(1.5, 0.5, 1.0),
    ),
    ErratumRecord(
        key="odd-moment-alpha-sign",
        location="closed form for odd moments as double sums over coefficient "
                 "rows, and its worked one-step first moment",
        printed="<x^{2n+1}> = (4|a|nu - 2 alpha) S_mi - 2 nu S_sq",
        resolved="<x^{2n+1}> = (4|a|nu + 2 alpha) S_mi - 2 nu S_sq",
        witness="balanced walk (|a| = 1/sqrt2, nu = 0, alpha = 1/sqrt2, "
                "t = 1): all probability sits at x = +1, so <x> = +1; the "
                "printed sign gives -1",
        test_id="tests/test_errata.py::test_odd_moment_alpha_sign_diverges",
        values=balanced_first_moment_values,
        value_names=("printed_first_moment", "resolved_first_moment", "oracle_first_moment"),
        expected=(-1.0, 1.0, 1.0),
    ),
    ErratumRecord(
        key="duplicated-trailing-factor",
        location="position amplitude of the second spinor component, "
                 "pre-simplification form",
        printed="psi1(x, t) = e^{i(xd+tk)} [c1 (u_t(x) - |a| u_{t-1}(x-1)) "
                "- beta* c0 u_{t-1}(x+1) beta* c0]   (trailing factor "
                "duplicated)",
        resolved="psi1(x, t) = e^{i(xd+tk)} [c1 f_t(-x) "
                 "- beta* c0 u_{t-1}(-x-1)]",
        witness="one-step walk with the balanced real coin and c0 = 1: the "
                "true amplitude at x = -1 is -1/sqrt2 = -0.7071; reading the "
                "duplicated factor literally squares beta* c0 and gives -0.5",
        test_id="tests/test_errata.py::test_duplicated_trailing_factor_diverges",
        values=duplicated_factor_values,
        value_names=("printed_literal_amplitude", "oracle_amplitude"),
        expected=(-0.5, -1.0 / math.sqrt(2.0)),
    ),
)


def _witnesses() -> dict[str, tuple[bool, dict[str, float]]]:
    """Per key: whether the divergence reproduces (every witness value within
    1e-12 of its expected value) and the values by name."""
    out = {}
    for rec in RECORDS:
        values = rec.values()
        reproduced = all(abs(v - e) < 1e-12 for v, e in zip(values, rec.expected))
        out[rec.key] = reproduced, dict(zip(rec.value_names, values))
    return out


def check_records() -> dict[str, bool]:
    """Recompute every witness; True means the divergence reproduces."""
    return {key: reproduced for key, (reproduced, _) in _witnesses().items()}


def emit_errata(path: str | Path | None = None) -> str:
    """Render the divergence records as a markdown document.

    Recomputes every witness first and refuses to emit if any divergence
    fails to reproduce, so the document cannot outlive its evidence. When
    ``path`` is given the document is written atomically (temp file, then
    rename).
    """
    status = check_records()
    missing = [k for k in status if not status[k]]
    if missing:
        raise RuntimeError(f"witnesses failed to reproduce: {missing}")
    lines = [
        "# Errata",
        "",
        "Divergences between published formulas and this implementation.",
        "Every entry is backed by a numeric witness (recomputed at emission",
        "time) and by the named test. The published variants remain",
        "available behind `paper_signs=True` / `--paper-signs` so the",
        "divergence itself stays reproducible; they are excluded from all",
        "equivalence tests.",
        "",
    ]
    for rec in RECORDS:
        lines += [
            f"## {rec.key}",
            "",
            f"* **Location:** {rec.location}",
            f"* **Printed:** `{rec.printed}`",
            f"* **Implemented:** `{rec.resolved}`",
            f"* **Witness:** {rec.witness}",
            f"* **Demonstrated by:** `{rec.test_id}`",
            "",
        ]
    text = "\n".join(lines)
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(text)
        tmp.replace(path)
    return text
