"""Walk parameterization, effective symmetry parameters, and validation.

A coined walk on the integer line is fixed by a 2x2 coin (complex
amplitudes ``a``, ``b`` with |a|^2 + |b|^2 = 1), a global per-step phase
``k``, and an initial spinor (``c0``, ``c1``) at the origin. The resulting
probability density depends on only three effective real parameters:

* ``abs_a``  -- the coin weight |a|, driving the temporal dynamics,
* ``nu``     -- the spinor imbalance |c0|^2 - 1/2,
* ``alpha``  -- the interference alignment 2|b c0 c1| cos(delta),

where ``delta = arg(a) - arg(b) + arg(c0) - arg(c1)``. The remaining
quantities (coin phase ``d = arg(a)``, ``beta = b exp(-i d)``, ``k``) only
rotate amplitudes and never show up in any density.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path

NORM_TOL = 1e-12
FEASIBILITY_SLACK = 1e-12

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class NormalizationError(ValueError):
    """Coin or spinor amplitudes are not normalized to 1."""


class InfeasibleParamsError(ValueError):
    """(abs_a, nu, alpha) lies outside the reachable parameter region."""


class AliasingError(ValueError):
    """Momentum grid too small for the position-space support."""


class ResourceLimitError(RuntimeError):
    """Requested computation exceeds a configured resource ceiling."""


class UnderdeterminedError(ValueError):
    """Not enough informative data to determine the requested fit."""


def _require_finite(**values: complex) -> None:
    bad = ", ".join(f"{k} = {v!r}" for k, v in values.items() if not cmath.isfinite(v))
    if bad:
        raise ValueError(f"walk parameters must be finite: {bad}")


@dataclass(frozen=True)
class WalkSpec:
    """Full physical parameterization of a coined walk on the line.

    Instances are immutable value objects; all evolution routines treat
    them as read-only and they are safe to share between workers.
    """

    a: complex
    b: complex
    k: float = 0.0
    c0: complex = 1.0 + 0.0j
    c1: complex = 0.0j

    def coin_norm_defect(self) -> float:
        return abs(abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0)

    def spinor_norm_defect(self) -> float:
        return abs(abs(self.c0) ** 2 + abs(self.c1) ** 2 - 1.0)

    def validate(self, tol: float = NORM_TOL) -> "WalkSpec":
        """Return self if finite and normalized within ``tol``, else raise."""
        _require_finite(a=self.a, b=self.b, k=self.k, c0=self.c0, c1=self.c1)
        if self.coin_norm_defect() > tol:
            raise NormalizationError(
                f"coin not normalized: |a|^2 + |b|^2 - 1 = "
                f"{abs(self.a) ** 2 + abs(self.b) ** 2 - 1.0:.3e}"
            )
        if self.spinor_norm_defect() > tol:
            raise NormalizationError(
                f"initial spinor not normalized: |c0|^2 + |c1|^2 - 1 = "
                f"{abs(self.c0) ** 2 + abs(self.c1) ** 2 - 1.0:.3e}"
            )
        return self

    def renormalized(self) -> "WalkSpec":
        """Rescale (a, b) and (c0, c1) onto their unit spheres.

        Lets user-entered decimal approximations (e.g. 0.7071 for the
        Hadamard coin) pass validation instead of hard-failing.
        """
        coin = math.sqrt(abs(self.a) ** 2 + abs(self.b) ** 2)
        spinor = math.sqrt(abs(self.c0) ** 2 + abs(self.c1) ** 2)
        if coin == 0.0 or spinor == 0.0:
            raise NormalizationError("cannot renormalize a zero coin or spinor")
        return WalkSpec(
            a=self.a / coin,
            b=self.b / coin,
            k=self.k,
            c0=self.c0 / spinor,
            c1=self.c1 / spinor,
        )

    @classmethod
    def hadamard(cls, k: float = 0.0) -> "WalkSpec":
        """The reference walk: a = b = 1/sqrt(2) real, started in (1, 0)."""
        return cls(a=INV_SQRT2, b=INV_SQRT2, k=k, c0=1.0, c1=0.0)

    @classmethod
    def from_symmetry(
        cls, abs_a: float, nu: float, alpha: float, k: float = 0.0
    ) -> "WalkSpec":
        """Canonical representative walk for a symmetry triple.

        Picks real non-negative a, b, c0 and puts the whole relative phase
        on c1, so the derived effective parameters round-trip exactly to
        (abs_a, nu, alpha).
        """
        if not validate_effective(nu, alpha, abs_a):
            raise InfeasibleParamsError(
                f"(nu={nu}, alpha={alpha}, abs_a={abs_a}) is not reachable"
            )
        abs_b = math.sqrt(max(0.0, 1.0 - abs_a * abs_a))
        c0_abs = math.sqrt(max(0.0, 0.5 + nu))
        c1_abs = math.sqrt(max(0.0, 0.5 - nu))
        denom = 2.0 * abs_b * c0_abs * c1_abs
        if denom == 0.0:
            delta = 0.0
        else:
            delta = math.acos(max(-1.0, min(1.0, alpha / denom)))
        # delta = arg(a) - arg(b) + arg(c0) - arg(c1) = -arg(c1) here
        return cls(a=abs_a, b=abs_b, k=k, c0=c0_abs, c1=c1_abs * cmath.exp(-1j * delta))

    def to_json(self) -> str:
        """Serialize to the walk-spec file format (angles in radians)."""
        return json.dumps(
            {
                "a_abs": abs(self.a),
                "a_arg": cmath.phase(self.a),
                "b_arg": cmath.phase(self.b),
                "k": self.k,
                "c0_abs": abs(self.c0),
                "c0_arg": cmath.phase(self.c0),
                "c1_arg": cmath.phase(self.c1),
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "WalkSpec":
        """Parse the walk-spec file format.

        ``b_abs`` and ``c1_abs`` are derived from the normalization
        constraints, so the file only pins the free quantities.
        """
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ValueError(f"walk spec is not a JSON object (got a {type(raw).__name__})")
        values = {}
        for key in ("a_abs", "c0_abs", "a_arg", "b_arg", "k", "c0_arg", "c1_arg"):
            if key in ("a_abs", "c0_abs") and key not in raw:
                raise ValueError(f"walk spec lacks the key {key!r}")
            try:
                values[key] = float(raw.get(key, 0.0))
            except (TypeError, ValueError):
                raise ValueError(f"walk spec {key} = {raw[key]!r} is not a number") from None
        a_abs, c0_abs = values.pop("a_abs"), values.pop("c0_abs")
        _require_finite(a_abs=a_abs, c0_abs=c0_abs, **values)
        if not 0.0 <= a_abs <= 1.0:
            raise NormalizationError(f"a_abs = {a_abs} outside [0, 1]")
        if not 0.0 <= c0_abs <= 1.0:
            raise NormalizationError(f"c0_abs = {c0_abs} outside [0, 1]")
        b_abs = math.sqrt(max(0.0, 1.0 - a_abs * a_abs))
        c1_abs = math.sqrt(max(0.0, 1.0 - c0_abs * c0_abs))
        return cls(
            a=a_abs * cmath.exp(1j * values["a_arg"]),
            b=b_abs * cmath.exp(1j * values["b_arg"]),
            k=values["k"],
            c0=c0_abs * cmath.exp(1j * values["c0_arg"]),
            c1=c1_abs * cmath.exp(1j * values["c1_arg"]),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "WalkSpec":
        return cls.from_json(Path(path).read_text())


@dataclass(frozen=True)
class EffectiveParams:
    """Derived parameters that fully determine the walk's density.

    ``abs_a``, ``nu`` and ``alpha`` are the three effective real
    parameters; ``d``, ``beta`` and ``delta`` carry the residual phase
    information needed to rebuild amplitudes (but no density depends on
    them).
    """

    abs_a: float
    d: float
    beta: complex
    nu: float
    alpha: float
    delta: float


@dataclass(frozen=True)
class LatticeIndex:
    """A (site, time) pair on the walk lattice."""

    x: int
    t: int

    def is_reachable(self) -> bool:
        """Walks started at the origin only populate |x| <= t, x == t (mod 2)."""
        return self.t >= 0 and abs(self.x) <= self.t and (self.x - self.t) % 2 == 0


def derive_effective(spec: WalkSpec, tol: float = NORM_TOL) -> EffectiveParams:
    """Compute the effective parameters of a validated walk spec.

    When any of b, c0, c1 vanishes the relative phase delta is undefined;
    by convention delta = 0 and alpha = 0 (its modulus prefactor is zero
    anyway, so the density is unaffected).
    """
    spec.validate(tol)
    abs_a = abs(spec.a)
    d = cmath.phase(spec.a)
    beta = spec.b * cmath.exp(-1j * d)
    nu = abs(spec.c0) ** 2 - 0.5
    modulus = abs(spec.b) * abs(spec.c0) * abs(spec.c1)
    if modulus == 0.0:
        delta = 0.0
        alpha = 0.0
    else:
        delta = (
            cmath.phase(spec.a)
            - cmath.phase(spec.b)
            + cmath.phase(spec.c0)
            - cmath.phase(spec.c1)
        )
        alpha = 2.0 * modulus * math.cos(delta)
    return EffectiveParams(abs_a=abs_a, d=d, beta=beta, nu=nu, alpha=alpha, delta=delta)


def validate_effective(nu: float, alpha: float, abs_a: float) -> bool:
    """True iff (nu, alpha, abs_a) is reachable by some physical walk.

    The reachable set is nu in [-1/2, 1/2], abs_a in [0, 1] and
    alpha^2 <= (1 - abs_a^2)(1 - 4 nu^2), the latter because
    alpha = 2|b c0 c1| cos(delta) with |cos| <= 1.
    """
    if not (-0.5 <= nu <= 0.5):
        return False
    if not (0.0 <= abs_a <= 1.0):
        return False
    bound = (1.0 - abs_a * abs_a) * (1.0 - 4.0 * nu * nu)
    return alpha * alpha <= bound + FEASIBILITY_SLACK


def max_alpha(abs_a: float, nu: float) -> float:
    """Largest |alpha| reachable at the given abs_a and nu."""
    return math.sqrt(max(0.0, (1.0 - abs_a * abs_a) * (1.0 - 4.0 * nu * nu)))
