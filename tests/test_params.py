"""Walk-spec validation, effective parameters, and their feasible region."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qwalk1d import (
    InfeasibleParamsError,
    LatticeIndex,
    NormalizationError,
    WalkSpec,
    derive_effective,
    max_alpha,
    validate_effective,
)
from conftest import spec_strategy

INV_SQRT2 = 1.0 / math.sqrt(2.0)


class TestWalkSpec:
    def test_validate_accepts_normalized(self):
        WalkSpec.hadamard().validate()

    def test_validate_rejects_bad_coin(self):
        with pytest.raises(NormalizationError):
            WalkSpec(a=0.9, b=0.9, c0=1.0, c1=0.0).validate()

    def test_validate_rejects_bad_spinor(self):
        with pytest.raises(NormalizationError):
            WalkSpec(a=INV_SQRT2, b=INV_SQRT2, c0=0.9, c1=0.9).validate()

    def test_renormalized_repairs_decimal_inputs(self):
        rough = WalkSpec(a=0.7071, b=0.7071, c0=1.0, c1=0.0)
        with pytest.raises(NormalizationError):
            rough.validate()
        fixed = rough.renormalized()
        fixed.validate()
        assert abs(abs(fixed.a) - INV_SQRT2) < 1e-9

    def test_renormalized_rejects_zero(self):
        with pytest.raises(NormalizationError):
            WalkSpec(a=0.0, b=0.0, c0=1.0, c1=0.0).renormalized()

    def test_hadamard_preset(self):
        spec = WalkSpec.hadamard()
        assert spec.a == spec.b == INV_SQRT2
        assert spec.c0 == 1.0 and spec.c1 == 0.0 and spec.k == 0.0

    def test_json_round_trip(self):
        spec = WalkSpec(
            a=0.6 * cmath.exp(0.3j),
            b=0.8 * cmath.exp(-1.1j),
            k=0.25,
            c0=0.5 * cmath.exp(0.7j),
            c1=math.sqrt(0.75) * cmath.exp(-0.2j),
        )
        back = WalkSpec.from_json(spec.to_json())
        for field in ("a", "b", "c0", "c1"):
            assert abs(getattr(back, field) - getattr(spec, field)) < 1e-14
        assert back.k == spec.k

    def test_from_json_rejects_out_of_range(self):
        with pytest.raises(NormalizationError):
            WalkSpec.from_json('{"a_abs": 1.5, "c0_abs": 1.0}')

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["a", "b", "k", "c0", "c1"])
    def test_validate_rejects_non_finite(self, field, value):
        # NaN compares false, so the norm checks alone let it through
        fields = dict(a=0.6, b=0.8, k=0.0, c0=1.0, c1=0.0)
        fields[field] = value
        with pytest.raises(ValueError, match="finite"):
            WalkSpec(**fields).validate()

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "field", ["a_abs", "c0_abs", "a_arg", "b_arg", "k", "c0_arg", "c1_arg"]
    )
    def test_from_json_rejects_non_finite(self, field, value):
        raw = {"a_abs": 0.6, "c0_abs": 1.0}
        text = json.dumps(raw)[:-1] + f', "{field}": {value}}}'
        with pytest.raises(ValueError, match="finite"):
            WalkSpec.from_json(text)

    def test_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(WalkSpec.hadamard().to_json())
        assert abs(WalkSpec.from_file(path).a - INV_SQRT2) < 1e-15


class TestEffectiveParams:
    def test_hadamard_values(self):
        eff = derive_effective(WalkSpec.hadamard())
        assert abs(eff.abs_a - INV_SQRT2) < 1e-15
        assert eff.d == 0.0
        assert abs(eff.beta - INV_SQRT2) < 1e-15
        assert eff.nu == 0.5
        assert eff.alpha == 0.0

    def test_vanishing_modulus_convention(self):
        # c1 = 0 leaves delta undefined; by convention both it and alpha are 0
        eff = derive_effective(WalkSpec(a=1.0, b=0.0, c0=1.0, c1=0.0))
        assert eff.delta == 0.0 and eff.alpha == 0.0

    def test_alpha_tracks_relative_phase(self):
        spec = WalkSpec(
            a=INV_SQRT2, b=INV_SQRT2, c0=INV_SQRT2, c1=INV_SQRT2 * cmath.exp(-0.4j)
        )
        eff = derive_effective(spec)
        assert abs(eff.delta - 0.4) < 1e-15
        assert abs(eff.alpha - 2 * INV_SQRT2 * 0.5 * math.cos(0.4)) < 1e-15

    @given(spec_strategy())
    def test_derived_triple_always_feasible(self, spec):
        eff = derive_effective(spec)
        assert validate_effective(eff.nu, eff.alpha, eff.abs_a)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_from_symmetry_round_trip(self, abs_a, nu, frac):
        alpha = frac * max_alpha(abs_a, nu)
        spec = WalkSpec.from_symmetry(abs_a, nu, alpha)
        spec.validate()
        eff = derive_effective(spec)
        assert abs(eff.abs_a - abs_a) < 1e-12
        assert abs(eff.nu - nu) < 1e-12
        assert abs(eff.alpha - alpha) < 1e-9

    def test_from_symmetry_rejects_infeasible(self):
        with pytest.raises(InfeasibleParamsError):
            WalkSpec.from_symmetry(0.9, 0.4, 0.9)


class TestFeasibleRegion:
    def test_bounds(self):
        assert validate_effective(0.5, 0.0, 1.0)
        assert validate_effective(0.0, 1.0, 0.0)
        assert not validate_effective(0.6, 0.0, 0.5)
        assert not validate_effective(0.0, 0.0, 1.5)
        assert not validate_effective(0.0, 0.5, 1.0)

    def test_alpha_bound_is_tight(self):
        nu, abs_a = 0.3, 0.6
        edge = max_alpha(abs_a, nu)
        assert validate_effective(nu, edge, abs_a)
        assert not validate_effective(nu, edge + 1e-6, abs_a)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_max_alpha_matches_validator(self, abs_a, nu):
        edge = max_alpha(abs_a, nu)
        assert validate_effective(nu, edge, abs_a)
        assert not validate_effective(nu, edge + 1e-5, abs_a) or edge == 0.0


class TestLatticeIndex:
    def test_reachability(self):
        assert LatticeIndex(3, 5).is_reachable()
        assert not LatticeIndex(2, 5).is_reachable()  # parity
        assert not LatticeIndex(7, 5).is_reachable()  # outside cone
        assert not LatticeIndex(0, -1).is_reachable()
        assert LatticeIndex(0, 0).is_reachable()
