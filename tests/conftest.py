"""Shared test helpers: seeded random walk specs (``qwalk1d.verify.random_spec``) and
hypothesis strategies."""

import math

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from qwalk1d import WalkSpec
from qwalk1d.verify import random_spec  # noqa: F401  (re-exported to the test modules)

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


def spec_strategy():
    """Hypothesis strategy over normalized walk specs."""

    def build(a_frac, c0_frac, pa, pb, p0, p1, k):
        a_abs = math.sqrt(a_frac)
        c0_abs = math.sqrt(c0_frac)
        return WalkSpec(
            a=a_abs * np.exp(1j * pa),
            b=math.sqrt(1.0 - a_frac) * np.exp(1j * pb),
            k=k,
            c0=c0_abs * np.exp(1j * p0),
            c1=math.sqrt(1.0 - c0_frac) * np.exp(1j * p1),
        )

    unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    angle = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
    return st.builds(build, unit, unit, angle, angle, angle, angle, angle)
