"""Property tests over the KSS family near its multiple root."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multiroot.bergman import COMPLEX_EXACT
from multiroot.certificates import singular_alpha_certificate
from multiroot.deflation import deflation_sequence, newton_iterate

from conftest import kss


@st.composite
def kss_points(draw):
    """(n, x0): x0 at distance 10^U(-6, -3) from (1, ..., 1) along a real
    direction whose components may be exactly zero (all ones if every
    component is)."""
    n = draw(st.integers(3, 6))
    direction = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    norm = float(np.linalg.norm(direction))
    if norm == 0.0:
        direction, norm = np.ones(n), math.sqrt(n)
    distance = 10.0 ** draw(st.floats(-6.0, -3.0))
    x0 = 1.0 + distance * direction / norm
    return n, tuple(float(v) for v in x0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(kss_points())
def test_kss_pipeline_never_raises(case):
    # A failed hypothesis is a report, so no MultirootError may escape.
    n, x0 = case
    f = kss(n, x0)
    deflation_sequence(f, x0, COMPLEX_EXACT)
    singular_alpha_certificate(f, x0, COMPLEX_EXACT)
    newton_iterate(f, x0, 4, COMPLEX_EXACT)
