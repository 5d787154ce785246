"""Property tests over the KSS family near its multiple root."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from multiroot.bergman import COMPLEX_EXACT
from multiroot.certificates import singular_alpha_certificate
from multiroot.deflation import deflation_sequence, newton_iterate
from multiroot.errors import TruncationExhaustedError

from conftest import kss


@st.composite
def kss_points(draw):
    """(n, x0): x0 at distance 10^U(-6, -3) from (1, ..., 1) along a Gaussian
    random real direction."""
    n = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = rng.standard_normal(n)
    distance = 10.0 ** draw(st.floats(-6.0, -3.0))
    x0 = 1.0 + distance * direction / np.linalg.norm(direction)
    return n, tuple(float(v) for v in x0)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(kss_points())
def test_kss_pipeline_never_raises(case):
    n, x0 = case
    f = kss(n, x0)
    deflation_sequence(f, x0, COMPLEX_EXACT)
    singular_alpha_certificate(f, x0, COMPLEX_EXACT)
    try:
        newton_iterate(f, x0, 4, COMPLEX_EXACT)
    except TruncationExhaustedError:
        # Open: at an iterate within ~1e-9 of the root, selection of the
        # kerneled system can retain no equation.  Any other error fails.
        pass
