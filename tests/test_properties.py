"""Property tests over the KSS family near its multiple root, and of the
alpha certificate's ball near the sphere."""

import math

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

from multiroot.bergman import APPENDIX_SLICE, COMPLEX_EXACT
from multiroot.certificates import alpha_certificate, singular_alpha_certificate
from multiroot.deflation import deflation_sequence, newton_iterate
from multiroot.series import AnalyticSystem, TruncatedSeries

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


@st.composite
def linear_systems_near_the_sphere(draw):
    """(f, x0, backend): a 2 x 2 linear system centered at x0, with value
    10^U(-40, 0) there, on a ball B(omega, R) with ||x0 - omega|| / R =
    1 - 10^U(-9, 0)."""
    unit = st.floats(-1.0, 1.0)

    def point():
        return np.array([complex(draw(unit), draw(unit)) for _ in range(2)])

    radius = draw(st.floats(0.25, 4.0))
    omega, direction, a = point(), point(), np.array([point(), point()])
    if abs(np.linalg.det(a)) < 0.1 or np.linalg.norm(direction) < 0.1:
        a, direction = np.eye(2), np.array([1.0, 0.0])
    nu = 1.0 - 10.0 ** -draw(st.floats(0.0, 9.0))
    x0 = tuple((omega + nu * radius * direction / np.linalg.norm(direction)).tolist())
    value = 10.0 ** -draw(st.floats(0.0, 40.0)) * point()
    eqs = tuple(
        TruncatedSeries(x0, 1, {(0, 0): value[i], (1, 0): a[i, 0], (0, 1): a[i, 1]})
        for i in range(2)
    )
    backend = draw(st.sampled_from([COMPLEX_EXACT, APPENDIX_SLICE]))
    return AnalyticSystem(2, eqs, tuple(omega.tolist()), radius), x0, backend


@settings(derandomize=True, deadline=None, max_examples=300)
@given(linear_systems_near_the_sphere())
def test_alpha_ball_lies_inside_the_ambient_ball(case):
    # alpha_certificate's comment derives theta_low < R - ||x0 - omega||
    # from alpha < 3 - sqrt 8; no report field covers a ball reaching out.
    f, x0, backend = case
    report = alpha_certificate(f, x0, backend)
    if report.alpha_ok:
        offset = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(x0, f.ball_center)))
        target(report.theta_low / (f.ball_radius - offset))
        assert report.theta_low < f.ball_radius - offset
