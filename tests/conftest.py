from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from multiroot.bergman import BallContext
from multiroot.cli import parse_system
from multiroot.deflation import deflation_sequence, select_detailed
from multiroot.series import AnalyticSystem, TruncatedSeries, recenter_system

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "fixtures"

# Golden coefficient tables for the worked example; the reference values
# carry five significant digits, hence the 1e-3 relative matching.
SELECTED_GOLDEN = [
    {(0, 0): 0.00019940, (1, 0): 2.0012, (0, 1): 1.9990, (1, 1): 2.0},
    {(0, 0): 0.00019904, (0, 1): 1.9978, (1, 0): 2.0012, (1, 1): 2.0, (0, 2): -1.0},
    {(0, 0): 0.00020061, (1, 0): 1.9990, (0, 1): 2.0012, (2, 0): 1.0, (0, 2): 1.0},
    {(0, 0): 0.00020085, (1, 0): 1.9978, (0, 1): 2.0010, (2, 0): 1.0, (1, 1): -2.0},
]
KERNELED_GOLDEN = [
    {(0, 0): 0.00019940, (1, 0): 2.0012, (0, 1): 1.9990},
    {(0, 0): -0.0012, (0, 1): -2.0},
    {(0, 0): 0.0043976, (0, 1): 3.9956, (1, 0): -3.9956},
    {(0, 0): 0.0053963, (1, 0): -5.9944, (0, 1): 3.9922},
]
DEFLATED_GOLDEN = [
    {(0, 0): 0.00019940, (1, 0): 2.0012, (0, 1): 1.9990},
    {(0, 0): 0.0043976, (0, 1): 3.9956, (1, 0): -3.9956},
]


def series_matches(eq: TruncatedSeries, expected: dict, rtol: float = 1e-3) -> bool:
    scale = max(abs(v) for v in expected.values())
    keys = set(expected) | set(eq.coefficients)
    for key in keys:
        got = eq.coefficient(key)
        want = expected.get(key, 0.0)
        tol = rtol * (abs(want) if want else scale)
        if abs(got - want) > tol:
            return False
    return True


def assert_system_multiset(system: AnalyticSystem, expected: list[dict], rtol=1e-3):
    """Coefficient match between equations and golden rows, up to row order."""
    assert system.size == len(expected)
    remaining = list(expected)
    for eq in system.equations:
        hit = next((i for i, exp in enumerate(remaining) if series_matches(eq, exp, rtol)), None)
        assert hit is not None, f"no golden row matches {dict(eq.items())}"
        remaining.pop(hit)
    assert not remaining


def relerr(got, want) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.fixture(scope="session")
def gy2():
    system, point, options = parse_system(str(FIXTURES / "gy2.json"))
    return system, point, options["backend"]


@pytest.fixture(scope="session")
def gy2_exact():
    system, point, options = parse_system(str(FIXTURES / "gy2_exact.json"))
    return system, point, options["backend"]


@pytest.fixture(scope="session")
def gy2_selected(gy2):
    system, point, backend = gy2
    selected, records = select_detailed(system, point, backend)
    return selected, records, point, backend


@pytest.fixture(scope="session")
def gy2_trace(gy2):
    system, point, backend = gy2
    return deflation_sequence(system, point, backend), point, backend


def gy2_at(tmp_path, point, backend):
    """The gy2 fixture at a real ``point`` with ``backend``, read as the CLI
    reads it."""
    data = json.loads((FIXTURES / "gy2.json").read_text())
    data["point"] = [[x, 0.0] for x in point]
    data["norm_backend"] = backend
    path = tmp_path / "gy2_moved.json"
    path.write_text(json.dumps(data))
    system, x0, options = parse_system(str(path))
    return system, x0, options["backend"]


def kss(n, x0):
    """Kobayashi-Suzuki-Sakai: x_i^2 + sum_j x_j - 2 x_i - n + 1, root
    (1, ..., 1), as the CLI reads it: recentered at x0, order 3, unit ball
    around x0."""
    zero = (0,) * n
    equations = []
    for i in range(n):
        coeffs = {tuple(2 if k == i else 0 for k in range(n)): 1.0, zero: float(1 - n)}
        for j in range(n):
            coeffs[tuple(1 if k == j else 0 for k in range(n))] = -1.0 if j == i else 1.0
        equations.append(TruncatedSeries((0.0,) * n, 3, coeffs))
    system = AnalyticSystem(n, tuple(equations), (0.0,) * n, 1.0)
    return recenter_system(system, x0)


def recentered(equations, x0, order=3):
    """Polynomials given as {exponent: coefficient} dicts, as the CLI reads
    them: recentered at x0, truncated at ``order``, unit ball around x0."""
    n = len(x0)
    full = tuple(TruncatedSeries((0.0,) * n, order, coeffs) for coeffs in equations)
    return recenter_system(AnalyticSystem(n, full, (0.0,) * n, 1.0), x0)


# Ojika1 (Dayton and Zeng, ISSAC 2005): root (1, 2), thickness 2.
OJIKA1 = (
    {(2, 0): 1.0, (0, 1): 1.0, (0, 0): -3.0},
    {(1, 0): 1.0, (0, 2): 0.125, (0, 0): -1.5},
)


def ojika1(d):
    """Ojika1 at x0 = (1 + d, 2 - 0.7 d), order 3: (system, x0)."""
    x0 = (1.0 + d, 2.0 - 0.7 * d)
    return recentered(OJIKA1, x0), x0


def scaled(f: TruncatedSeries, c: float) -> TruncatedSeries:
    """The series c f."""
    return TruncatedSeries(f.center, f.order, {a: c * v for a, v in f.coefficients.items()})


def linear_system(m) -> AnalyticSystem:
    """f_i = sum_j m_ij x_j for an s x n matrix m, stored at order 2 (so the
    kerneling operator keeps order 1), on the unit ball around 0."""
    s, n = m.shape
    zero = (0,) * n
    unit = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    equations = tuple(
        TruncatedSeries(zero, 2, {unit[j]: m[i, j] for j in range(n)}) for i in range(s)
    )
    return AnalyticSystem(n, equations, zero, 1.0)


def random_polynomial(rng, n=2, degree=3, center=None, order=None, real=False):
    center = center or (0.0,) * n
    coeffs = {}
    for alpha in _exponents(n, degree):
        c = rng.standard_normal() + (0.0 if real else 1j * rng.standard_normal())
        coeffs[alpha] = c
    return TruncatedSeries(center, order or degree, coeffs)


def _exponents(n, degree):
    if n == 1:
        return [(d,) for d in range(degree + 1)]
    out = []
    for d in range(degree + 1):
        for rest in _exponents(n - 1, degree - d):
            out.append((d,) + rest)
    return out


def random_system(rng, n=2, s=2, degree=3, radius=1.0, real=False):
    eqs = tuple(random_polynomial(rng, n, degree, real=real) for _ in range(s))
    return AnalyticSystem(n, eqs, (0.0,) * n, radius)


def interior_point(rng, n=2, max_nu=0.8, radius=1.0, real=False):
    g = rng.standard_normal(n) + (0.0 if real else 1j * rng.standard_normal(n))
    g = g / np.linalg.norm(g)
    r = radius * max_nu * rng.random() ** (1.0 / (2 * n))
    return tuple(r * g)


def monte_carlo_norm_complex(
    f: TruncatedSeries,
    ball: BallContext,
    samples: int = 1_000_000,
    *,
    seed: int,
) -> float:
    """Monte Carlo estimate of the complex-ball norm (oracle for tests).

    The measure is normalized, so the squared norm is just the mean of |f|^2
    over points drawn uniformly from the complex ball (real dimension 2n).
    Evaluation is vectorized over the sample batch.
    """
    n = ball.dim
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((samples, 2 * n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    radii = ball.radius * rng.random(samples) ** (1.0 / (2 * n))
    pts = radii[:, None] * g
    z = pts[:, :n] + 1j * pts[:, n:]
    z += np.array(ball.omega, dtype=complex)[None, :]
    dz = z - np.array(f.center, dtype=complex)[None, :]
    vals = np.zeros(samples, dtype=complex)
    for alpha, c in f.coefficients.items():
        term = np.full(samples, c, dtype=complex)
        for i, a in enumerate(alpha):
            if a:
                term *= dz[:, i] ** a
        vals += term
    return math.sqrt(float(np.mean(np.abs(vals) ** 2)))
