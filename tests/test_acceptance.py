"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to watch them).
"""

import math
import time

import numpy as np

from multiroot.bergman import (
    APPENDIX_SLICE,
    COMPLEX_EXACT,
    BallContext,
    derivative_bound,
    norm_a2,
    series_norm_a2,
)
from multiroot.certificates import (
    alpha_certificate,
    gamma_radius,
    point_quantities,
    rank_stability_radius,
)
from multiroot.deflation import kernel_op, newton_iterate, pivot_selection, truncated_deflation
from multiroot.rank import numerical_rank, singular_values
from multiroot.series import (
    AnalyticSystem,
    jacobian_at,
    system_evaluate,
    ts_derivative,
    ts_evaluate,
)

from conftest import (
    DEFLATED_GOLDEN,
    KERNELED_GOLDEN,
    SELECTED_GOLDEN,
    assert_system_multiset,
    interior_point,
    linear_system,
    monte_carlo_norm_complex,
    random_polynomial,
)
from test_certificates import linear_golden_system, random_regular_system

C2 = (0.0, 0.0)


def report(name: str, checks: list[tuple[str, bool]]):
    ok = all(passed for _label, passed in checks)
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}")
    for label, passed in checks:
        if not passed:
            print(f"       failed: {label}")
    assert ok, f"{name}: " + "; ".join(l for l, p in checks if not p)


def approx(got, want, rtol):
    return abs(got - want) <= rtol * abs(want)


def test_criterion_1_numerical_rank_goldens(gy2_trace):
    trace, point, _backend = gy2_trace
    df0 = jacobian_at(trace.steps[0].system, point)
    df1 = jacobian_at(trace.steps[1].system, point)
    start = time.perf_counter()
    r0 = numerical_rank(df0)
    r1 = numerical_rank(df1)
    elapsed = time.perf_counter() - start
    checks = [
        ("sigma1(DF0) = 5.6562", approx(r0.sigma[0], 5.6562, 1e-3)),
        ("sigma2(DF0) = 0.0039667", approx(r0.sigma[1], 0.0039667, 1e-3)),
        ("epsilon(DF0) = 0.0079335", approx(r0.epsilon, 0.0079335, 2e-2)),
        ("rank(DF0) = 1", r0.rank == 1),
        ("sigma1(DF1) = 9.2020", approx(r1.sigma[0], 9.2020, 1e-3)),
        ("sigma2(DF1) = 3.3353", approx(r1.sigma[1], 3.3353, 1e-3)),
        ("rank(DF1) = 2", r1.rank == 2 and r1.full_rank),
        ("runtime < 1 s", elapsed < 1.0),
    ]
    report("criterion 1: numerical rank goldens", checks)


def test_criterion_2_norm_and_gate_goldens(gy2_trace):
    trace, _point, backend = gy2_trace
    assert backend == APPENDIX_SLICE
    n0 = norm_a2(trace.steps[0].system, backend)
    n1 = norm_a2(trace.steps[1].system, backend)
    g0 = trace.steps[0].gate
    g1 = trace.steps[1].gate
    checks = [
        ("||F0|| = 2.4045", approx(n0, 2.4045, 1e-3)),
        ("||F1|| = 3.9048", approx(n1, 3.9048, 1e-3)),
        ("eta0 = 0.0063992", approx(g0.eta, 0.0063992, 1e-3)),
        ("eta1 = 0.0044418", approx(g1.eta, 0.0044418, 1e-3)),
        ("||F0(x0)|| = 2.8174e-4", approx(g0.value_norm, 2.8174e-4, 1e-3)),
        ("||F1(x0)|| = 1.2165e-3", approx(g1.value_norm, 1.2165e-3, 1e-3)),
    ]
    report("criterion 2: norm and gate goldens (appendix_slice)", checks)


def test_criterion_3_deflation_trace_golden(gy2_trace):
    trace, _point, _backend = gy2_trace
    checks = [("thickness = 1", trace.thickness == 1)]

    def matches(system, golden, label):
        try:
            assert_system_multiset(system, golden)
            checks.append((label, True))
        except AssertionError:
            checks.append((label, False))

    matches(trace.steps[0].system, SELECTED_GOLDEN, "selection retains the four gradients")
    matches(trace.steps[1].system, KERNELED_GOLDEN, "K(F0) matches its golden")
    matches(trace.deflated, DEFLATED_GOLDEN, "extracted pair matches its golden")
    report("criterion 3: deflation trace golden", checks)


def test_criterion_4_singular_newton(gy2):
    system, point, backend = gy2
    traj = newton_iterate(system, point, 4, backend)
    got1 = np.array([v.real for v in traj[1]])
    got2 = np.array([v.real for v in traj[2]])
    want1 = np.array([1.5231e-7, -4.5263e-7])
    want2 = np.array([1.0038e-13, -1.6932e-13])
    errors = [float(np.linalg.norm([complex(v) for v in x])) for x in traj]
    envelope = all(
        cur <= 1e3 * prev**2
        for prev, cur in zip(errors, errors[1:])
        if cur > 1e-15
    )
    checks = [
        (
            "iterate 1 = (1.5231e-7, -4.5263e-7)",
            np.linalg.norm(got1 - want1) <= 1e-3 * np.linalg.norm(want1),
        ),
        (
            "iterate 2 = (1.0038e-13, -1.6932e-13)",
            np.linalg.norm(got2 - want2) <= 1e-3 * np.linalg.norm(want2),
        ),
        ("quadratic envelope e_{k+1} <= 1e3 e_k^2 until 1e-15", envelope),
    ]
    report("criterion 4: singular Newton iterates", checks)


def test_criterion_5_certificate_goldens(gy2_trace):
    trace, point, backend = gy2_trace
    rep = alpha_certificate(trace.deflated, point, backend)
    q = rep.quantities
    lin = linear_golden_system()
    qlin = point_quantities(lin, C2, backend)
    radius = gamma_radius(lin, C2, backend)
    checks = [
        ("beta = 0.00078147", approx(q.beta, 0.00078147, 1e-3)),
        ("kappa = 3.0000", approx(q.kappa, 3.0000, 1e-3)),
        ("gamma = 2.6737", approx(q.gamma, 2.6737, 1e-3)),
        ("alpha = 0.0023444", approx(q.alpha, 0.0023444, 1e-3)),
        ("alpha bound = 0.079267", approx(rep.alpha_bound, 0.079267, 1e-3)),
        ("alpha test holds", rep.alpha_ok and q.alpha < rep.alpha_bound),
        ("theta = 0.00078644", approx(rep.theta_low, 0.00078644, 1e-3)),
        ("gamma(linear) = 2.6761", approx(qlin.gamma, 2.6761, 1e-3)),
        ("gamma radius = 0.026858", approx(radius, 0.026858, 1e-3)),
    ]
    report("criterion 5: certificate goldens", checks)


def test_criterion_6_exact_path(gy2_exact):
    system, point, backend = gy2_exact
    trace = truncated_deflation(system, point, 1, backend)
    final = trace.steps[-2].system if trace.steps[-1].kind == "extraction" else None
    expected = [
        {(1, 0): 2.0, (0, 1): 2.0},
        {(1, 0): 4.0, (0, 1): -4.0},
        {(1, 0): 4.0, (0, 1): -6.0},
        {(1, 0): -2.0},
    ]
    ok = final is not None
    if ok:
        try:
            assert_system_multiset(final, expected, rtol=1e-12)
        except AssertionError:
            ok = False
    checks = [
        ("order-1 truncation = 2*(x+y, 2x-2y, 2x-3y, -x) exactly", ok),
        ("thickness = 1", trace.thickness == 1),
    ]
    report("criterion 6: exact-path truncated deflation", checks)


def test_criterion_7a_rank_defining_inequality():
    rng = np.random.default_rng(2024)
    violations = 0
    deficient = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 6))
        r = int(rng.integers(1, n + 1))
        s = n + int(rng.integers(0, 3))
        sigma = np.sort(rng.uniform(1.0, 10.0, size=n))[::-1]
        if r < n:
            sigma[r:] = sigma[r - 1] / 1e3 * rng.uniform(0.01, 1.0, size=n - r)
            sigma = np.sort(sigma)[::-1]
        u, _ = np.linalg.qr(rng.standard_normal((s, n)))
        v, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rep = numerical_rank(u @ np.diag(sigma) @ v.T)
        if rep.rank < n:
            deficient += 1
            if not (rep.sigma[rep.rank - 1] > rep.epsilon >= rep.sigma[rep.rank]):
                violations += 1
    checks = [
        ("sigma_r > epsilon >= sigma_{r+1} on 10^4 gapped matrices", violations == 0),
        ("gap actually exercised", deficient > 2000),
    ]
    report("criterion 7a: epsilon-rank defining inequality", checks)


def test_criterion_7b_derivative_bound_domination():
    rng = np.random.default_rng(77)
    bad = 0
    for _ in range(1000):
        eqs = tuple(random_polynomial(rng, 2, 3) for _ in range(2))
        f = AnalyticSystem(2, eqs, C2, 1.0)
        x = interior_point(rng, max_nu=0.8)
        exact1 = np.linalg.svd(jacobian_at(f, x), compute_uv=False)[0]
        if exact1 > derivative_bound(f, x, 1, COMPLEX_EXACT) * (1 + 1e-12):
            bad += 1
        hess = [
            ts_evaluate(ts_derivative(ts_derivative(eq, i), j), x)
            for eq in eqs
            for i in range(2)
            for j in range(2)
        ]
        if np.linalg.norm(hess) > derivative_bound(f, x, 2, COMPLEX_EXACT) * (1 + 1e-12):
            bad += 1
    report(
        "criterion 7b: derivative bounds dominate (k=1,2, 10^3 systems)",
        [("no violations", bad == 0)],
    )


def test_criterion_7c_norm_vs_monte_carlo():
    rng = np.random.default_rng(4242)
    ball = BallContext(C2, 1.0, 2)
    worst = 0.0
    for seed in range(50):
        f = random_polynomial(rng, 2, 3)
        exact = series_norm_a2(f, ball, COMPLEX_EXACT)
        mc = monte_carlo_norm_complex(f, ball, samples=200_000, seed=seed)
        worst = max(worst, abs(exact - mc) / exact)
    report(
        "criterion 7c: complex norm vs Monte Carlo (50 polynomials)",
        [(f"relative agreement 1e-2 (worst {worst:.2e})", worst < 1e-2)],
    )


def test_criterion_7d_schur_of_rank_r_is_zero():
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(25):
        s = int(rng.integers(3, 7))
        n = int(rng.integers(2, s + 1))
        r = int(rng.integers(1, n))
        m = (rng.standard_normal((s, r)) + 1j * rng.standard_normal((s, r))) @ (
            rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
        )
        rows, cols = pivot_selection(m, r)
        schur = kernel_op(linear_system(m), (rows, cols)).equations[r:]
        scale = float(np.abs(m).max())
        resid = max(
            (abs(c) for e in schur for c in e.coefficients.values()),
            default=0.0,
        )
        worst = max(worst, resid / scale)
    report(
        "criterion 7d: Schur of exact rank-r constant matrices vanishes",
        [(f"residual <= 1e-12 (worst {worst:.2e})", worst <= 1e-12)],
    )


def test_criterion_7e_rank_stability_sampling():
    rng = np.random.default_rng(31415)
    failures = 0
    checked = 0
    while checked < 20:
        f = random_regular_system(rng, quad_scale=0.3)
        sv = singular_values(jacobian_at(f, C2))
        if sv[-1] < 0.3:
            continue
        checked += 1
        eps = 0.5 * min(2 - math.sqrt(2), sv[-1] / 2)
        radius = rank_stability_radius(f, C2, eps, COMPLEX_EXACT)
        for _ in range(100):
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g /= np.linalg.norm(g)
            x = tuple(radius * rng.random() ** 0.25 * g)
            sx = singular_values(jacobian_at(f, x))
            if sum(1 for sigma in sx if sigma > eps) != 2:
                failures += 1
    report(
        "criterion 7e: rank stability radius sample-and-check (20 x 100)",
        [("epsilon-rank constant on sampled balls", failures == 0)],
    )


def test_criterion_7f_gamma_theorem_envelope():
    rng = np.random.default_rng(2718)
    failures = 0
    for _ in range(20):
        f = random_regular_system(rng)
        radius = gamma_radius(f, C2, COMPLEX_EXACT)
        ang = rng.random() * 2 * math.pi
        x = (np.array([math.cos(ang), math.sin(ang)]) * 0.9 * radius).astype(complex)
        e0 = np.linalg.norm(x)
        for k in range(1, 6):
            x = x - np.linalg.solve(jacobian_at(f, tuple(x)), system_evaluate(f, tuple(x)))
            if np.linalg.norm(x) > 0.5 ** (2**k - 1) * e0 * (1 + 1e-9) + 1e-15:
                failures += 1
                break
    report(
        "criterion 7f: gamma-theorem convergence envelope (20 systems)",
        [("(1/2)^(2^k - 1) envelope holds from 0.9 x radius", failures == 0)],
    )
