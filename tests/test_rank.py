import numpy as np
import pytest

from multiroot.errors import StructuralError
from multiroot.rank import (
    elementary_symmetric,
    numerical_rank,
    rank_from_singular_values,
    rank_quantities,
    singular_values,
)

# Jacobians of the worked example at the origin, as printed (5 digits).
DF0 = np.array(
    [[2.0012, 1.9990], [2.0012, 1.9978], [1.9990, 2.0012], [1.9978, 2.0010]]
)
DF1 = np.array(
    [[0.0, -2.0], [2.0012, 1.9990], [-3.9956, 3.9956], [-5.9944, 3.9922]]
)


def planted_matrix(rng, n, rank, gap=1e3):
    """Random s x n matrix with singular values gapped at the given rank."""
    s = n + rng.integers(0, 3)
    sigma = np.sort(rng.uniform(1.0, 10.0, size=n))[::-1]
    if rank < n:
        small = sigma[rank - 1] if rank > 0 else 1.0
        sigma[rank:] = small / gap * rng.uniform(0.01, 1.0, size=n - rank)
        sigma = np.sort(sigma)[::-1]
    u, _ = np.linalg.qr(rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return u @ np.diag(sigma) @ v.conj().T, sigma


class TestSingularValues:
    def test_worked_example_df0(self):
        got = singular_values(DF0)
        assert got[0] == pytest.approx(5.6562, rel=1e-3)
        assert got[1] == pytest.approx(0.0039667, rel=1e-3)

    def test_worked_example_df1(self):
        got = singular_values(DF1)
        assert got[0] == pytest.approx(9.2020, rel=1e-3)
        assert got[1] == pytest.approx(3.3353, rel=1e-3)

    def test_identity(self):
        assert np.allclose(singular_values(np.eye(2)), [1.0, 1.0])

    def test_wide_matrix_transposed(self):
        m = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert len(singular_values(m)) == 2

    @pytest.mark.parametrize("shape", [(2, 0), (0, 2)])
    def test_empty_matrix_is_rejected(self, shape):
        # A matrix with no rows or no columns has no rank to test.
        message = f"^a {shape[0]} x {shape[1]} matrix has no singular values$"
        with pytest.raises(StructuralError, match=message):
            singular_values(np.zeros(shape))
        with pytest.raises(StructuralError, match=message):
            numerical_rank(np.zeros(shape))

    def test_empty_stack(self):
        assert singular_values(np.zeros((0, 3, 2))).shape == (0, 2)


class TestElementarySymmetric:
    def test_simple(self):
        assert elementary_symmetric([2.0, 1.0]) == pytest.approx([1.0, 3.0, 2.0])

    def test_worked_example(self):
        s = elementary_symmetric([5.6562, 0.0039667])
        assert s[1] == pytest.approx(5.6602, rel=1e-4)
        assert s[2] == pytest.approx(0.022437, rel=1e-3)

    def test_all_zero(self):
        assert elementary_symmetric([0.0, 0.0, 0.0]) == [1.0, 0.0, 0.0, 0.0]

    def test_negative_value_is_rejected(self):
        with pytest.raises(ValueError, match="^singular values must be nonnegative$"):
            elementary_symmetric([1.0, -0.5])

    def test_matches_polynomial_coefficients(self):
        rng = np.random.default_rng(3)
        sigma = rng.uniform(0.1, 5.0, size=5)
        s = elementary_symmetric(sigma)
        poly = np.poly(sigma)  # lambda^n - s1 lambda^{n-1} + ...
        assert np.allclose([abs(c) for c in poly], s, rtol=1e-10)


class TestRankQuantities:
    def test_worked_example_ratios(self):
        s = elementary_symmetric([5.6562, 0.0039667])
        b, g, a = rank_quantities(s)
        assert b[0] == pytest.approx(0.0039643, rel=1e-3)
        assert g[0] == pytest.approx(0.176672, rel=1e-3)
        assert a[0] == pytest.approx(7.0039e-4, rel=1e-3)

    def test_df1_exceeds_threshold(self):
        s = elementary_symmetric([9.2020, 3.3353])
        _b, _g, a = rank_quantities(s)
        assert a[0] == pytest.approx(0.19527, rel=1e-3)
        assert a[0] > 1.0 / 9.0

    def test_matches_sup_definition(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            sigma = np.sort(rng.uniform(0.05, 8.0, size=n))[::-1]
            s = elementary_symmetric(sigma)
            b, g, a = rank_quantities(s)
            for k in range(1, n + 1):
                b_sup = max(
                    (s[n - i] / s[n - k]) ** (1.0 / (k - i)) for i in range(0, k)
                )
                assert b[k - 1] == pytest.approx(b_sup, rel=1e-12)
                if k < n:
                    g_sup = max(
                        (s[n - i] / s[n - k]) ** (1.0 / (i - k))
                        for i in range(k + 1, n + 1)
                    )
                    assert g[k - 1] == pytest.approx(g_sup, rel=1e-12)
                else:
                    assert g[k - 1] == 1.0

    def test_requires_normalized_s0(self):
        with pytest.raises(ValueError):
            rank_quantities([2.0, 1.0])


class TestNumericalRank:
    def test_worked_example_deficient(self):
        report = numerical_rank(DF0)
        assert report.rank == 1
        assert not report.full_rank
        assert report.epsilon == pytest.approx(0.0079335, rel=2e-2)
        assert report.m == 1

    def test_worked_example_full(self):
        report = numerical_rank(DF1)
        assert report.rank == 2
        assert report.full_rank
        assert report.sigma[-1] == pytest.approx(3.3353, rel=1e-3)
        # theorem-backed epsilon 1/(10 g_m) lies under sigma_n
        assert 0 < report.epsilon < report.sigma[-1]

    def test_zero_matrix(self):
        report = numerical_rank(np.zeros((3, 3)))
        assert report.rank == 0
        assert report.epsilon == 0.0
        assert not report.full_rank

    @pytest.mark.parametrize(
        "sigma, full",
        [(1.0 / 9.0, True), (float(np.nextafter(1.0 / 9.0, 0.0)), False), (0.5, True)],
    )
    def test_one_by_one_at_the_threshold(self, sigma, full):
        # a_1 = sigma for a single value: the test admits exactly 1/9.
        report = rank_from_singular_values([sigma])
        assert (report.full_rank, report.rank) == (full, int(full))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exact_trailing_zeros(self, n):
        # A zero denominator leaves a_m undefined and the scan skips it; the
        # first defined ratio is 0, so the rank counts the nonzero values.
        for zeros in range(1, n + 1):
            sigma = [3.0, 2.0, 1.0, 0.5, 0.25, 0.125][: n - zeros] + [0.0] * zeros
            report = rank_from_singular_values(sigma)
            assert (report.rank, report.full_rank) == (n - zeros, False)

    def test_tiny_second_value(self):
        report = numerical_rank(np.diag([1.0, 1e-8]))
        assert report.rank == 1

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_rounding_noise_is_not_rank(self, n):
        # The SVD leaves n - 1 values of order eps * n under sigma_1 = n; read
        # as data, their gaps made the a-test report rank 2 at n = 5, 3 at 6.
        report = numerical_rank(np.ones((n, n)))
        assert report.rank == 1
        assert report.sigma[1:] == (0.0,) * (n - 1)

    def test_defining_inequality_on_gapped_matrices(self):
        rng = np.random.default_rng(11)
        trials = 10_000
        deficient = 0
        for t in range(trials):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n + 1))
            m, sigma = planted_matrix(rng, n, r)
            report = numerical_rank(m)
            if report.rank < n:
                deficient += 1
                rk = report.rank
                assert report.sigma[rk - 1] > report.epsilon >= report.sigma[rk]
                # root-count assertion: exactly m singular values below epsilon
                below = sum(1 for s in report.sigma if s <= report.epsilon)
                assert below == report.m
        assert deficient > trials // 4  # the planted gaps are actually seen

    def test_scale_covariance_at_large_gaps(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            n = int(rng.integers(2, 6))
            r = int(rng.integers(1, n))
            m, _sigma = planted_matrix(rng, n, r, gap=1e3)
            ranks = {numerical_rank(c * m).rank for c in (1e-3, 1.0, 1e3)}
            assert len(ranks) == 1
