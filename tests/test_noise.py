"""Covariance construction and whitening factors.

The fractional-increment covariance is checked against a brute-force
oracle that expands E[(B(n+1)-B(n))(B(m+1)-B(m))] from the fractional
Brownian motion covariance 0.5*(t^{2h} + s^{2h} - |t-s|^{2h}).
"""

import io
import re

import numpy as np
import pytest

from fgncontrol.errors import NotPositiveDefinite, NotSymmetric
from fgncontrol.noise import (
    CovarianceSpec,
    WhiteningBasis,
    custom_covariance,
    fgn_covariance,
    whiten,
)

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def fbm_cov(t, s, h):
    return 0.5 * (t ** (2 * h) + s ** (2 * h) - abs(t - s) ** (2 * h))


def increment_cov_oracle(n, m, h):
    """E[(B(n+1)-B(n))(B(m+1)-B(m))] expanded term by term."""
    return (
        fbm_cov(n + 1, m + 1, h)
        - fbm_cov(n + 1, m, h)
        - fbm_cov(n, m + 1, h)
        + fbm_cov(n, m, h)
    )


# half of (2^{1.4} - 2), the lag-1 correlation at h = 0.7
LAG1_H07 = 0.3195079107728942


class TestHurstParameter:
    """The Hurst index is checked where it is read, by `fgn_covariance`."""

    def test_accepts_interior(self):
        assert fgn_covariance(0.3, 2).sigma[0, 1] == 0.5 * (2**0.6 - 2)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7, float("nan")])
    def test_rejects_boundary_and_outside(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"Hurst index must lie in (0, 1), got {bad!r}")):
            fgn_covariance(bad, 2)


class TestFgnCovariance:
    def test_unit_diagonal(self):
        cov = fgn_covariance(0.3, 4)
        assert np.allclose(np.diag(cov.sigma), 1.0, atol=1e-15)

    def test_half_is_identity(self):
        cov = fgn_covariance(0.5, 6)
        assert np.array_equal(cov.sigma, np.eye(6))

    def test_lag_one_frozen_value(self):
        cov = fgn_covariance(0.7, 2)
        assert cov.sigma[0][1] == pytest.approx(LAG1_H07, abs=1e-15)
        assert cov.sigma[0][1] == pytest.approx(0.5 * (2**1.4 - 2), abs=1e-16)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
    def test_matches_fbm_increment_oracle(self, h):
        m = 8
        cov = fgn_covariance(h, m)
        for n in range(m):
            for k in range(m):
                assert cov.sigma[n][k] == pytest.approx(
                    increment_cov_oracle(n, k, h), abs=1e-12
                ), f"mismatch at ({n},{k}), h={h}"

    def test_symmetric_and_stationary(self):
        cov = fgn_covariance(0.8, 10)
        assert np.array_equal(cov.sigma, cov.sigma.T)
        for lag in range(1, 10):
            band = np.diag(cov.sigma, k=lag)
            assert np.ptp(band) == 0.0

    def test_positive_correlation_above_half(self):
        assert fgn_covariance(0.7, 3).sigma[0][1] > 0
        assert fgn_covariance(0.3, 3).sigma[0][1] < 0

    def test_rejects_bad_size(self):
        with pytest.raises(ValueError):
            fgn_covariance(0.5, 0)


class TestWhiten:
    def test_identity_covariance(self):
        basis = whiten(CovarianceSpec(4, np.eye(4)))
        assert np.array_equal(basis.b_mat, np.eye(4))
        assert np.array_equal(basis.a_mat, np.eye(4))
        assert np.array_equal(basis.c_mat, np.zeros((4, 4)))

    def test_first_diagonal_entry(self):
        cov = fgn_covariance(0.7, 3)
        basis = whiten(cov)
        assert basis.b_mat[0, 0] == pytest.approx(np.sqrt(cov.sigma[0][0]), abs=1e-15)

    @pytest.mark.parametrize("h", [0.1, 0.3, 0.5, 0.7, 0.9])
    @pytest.mark.parametrize("m", [4, 16, 64])
    def test_roundtrip_and_inverse(self, h, m):
        cov = fgn_covariance(h, m)
        basis = whiten(cov)
        recon = basis.b_mat @ basis.b_mat.T
        assert np.max(np.abs(recon - cov.sigma)) <= 1e-10
        assert np.max(np.abs(basis.a_mat @ basis.b_mat - np.eye(m))) <= 1e-10

    def test_triangular_shapes(self):
        basis = whiten(fgn_covariance(0.7, 6))
        upper = np.triu_indices(6, k=1)
        assert np.all(basis.b_mat[upper] == 0.0)
        assert np.all(basis.a_mat[upper] == 0.0)
        assert np.all(np.diag(basis.b_mat) > 0.0)
        # c is strictly lower triangular: zero diagonal as well
        assert np.all(basis.c_mat[np.triu_indices(6)] == 0.0)

    @pytest.mark.parametrize("h", [0.2, 0.7, 0.9])
    def test_c_matches_minus_diag_times_a(self, h):
        # Independent route: b a = I on the strict lower triangle gives
        # c[n,k] = -b[n,n] a[n,k] for k < n.
        basis = whiten(fgn_covariance(h, 8))
        for n in range(1, 8):
            for k in range(n):
                expected = -basis.b_mat[n, n] * basis.a_mat[n, k]
                assert basis.c_mat[n, k] == pytest.approx(expected, abs=1e-12)

    def test_white_noise_case_exact(self):
        basis = whiten(fgn_covariance(0.5, 8))
        assert np.max(np.abs(basis.b_mat - np.eye(8))) <= 1e-12
        assert np.max(np.abs(basis.a_mat - np.eye(8))) <= 1e-12
        assert np.max(np.abs(basis.c_mat)) <= 1e-12

    def test_rejects_non_positive_definite(self):
        sigma = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefinite):
            whiten(CovarianceSpec(2, sigma))


def ar1_covariance(rho, size):
    idx = np.arange(size)
    return custom_covariance(rho ** np.abs(np.subtract.outer(idx, idx)) / (1 - rho**2))


SOURCES = {f"fgn-h{h}": (lambda m, h=h: fgn_covariance(h, m)) for h in (0.1, 0.3, 0.5, 0.7, 0.9)}
SOURCES["ar1-0.6"] = lambda m: ar1_covariance(0.6, m)


@pytest.fixture(params=sorted(SOURCES), scope="module")
def bases(request):
    """Whitening bases of sizes 1..25 for one covariance family."""
    return [whiten(SOURCES[request.param](m)) for m in range(1, 26)]


class TestWhitenInverse:
    """a = b^{-1} by forward substitution and c in closed form, against
    numpy's dense solve and the defining sums."""

    def test_inverse_is_exactly_lower_triangular(self, bases):
        for basis in bases:
            assert np.all(basis.a_mat[np.triu_indices(basis.size, k=1)] == 0.0)

    def test_inverse_on_both_sides(self, bases):
        for basis in bases:
            eye = np.eye(basis.size)
            assert np.max(np.abs(basis.a_mat @ basis.b_mat - eye)) <= 1e-13
            assert np.max(np.abs(basis.b_mat @ basis.a_mat - eye)) <= 1e-13

    def test_inverse_matches_dense_solve(self, bases):
        for basis in bases:
            dense = np.linalg.solve(basis.b_mat, np.eye(basis.size))
            assert np.max(np.abs(basis.a_mat - dense)) <= 1e-13

    def test_c_matches_defining_sum(self, bases):
        for basis in bases:
            b, a, m = basis.b_mat, basis.a_mat, basis.size
            expected = np.zeros((m, m))
            for n in range(m):
                for k in range(n):
                    expected[n, k] = sum(b[n, l] * a[l, k] for l in range(n))
            assert np.max(np.abs(basis.c_mat - expected)) <= 1e-14

    def test_white_noise_inverse_is_exact_identity(self):
        for m in range(1, 26):
            assert np.array_equal(whiten(fgn_covariance(0.5, m)).a_mat, np.eye(m))


def outer_product_inverse(b):
    """a = b^{-1} by the earlier forward substitution: whole rows, one outer product each."""
    a = np.eye(len(b))
    for k in range(len(b)):
        a[k] /= b[k, k]
        a[k + 1 :] -= np.outer(b[k + 1 :, k], a[k])
    return a


@pytest.mark.parametrize("h", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("size", [1, 2, 9, 65, 257])
def test_inverse_keeps_the_bytes_of_whole_row_substitution(h, size):
    # the substitution touches only columns <= k; the rest stay +0.0, so
    # every artifact built from a_mat keeps its bytes
    basis = whiten(fgn_covariance(h, size))
    assert basis.a_mat.tobytes() == outer_product_inverse(basis.b_mat).tobytes()


class TestCustomCovariance:
    def test_accepts_ar1(self):
        phi = 0.6
        idx = np.arange(5)
        sigma = phi ** np.abs(np.subtract.outer(idx, idx)) / (1 - phi**2)
        cov = custom_covariance(sigma)
        basis = whiten(cov)
        assert np.max(np.abs(basis.b_mat @ basis.b_mat.T - sigma)) <= 1e-12

    def test_rejects_non_square(self):
        with pytest.raises(NotSymmetric):
            custom_covariance(np.ones((2, 3)))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            custom_covariance([[1.0, 0.5], [0.2, 1.0]])

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            custom_covariance([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_nan(self):
        with pytest.raises(NotSymmetric):
            custom_covariance([[1.0, float("nan")], [float("nan"), 1.0]])


class TestWhiteningBasisValidation:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            WhiteningBasis(3, np.eye(2), np.eye(3), np.zeros((3, 3)))
