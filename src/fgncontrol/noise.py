"""Fractional Gaussian noise covariance and its whitening basis.

A fractional Brownian motion with Hurst index h has covariance
``E[B(t)B(s)] = 0.5 * (t^{2h} + s^{2h} - |t-s|^{2h})``.  Its unit-step
increments form a stationary Gaussian sequence with

    rho(n, m) = 0.5 * (|d+1|^{2h} + |d-1|^{2h} - 2|d|^{2h}),   d = n - m,

which has unit variance and reduces to the identity at h = 1/2.  The
increments are correlated, so they cannot be fed to tree or simulation
code that expects i.i.d. standard normals.  `whiten` factors the
covariance as ``sigma = b b^T`` with b lower triangular and positive
diagonal, so that ``xi_n = sum_{k<=n} b[n,k] eta_k`` reproduces the
correlated sequence from independent standard normals eta.  The inverse
``a = b^{-1}`` recovers eta from xi, and the mixed coefficients
``c[n,k] = sum_{l<n} b[n,l] a[l,k]`` give the one-step prediction
``E[xi_n | eta_0..eta_{n-1}] = sum_{k<n} c[n,k] xi_k``.

All matrices are small (tens of steps) dense float64 arrays, so the
factorisation is plain numpy: the Cholesky recursion for b, forward
substitution for a, and c in closed form from b a = I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, NotPositiveDefinite, NotSymmetric

# Pivot floor for the Cholesky recursion.  At or below this the matrix is
# treated as numerically singular.
PIVOT_TOL = 1e-12

_SYMMETRY_TOL = 1e-12


@dataclass(frozen=True)
class CovarianceSpec:
    """Symmetric positive-definite covariance of the first `size` increments."""

    size: int
    sigma: np.ndarray

    def __post_init__(self):
        sigma = np.array(self.sigma, dtype=np.float64)
        if sigma.shape != (self.size, self.size):
            raise NotSymmetric(
                f"covariance must be {self.size}x{self.size}, got shape {sigma.shape}"
            )
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma", sigma)


@dataclass(frozen=True)
class WhiteningBasis:
    """Triangular factors tying correlated increments to white noise.

    Attributes
    ----------
    b_mat : (size, size) lower triangular, positive diagonal; sigma = b b^T.
    a_mat : inverse of b_mat, also lower triangular.
    c_mat : strictly lower triangular prediction coefficients,
        c[n, k] = sum_{l<n} b[n, l] a[l, k] for k < n, zero otherwise.
    """

    size: int
    b_mat: np.ndarray
    a_mat: np.ndarray
    c_mat: np.ndarray

    def __post_init__(self):
        for name in ("b_mat", "a_mat", "c_mat"):
            mat = np.array(getattr(self, name), dtype=np.float64)
            if mat.shape != (self.size, self.size):
                raise ValueError(f"{name} must be {self.size}x{self.size}")
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)


def _count(value, name: str) -> int:
    """`value`, an int or numpy integer >= 1, as an int; else InvalidSpec (a
    ValueError) naming it.  A bool or a float is not a count.  Every public
    stage count, depth, size and path count goes through this one rule."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidSpec(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise InvalidSpec(f"{name} must be >= 1, got {value}")
    return int(value)


def fgn_covariance(h, size: int) -> CovarianceSpec:
    """Covariance of the first `size` unit-step fractional Gaussian increments.

    Parameters
    ----------
    h : Hurst index, a real number in (0, 1); anything else, NaN included,
        raises ValueError.
    size : number of increments, an integer >= 1.
    """
    hurst = float(h)
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"Hurst index must lie in (0, 1), got {hurst!r}")
    size = _count(size, "size")
    two_h = 2.0 * hurst
    d = np.arange(size, dtype=np.float64)
    # Stationary: entry depends on |n - m| only.
    row = 0.5 * (
        np.abs(d + 1.0) ** two_h + np.abs(d - 1.0) ** two_h - 2.0 * d**two_h
    )
    idx = np.abs(np.subtract.outer(np.arange(size), np.arange(size)))
    return CovarianceSpec(size, row[idx])


def custom_covariance(entries) -> CovarianceSpec:
    """Validate a user-supplied covariance matrix.

    Requires a square, symmetric, positive-definite array.  Positive
    definiteness is certified by running the Cholesky recursion; a pivot
    at or below the tolerance raises NotPositiveDefinite.
    """
    sigma = np.array(entries, dtype=np.float64)
    if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1]:
        raise NotSymmetric(f"covariance must be square, got shape {sigma.shape}")
    if not np.isfinite(sigma).all():
        raise NotSymmetric("covariance contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(sigma))))
    if float(np.max(np.abs(sigma - sigma.T))) > _SYMMETRY_TOL * scale:
        raise NotSymmetric("covariance is not symmetric")
    _cholesky_lower(sigma)
    return CovarianceSpec(sigma.shape[0], sigma)


def _cholesky_lower(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular factor of sigma via the classical recursion.

    b[n, m] = (sigma[n, m] - sum_{k<m} b[n, k] b[m, k]) / b[m, m] for m < n,
    b[n, n] = sqrt(sigma[n, n] - sum_{k<n} b[n, k]^2).
    """
    size = sigma.shape[0]
    b = np.zeros((size, size), dtype=np.float64)
    for n in range(size):
        for m in range(n):
            b[n, m] = (sigma[n, m] - b[n, :m] @ b[m, :m]) / b[m, m]
        pivot = sigma[n, n] - b[n, :n] @ b[n, :n]
        if pivot <= PIVOT_TOL:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at step {n} is below tolerance {PIVOT_TOL:.0e}"
            )
        b[n, n] = np.sqrt(pivot)
    return b


def whiten(cov: CovarianceSpec) -> WhiteningBasis:
    """Factor a covariance into its whitening basis (b, a, c).

    Returns the lower-triangular b with sigma = b b^T, its inverse a, and
    the strictly lower-triangular prediction coefficients c.  The inverse
    is taken by forward substitution against the identity, so a
    is exactly lower triangular.  Row n of b a = I reads
    sum_{l<n} b[n,l] a[l,k] + b[n,n] a[n,k] = 0 for k < n, which gives c in
    closed form: c[n,k] = -b[n,n] a[n,k].
    """
    b = _cholesky_lower(np.asarray(cov.sigma))
    a = np.eye(cov.size)
    for k in range(cov.size):  # entries right of column k stay exactly +0.0
        a[k, : k + 1] /= b[k, k]
        a[k + 1 :, : k + 1] -= b[k + 1 :, k, None] * a[k, : k + 1]
    c = np.tril(-np.diag(b)[:, None] * a, -1)
    return WhiteningBasis(cov.size, b, a, c)
