"""Gauss-Hermite quadrature lattice for adapted computations.

A depth-M lattice is the full q-ary tree whose stage-n branching carries
the nodes and weights of the order-q Gauss-Hermite rule for the standard
normal weight.  A random variable measurable with respect to the first n
white noises is stored as a dense table of q^n values (`AdaptedValue` at
level n); node (i_0, ..., i_{n-1}) is encoded big-endian, index
``i_0 q^{n-1} + ... + i_{n-1}``.  Conditional expectation onto level n is
the exact contraction of the trailing axes against the weights, so tower
property, linearity and taking-out-what-is-known hold to machine
precision, and moments of each white noise are exact up to degree 2q-1.

The correlated increments xi_n = sum_{k<=n} b[n,k] eta_k are produced by
mixing the white node values through a `WhiteningBasis`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (
    DepthMismatch,
    IndexOutOfRange,
    LatticeTooLarge,
    LevelMismatch,
    UnsupportedOrder,
)
from .noise import WhiteningBasis, fgn_covariance, whiten

MAX_ORDER = 16
# Hard cap on q^depth; a dense table above this is a configuration error.
MAX_PATHS = 10**7


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights matching standard normal moments up to degree 2q-1."""

    q: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64)
        weights = np.array(self.weights, dtype=np.float64)
        if nodes.shape != (self.q,) or weights.shape != (self.q,):
            raise ValueError("nodes and weights must both have length q")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)


def gauss_hermite(q: int) -> QuadratureRule:
    """Order-q Gauss-Hermite rule normalised to the standard normal law."""
    if not isinstance(q, (int, np.integer)) or not 1 <= q <= MAX_ORDER:
        raise UnsupportedOrder(f"quadrature order must be an int in [1, {MAX_ORDER}], got {q!r}")
    nodes, weights = hermegauss(int(q))
    return QuadratureRule(int(q), nodes, weights / np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class NoiseLattice:
    """Full q-ary tree of depth `depth` over a whitening basis."""

    depth: int
    rule: QuadratureRule
    basis: WhiteningBasis

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"depth must be >= 1, got {self.depth}")
        if self.basis.size < self.depth:
            raise DepthMismatch(
                f"basis covers {self.basis.size} stages, lattice needs {self.depth}"
            )
        if self.rule.q**self.depth > MAX_PATHS:
            raise LatticeTooLarge(
                f"q^depth = {self.rule.q}^{self.depth} exceeds the cap of {MAX_PATHS:.0e} paths"
            )

    def level_size(self, level: int) -> int:
        self._check_level(level)
        return self.rule.q**level

    def _check_level(self, level: int):
        if not 0 <= level <= self.depth:
            raise LevelMismatch(
                f"level {level} outside [0, {self.depth}] for this lattice"
            )

    def constant(self, value: float, level: int) -> "AdaptedValue":
        return AdaptedValue(self, level, np.full(self.level_size(level), float(value)))

    def from_values(self, level: int, values) -> "AdaptedValue":
        return AdaptedValue(self, level, values)

    def node_probabilities(self, level: int) -> np.ndarray:
        """Probability of each level-`level` node, product of stage weights."""
        self._check_level(level)
        p = np.ones(1)
        for _ in range(level):
            p = (p[:, None] * self.rule.weights[None, :]).ravel()
        return p

    @property
    def path_probabilities(self) -> np.ndarray:
        return self.node_probabilities(self.depth)


def lattice_for_hurst(h, depth: int, order: int, basis_size: int | None = None) -> NoiseLattice:
    """Build a lattice over the fractional-increment covariance for `h`.

    The basis is sized depth + 1 by default so drivers carrying noise at
    the terminal stage can be handled without rebuilding.
    """
    if basis_size is None:
        basis_size = depth + 1
    if basis_size < depth:
        raise DepthMismatch(f"basis_size {basis_size} < depth {depth}")
    basis = whiten(fgn_covariance(h, basis_size))
    return NoiseLattice(depth, gauss_hermite(order), basis)


class AdaptedValue:
    """Random variable measurable with respect to the first `level` noises.

    Immutable dense table of q^level float64 values on a fixed lattice.
    Arithmetic between values on the same lattice lifts both operands to
    the finer level (a level-n value is constant across its extensions).
    """

    __slots__ = ("lattice", "level", "values")

    def __init__(self, lattice: NoiseLattice, level: int, values):
        lattice._check_level(level)
        arr = np.array(values, dtype=np.float64).reshape(-1)
        if arr.shape != (lattice.level_size(level),):
            raise LevelMismatch(
                f"level {level} needs {lattice.level_size(level)} values, got {arr.shape[0]}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "level", level)
        object.__setattr__(self, "values", arr)

    def __setattr__(self, name, value):
        raise AttributeError("AdaptedValue is immutable")

    def at_level(self, level: int) -> "AdaptedValue":
        """Lift to a finer level by repeating values across extensions."""
        if level == self.level:
            return self
        if level < self.level:
            raise LevelMismatch(f"cannot lower level {self.level} to {level}; use condexp")
        self.lattice._check_level(level)
        q = self.lattice.rule.q
        return AdaptedValue(
            self.lattice, level, np.repeat(self.values, q ** (level - self.level))
        )

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "AdaptedValue":
        return AdaptedValue(self.lattice, self.level, fn(self.values))

    def _binary(self, other, op) -> "AdaptedValue":
        if isinstance(other, AdaptedValue):
            if other.lattice is not self.lattice:
                raise LevelMismatch("operands live on different lattices")
            # one row per coarse node; the coarser operand broadcasts along it
            rows = self.lattice.rule.q ** min(self.level, other.level)
            return AdaptedValue(
                self.lattice,
                max(self.level, other.level),
                op(self.values.reshape(rows, -1), other.values.reshape(rows, -1)),
            )
        return AdaptedValue(self.lattice, self.level, op(self.values, float(other)))

    def __add__(self, other):
        return self._binary(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: np.subtract(b, a))

    def __mul__(self, other):
        return self._binary(other, np.multiply)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, np.divide)

    def __neg__(self):
        return AdaptedValue(self.lattice, self.level, -self.values)

    def __repr__(self):
        return f"AdaptedValue(level={self.level}, size={self.values.shape[0]})"


def as_adapted(lat: NoiseLattice, level: int, raw) -> AdaptedValue:
    """Lift a scalar, dense array or no-finer adapted value to level `level`."""
    if isinstance(raw, AdaptedValue):
        return raw.at_level(level)
    arr = np.asarray(raw, dtype=np.float64)
    if arr.ndim == 0:
        return lat.constant(float(arr), level)
    return AdaptedValue(lat, level, np.broadcast_to(arr, (lat.level_size(level),)))


def white_value(lat: NoiseLattice, n: int) -> AdaptedValue:
    """The stage-n white noise eta_n as a level n+1 value."""
    if not 0 <= n <= lat.depth - 1:
        raise IndexOutOfRange(f"white noise stage {n} outside [0, {lat.depth - 1}]")
    q = lat.rule.q
    return AdaptedValue(lat, n + 1, np.tile(lat.rule.nodes, q**n))


def _noise_table(lat: NoiseLattice, row: np.ndarray, level: int) -> np.ndarray:
    """sum_{k<level} row[k] eta_k as a flat level-`level` table."""
    acc = np.zeros(1)
    for k in range(level):
        acc = (acc[:, None] + row[k] * lat.rule.nodes).reshape(-1)
    return acc


def noise_value(lat: NoiseLattice, n: int) -> AdaptedValue:
    """The correlated increment xi_n = sum_{k<=n} b[n,k] eta_k, level n+1."""
    if not 0 <= n <= lat.depth - 1:
        raise IndexOutOfRange(f"noise stage {n} outside [0, {lat.depth - 1}]")
    return AdaptedValue(lat, n + 1, _noise_table(lat, lat.basis.b_mat[n], n + 1))


def noise_conditional_mean(lat: NoiseLattice, n: int) -> AdaptedValue:
    """E[xi_n | first n noises] = sum_{k<n} b[n,k] eta_k, a level-n value.

    Equivalent to the memory form sum_{k<n} c[n,k] xi_k.
    """
    if not 0 <= n <= lat.depth - 1:
        raise IndexOutOfRange(f"noise stage {n} outside [0, {lat.depth - 1}]")
    return AdaptedValue(lat, n, _noise_table(lat, lat.basis.b_mat[n], n))


def condexp(value: AdaptedValue, level: int) -> AdaptedValue:
    """Conditional expectation onto a coarser level.

    Contracts one trailing stage at a time against the quadrature
    weights; each contraction is exact for the stored table.
    """
    if not 0 <= level <= value.level:
        raise LevelMismatch(f"target level {level} outside [0, {value.level}]")
    q = value.lattice.rule.q
    w = value.lattice.rule.weights
    vals = value.values
    for _ in range(value.level - level):
        vals = vals.reshape(-1, q) @ w
    return AdaptedValue(value.lattice, level, vals)


def expectation(value: AdaptedValue) -> float:
    return float(condexp(value, 0).values[0])


class SamplePaths(NamedTuple):
    """Monte Carlo draws: rows are paths, columns are stages."""

    xi: np.ndarray
    eta: np.ndarray


def sample_paths(basis: WhiteningBasis, horizon: int, count: int, seed: int) -> SamplePaths:
    """Draw `count` increment paths of length `horizon` from the basis.

    Uses the counter-based Philox generator keyed by `seed`, so output is
    a pure function of (basis, horizon, count, seed).
    """
    if not 1 <= horizon <= basis.size:
        raise DepthMismatch(f"horizon {horizon} outside [1, {basis.size}]")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    eta = rng.standard_normal((count, horizon))
    xi = eta @ basis.b_mat[:horizon, :horizon].T
    return SamplePaths(xi=xi, eta=eta)


__all__ = [
    "AdaptedValue",
    "MAX_ORDER",
    "MAX_PATHS",
    "NoiseLattice",
    "QuadratureRule",
    "SamplePaths",
    "as_adapted",
    "condexp",
    "expectation",
    "gauss_hermite",
    "lattice_for_hurst",
    "noise_conditional_mean",
    "noise_value",
    "sample_paths",
    "white_value",
]
