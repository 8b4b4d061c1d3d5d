"""Gauss-Hermite quadrature lattice for adapted computations.

A depth-M lattice is the full q-ary tree whose stage-n branching carries
the nodes and weights of the order-q Gauss-Hermite rule for the standard
normal weight.  A random variable measurable with respect to the first n
white noises is a dense table of q^n values; node (i_0, ..., i_{n-1}) is
encoded big-endian, index ``i_0 q^{n-1} + ... + i_{n-1}``.  The solvers
work on these flat float64 tables: a stage step views a level-(n+1)
table as (q^n, q) child blocks and contracts the children against the
weights to get E[. | level n] exactly.  `_blocks` owns the walk over
those blocks, a parent slice of at most `_BLOCK_LEAVES` entries at a
time; `_children` writes base + scale xi_n through it one child column
at a time on flat level-n operands, and returns the flat level-(n+1)
table checked finite.  `_moments` is the general contraction: the
moments E[table eta_n^j | level n], j < k, each one (q^n, q) @ (q,)
product against the weight vector w eta^j cached per lattice, so no
leaf-sized eta-weighted table is ever built; `_contract` is its k = 1
case.  `_affine` and `_product` read E[T c | n] and E[T c d | n] off
those moments for stage factors c0 + c1 eta_n, `_stage_factor`'s form of
x + b + sigma xi_n, never built at the leaves; a 0-d zero factor (`_zero`)
drops the terms it multiplies.  The private primitives below own
that format; `AdaptedValue` is the validated boundary type of the public API.

An `AdaptedValue` owns a read-only table.  It shares its input when no
array in the input's base chain is writeable (a frozen table, or a view
of one) and copies anything else, so a caller's array is never frozen
behind its back and a frozen table is never copied.  The solvers freeze
(`_frozen`) the tables they build before wrapping them.

The correlated increments xi_n = sum_{k<=n} b[n,k] eta_k are produced by
mixing the white node values through a `WhiteningBasis`; each lattice
builds the conditional means E[xi_n | first n noises] once and derives
xi_n from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .errors import (
    DepthMismatch,
    IndexOutOfRange,
    LatticeTooLarge,
    LevelMismatch,
    NonFiniteValue,
    UnsupportedOrder,
)
from .noise import WhiteningBasis, _count, fgn_covariance, whiten

MAX_ORDER = 16
# Hard cap on q^depth; a dense table above this is a configuration error.
MAX_PATHS = 10**7
# Hard cap on the depth.  Only q = 1 reaches it under MAX_PATHS (2^24 >
# MAX_PATHS), but the whitening is O(depth^2) in memory and a model's
# guards make O(depth) Python calls, whatever q is.
MAX_DEPTH = 1024
# Child-table entries written per block of parent nodes: one block of the
# table stays in cache across its q column passes.
_BLOCK_LEAVES = 2**16


def _check_paths(q: int, depth: int) -> None:
    """LatticeTooLarge when a depth-`depth` q-ary tree has over MAX_PATHS
    leaves or over MAX_DEPTH levels.

    Every q >= 2 has q^64 > MAX_PATHS, so the power is capped at 64 and a
    huge depth costs no big-integer arithmetic."""
    if q ** min(depth, 64) > MAX_PATHS:
        raise LatticeTooLarge(f"q^depth = {q}^{depth} exceeds the cap of {MAX_PATHS:.0e} paths")
    if depth > MAX_DEPTH:
        raise LatticeTooLarge(f"depth {depth} exceeds the cap of {MAX_DEPTH} stages")


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
    if isinstance(q, bool) or not isinstance(q, (int, np.integer)) or not 1 <= q <= MAX_ORDER:
        raise UnsupportedOrder(f"quadrature order must be an int in [1, {MAX_ORDER}], got {q!r}")
    nodes, weights = hermegauss(int(q))
    return QuadratureRule(int(q), nodes, weights / np.sqrt(2.0 * np.pi))


@dataclass(frozen=True)
class NoiseLattice:
    """Full q-ary tree of depth `depth`, an integer >= 1, over a whitening basis."""

    depth: int
    rule: QuadratureRule
    basis: WhiteningBasis

    def __post_init__(self):
        object.__setattr__(self, "depth", _count(self.depth, "depth"))
        if self.basis.size < self.depth:
            raise DepthMismatch(
                f"basis covers {self.basis.size} stages, lattice needs {self.depth}"
            )
        _check_paths(self.rule.q, self.depth)

    def level_size(self, level: int) -> int:
        self._check_level(level)
        return self.rule.q**level

    def _check_level(self, level: int):
        if not 0 <= level <= self.depth:
            raise LevelMismatch(
                f"level {level} outside [0, {self.depth}] for this lattice"
            )

    def constant(self, value: float, level: int) -> "AdaptedValue":
        return AdaptedValue(self, level, _frozen(np.full(self.level_size(level), float(value))))

    def from_values(self, level: int, values) -> "AdaptedValue":
        return AdaptedValue(self, level, values)

    def node_probabilities(self, level: int) -> np.ndarray:
        """Probability of each level-`level` node, product of stage weights."""
        self._check_level(level)
        p = np.ones(1)
        for _ in range(level):
            p = (p[:, None] * self.rule.weights[None, :]).ravel()
        return p

    @cached_property
    def _noise_means(self) -> tuple["AdaptedValue", ...]:
        """E[xi_n | first n noises] for n = 0..depth-1, built once."""
        return tuple(AdaptedValue(self, n, _conditional_mean(self, n)) for n in range(self.depth))

    @cached_property
    def _moment_weights(self) -> tuple[np.ndarray, ...]:
        """w eta^j for j <= 2, the moments a quadratic stage reads; j = 0 is the weights."""
        w, eta = self.rule.weights, self.rule.nodes
        return (w, _frozen(w * eta), _frozen(w * eta**2))


def lattice_for_hurst(h, depth: int, order: int) -> NoiseLattice:
    """Build a lattice over the fractional-increment covariance for `h`.

    The basis covers depth + 1 stages: a backward equation over `depth`
    stages whose stage-`depth` driver multiplies xi_depth needs
    E[xi_depth | first depth noises], which reads basis row `depth`.
    The path and depth caps are checked before the O(depth^2) whitening.
    """
    rule, depth = gauss_hermite(order), _count(depth, "depth")
    _check_paths(rule.q, depth)
    return NoiseLattice(depth, rule, whiten(fgn_covariance(h, depth + 1)))


class AdaptedValue:
    """Random variable measurable with respect to the first `level` noises.

    Immutable dense table of q^level float64 values on a fixed lattice;
    a frozen C-contiguous float64 input is shared, any other is copied.
    Arithmetic between values on the same lattice lifts both operands to
    the finer level (a level-n value is constant across its extensions).
    """

    __slots__ = ("lattice", "level", "values")

    def __init__(self, lattice: NoiseLattice, level: int, values):
        lattice._check_level(level)
        shared = _is_frozen(values) and values.dtype == np.float64 and values.flags.c_contiguous
        arr = (values if shared else _frozen(np.array(values, dtype=np.float64))).reshape(-1)
        if arr.shape != (lattice.level_size(level),):
            raise LevelMismatch(
                f"level {level} needs {lattice.level_size(level)} values, got {arr.shape[0]}"
            )
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
        table = np.empty((self.values.shape[0], self.lattice.rule.q ** (level - self.level)))
        table[...] = self.values[:, None]
        return AdaptedValue(self.lattice, level, _frozen(table))

    def _binary(self, other, op) -> "AdaptedValue":
        if isinstance(other, AdaptedValue):
            if other.lattice is not self.lattice:
                raise LevelMismatch("operands live on different lattices")
            # one row per coarse node; the coarser operand broadcasts along it
            rows = self.lattice.rule.q ** min(self.level, other.level)
            return AdaptedValue(
                self.lattice,
                max(self.level, other.level),
                _frozen(op(self.values.reshape(rows, -1), other.values.reshape(rows, -1))),
            )
        return AdaptedValue(self.lattice, self.level, _frozen(op(self.values, float(other))))

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
        return AdaptedValue(self.lattice, self.level, _frozen(-self.values))

    def __repr__(self):
        return f"AdaptedValue(level={self.level}, size={self.values.shape[0]})"


def _frozen(table: np.ndarray) -> np.ndarray:
    """Mark a table the caller just built, owning its data, read-only so wrapping shares it."""
    table.setflags(write=False)
    return table


def _all_finite(table) -> bool:
    """Every entry of `table` is finite: `np.isfinite(table).all()` as one ufunc
    reduce, without numpy's Python-level `all` wrapper."""
    return np.logical_and.reduce(np.isfinite(table), axis=None)


def _is_frozen(values) -> bool:
    """No array in the base chain of `values` is writeable."""
    arr = values
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None and isinstance(values, np.ndarray)


def _moments(lat: NoiseLattice, table: np.ndarray, k: int) -> tuple[np.ndarray, ...]:
    """E[table eta_n^j | level n] for j < k (k <= 3) of a level-(n+1) table;
    of a constant c (a 0-d table), the scalars c sum_i w_i eta_i^j."""
    if np.ndim(table) == 0:
        return tuple([table * w.sum() for w in lat._moment_weights[:k]])
    blocks = table.reshape(-1, lat.rule.q)
    return tuple([blocks @ w for w in lat._moment_weights[:k]])


def _zero(coeff) -> bool:
    """A 0-d zero (a float or a 0-d array): a term it multiplies is dropped."""
    return not getattr(coeff, "ndim", 0) and coeff == 0.0


def _affine(m, c):
    """E[T (c0 + c1 eta_n) | level n] from the moments m = `_moments(lat, T, k)`, k >= 2;
    a 0-d zero c1 drops its term."""
    if _zero(c[1]):
        return c[0] * m[0]
    return c[0] * m[0] + c[1] * m[1]


def _product(m, c, d):
    """E[T (c0 + c1 eta_n)(d0 + d1 eta_n) | level n] from the moments m, k >= 3;
    a 0-d zero c1 or d1 drops the terms it multiplies."""
    no_c1, no_d1 = _zero(c[1]), _zero(d[1])
    if not (no_c1 or no_d1):
        return c[0] * d[0] * m[0] + (c[0] * d[1] + c[1] * d[0]) * m[1] + c[1] * d[1] * m[2]
    out = c[0] * d[0] * m[0]
    if not no_c1:
        out = out + c[1] * d[0] * m[1]
    if not no_d1:
        out = out + c[0] * d[1] * m[1]
    return out


def _contract(lat: NoiseLattice, table: np.ndarray, stages: int = 1) -> np.ndarray:
    """Conditional expectation `stages` levels down, one exact stage at a time."""
    for _ in range(stages):
        (table,) = _moments(lat, table, 1)
    return table


def _expect(lat: NoiseLattice, table: np.ndarray, level: int) -> float:
    """Expectation of a level-`level` table."""
    return float(_contract(lat, table, level)[0])


def _conditional_mean(lat: NoiseLattice, n: int) -> np.ndarray:
    """sum_{k<n} b[n,k] eta_k as a frozen level-n table; needs basis row n."""
    if n >= lat.basis.size:
        raise DepthMismatch(f"basis covers {lat.basis.size} stages, stage {n} needs {n + 1}")
    row = lat.basis.b_mat[n]
    acc = np.zeros((1, 1))
    for k in range(n):
        acc = acc.reshape(-1, 1) + row[k] * lat.rule.nodes
    return _frozen(acc).reshape(-1)


def _mean(lat: NoiseLattice, n: int) -> np.ndarray:
    """E[xi_n | first n noises], 0 <= n <= depth; cached below the depth."""
    if n < lat.depth:
        return lat._noise_means[n].values
    return _conditional_mean(lat, n)


def _stage_factor(lat: NoiseLattice, n: int, base, scale) -> tuple:
    """base + scale xi_n as its (c0, c1) in c0 + c1 eta_n, the form `_affine` and
    `_product` read: (base + scale E[xi_n | level n], scale b[n,n]); a 0-d zero
    scale gives (base, scale), with no level-n table built for it."""
    if _zero(scale):
        return base, scale
    return base + scale * _mean(lat, n), scale * lat.basis.b_mat[n, n]


def _chunks(count: int, width: int, budget: int):
    """[start, stop) ranges over `count` items of `width` entries each,
    at most `budget` entries (or one item) per range."""
    size = max(1, budget // width)
    for start in range(0, count, size):
        yield start, min(start + size, count)


def _blocks(lat: NoiseLattice, table: np.ndarray):
    """(parent slice, (..., parents, q) view of its children) over a child-level table, each
    block at most `_BLOCK_LEAVES` entries (read per call; row axes count) or one parent."""
    view = table.reshape(*table.shape[:-1], -1, lat.rule.q)
    for start, stop in _chunks(view.shape[-2], table.size // view.shape[-2], _BLOCK_LEAVES):
        yield slice(start, stop), view[..., start:stop, :]


def _children(lat: NoiseLattice, n: int, base: np.ndarray, scale, what: str) -> np.ndarray:
    """base + scale xi_n as a fresh frozen level-(n+1) table (..., q^(n+1)).

    base is a level-n table, possibly with leading row axes, and scale
    broadcasts to it.  Each child column j is written as
    scale (E[xi_n | level n] + b[n,n] eta_j) + base, the arithmetic of the
    broadcast form bit for bit, a `_blocks` block at a time.  A non-finite
    value raises NonFiniteValue: "`what` became non-finite at stage n + 1".
    """
    mean, shift = _mean(lat, n), lat.basis.b_mat[n, n] * lat.rule.nodes
    if np.shape(scale) != base.shape:
        scale = np.broadcast_to(scale, base.shape)
    out = np.empty((*base.shape[:-1], base.shape[-1] * lat.rule.q))
    for part, block in _blocks(lat, out):
        for j, shift_j in enumerate(shift):
            col = block[..., j]
            np.multiply(scale[..., part], mean[part] + shift_j, out=col)
            col += base[..., part]
    if not _all_finite(out):
        raise NonFiniteValue(f"{what} became non-finite at stage {n + 1}")
    return _frozen(out)


def _check_stage(lat: NoiseLattice, n: int, what: str):
    """IndexOutOfRange "`what` stage n outside [0, depth - 1]" unless 0 <= n < depth."""
    if not 0 <= n <= lat.depth - 1:
        raise IndexOutOfRange(f"{what} stage {n} outside [0, {lat.depth - 1}]")


def white_value(lat: NoiseLattice, n: int) -> AdaptedValue:
    """The stage-n white noise eta_n as a level n+1 value."""
    _check_stage(lat, n, "white noise")
    return AdaptedValue(lat, n + 1, np.broadcast_to(lat.rule.nodes, (lat.level_size(n), lat.rule.q)))


def noise_value(lat: NoiseLattice, n: int) -> AdaptedValue:
    """The correlated increment xi_n = sum_{k<=n} b[n,k] eta_k, level n+1.

    Broadcast from the lattice's cached E[xi_n | first n noises] plus
    b[n,n] eta_n; the level-(n+1) table itself is not cached.
    """
    _check_stage(lat, n, "noise")
    xi = _mean(lat, n)[:, None] + lat.basis.b_mat[n, n] * lat.rule.nodes
    return AdaptedValue(lat, n + 1, _frozen(xi))


def noise_conditional_mean(lat: NoiseLattice, n: int) -> AdaptedValue:
    """E[xi_n | first n noises] = sum_{k<n} b[n,k] eta_k, a level-n value.

    Equivalent to the memory form sum_{k<n} c[n,k] xi_k.  Built once per
    lattice, so repeated calls return the same object.
    """
    _check_stage(lat, n, "noise")
    return lat._noise_means[n]


def condexp(value: AdaptedValue, level: int) -> AdaptedValue:
    """Conditional expectation onto a coarser level."""
    if not 0 <= level <= value.level:
        raise LevelMismatch(f"target level {level} outside [0, {value.level}]")
    lat = value.lattice
    return AdaptedValue(lat, level, _frozen(_contract(lat, value.values, value.level - level)))


def expectation(value: AdaptedValue) -> float:
    return _expect(value.lattice, value.values, value.level)


class SamplePaths(NamedTuple):
    """Monte Carlo draws: rows are paths, columns are stages."""

    xi: np.ndarray
    eta: np.ndarray


def sample_paths(basis: WhiteningBasis, horizon: int, count: int, seed: int) -> SamplePaths:
    """Draw `count` increment paths of length `horizon` from the basis.

    Uses the counter-based Philox generator keyed by `seed`, so output is
    a pure function of (basis, horizon, count, seed).  The horizon and
    count must be integers >= 1 and the seed an integer in [0, 2^64), the
    key's range; anything else raises ValueError.
    """
    horizon, count = _count(horizon, "horizon"), _count(count, "count")
    if horizon > basis.size:
        raise DepthMismatch(f"horizon {horizon} outside [1, {basis.size}]")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    eta = rng.standard_normal((count, horizon))
    xi = eta @ basis.b_mat[:horizon, :horizon].T
    return SamplePaths(xi=xi, eta=eta)


__all__ = [
    "AdaptedValue",
    "MAX_DEPTH",
    "MAX_ORDER",
    "MAX_PATHS",
    "NoiseLattice",
    "QuadratureRule",
    "SamplePaths",
    "condexp",
    "expectation",
    "gauss_hermite",
    "lattice_for_hurst",
    "noise_conditional_mean",
    "noise_value",
    "sample_paths",
    "white_value",
]
