"""Backward stochastic difference equations on the lattice.

Solves, for given terminal data y measurable at stage N,

    Y_n + Z_n eta_n = Y_{n+1} + f(n+1, Y_{n+1}, Z_{n+1})
                      + g(n+1, Y_{n+1}, Z_{n+1}) xi_{n+1},      Y_N = y,

with Z_N = 0, a level-0 zero to the stage-N driver.  The right-hand side
is generally not representable as an affine function of eta_n given
level-n information, so the solver uses projections.  With s = n + 1 the
drivers are level-s values, so the projection of the right-hand side
onto level s is the closed form

    M = Y_s + f(s, .) + g(s, .) E[xi_s | level s],

and

    Y_n = E[M | level n],   Z_n = E[eta_n M | level n],
    R_n = M - Y_n - Z_n eta_n.

Y_n and Z_n are the k < 2 moments E[M eta_n^j | level n] of the lattice
primitive `_moments`, so no eta-weighted leaf table is built for Z.

R_n is the representation residual at level n+1; by construction
E[R_n | level n] = 0 and E[eta_n R_n | level n] = 0, and both are
reported so violations of the affine representation never pass silently.
The solve builds each M, takes Y_n and Z_n from it and drops it: only
(Y, Z) enter the maximum principle's gradient.  R is derived when it is
read, M rebuilt from Y_{n+1}, Z_{n+1} and the driver by the solve's own
arithmetic, so a read R_n has the bytes the solve's M gives.  The adjoint
driver stores no coefficient either: it reads stage k's from the model
and the reference pair when a solve, or a read of R, reaches stage k.

A depth-N lattice always suffices.  A nonzero stage-N g needs
E[xi_N | level N], which reads row N of the whitening basis;
`lattice_for_hurst` sizes its basis one stage past the depth for this.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .dynamics import ControlProcess, ModelSpec, StateProcess, _check_on, _factor, _stage_value
from .errors import DepthMismatch, NonFiniteValue
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    _all_finite,
    _blocks,
    _frozen,
    _mean,
    _moments,
    _zero,
)
from .noise import _count

Driver = Callable[[int, AdaptedValue, AdaptedValue], AdaptedValue | float | np.ndarray]


@dataclass(frozen=True)
class DriverSpec:
    """Terminal data plus stage drivers f, g for stages 1..horizon.

    f and g are called as f(n, y, z) with y, z adapted values; the stage-
    horizon f and g must not depend on z (the solver passes Z_N = 0 there,
    a level-0 zero).  A g that is zero at every node of its stage adds no
    noise term, so no basis row is read for it.  f and g must be
    deterministic, the same output for the same arguments: reading a
    solution's R calls them again.
    """

    horizon: int
    terminal: AdaptedValue
    f: Driver
    g: Driver

    def __post_init__(self):
        object.__setattr__(self, "horizon", _count(self.horizon, "horizon"))
        if self.terminal.level != self.horizon:
            raise DepthMismatch(
                f"terminal data at level {self.terminal.level}, expected {self.horizon}"
            )

    @property
    def lattice(self) -> NoiseLattice:
        return self.terminal.lattice


@dataclass(frozen=True)
class BsdeSolution:
    """Backward solution: Y_n (levels 0..N), Z_n and R_n (stages 0..N-1).

    Z_n sits at level n; R_n is the level-(n+1) representation residual.
    `r` is read by `len`, `r[n]` and iteration: a tuple passed here, or,
    from `solve_bsde`, a read-only sequence that derives R_n from the
    solution and the driver each time it is read.
    """

    y: tuple[AdaptedValue, ...]
    z: tuple[AdaptedValue, ...]
    r: Sequence[AdaptedValue]

    @property
    def horizon(self) -> int:
        return len(self.y) - 1

    @property
    def lattice(self) -> NoiseLattice:
        return self.y[0].lattice

    @cached_property
    def _r_moments(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(E[R_n | level n], E[eta_n R_n | level n]) for each stage n, taken
        once per solution; each by `_moments` over the whole R_n, never per
        block (gemv's rounding of a row depends on how many rows it gets),
        and R_n is dropped before R_{n+1} is read."""
        return tuple(_moments(self.lattice, self.r[n].values, 2) for n in range(len(self.r)))


class _Residuals(Sequence):
    """R_0..R_{N-1} of a `solve_bsde` solution, derived when read: R_n is
    rebuilt from Y_{n+1}, Z_{n+1} and the stage driver by `_projection`, the
    solve's own arithmetic, so its bytes are the same on every read."""

    def __init__(self, driver: DriverSpec, y: tuple, z: tuple):
        self._driver, self._y, self._z = driver, y, z

    def __len__(self) -> int:
        return len(self._z)

    def __getitem__(self, n):
        stages = range(len(self._z))[n]  # a tuple's IndexError, and a slice's range
        if isinstance(stages, range):
            return tuple(self[k] for k in stages)
        lat, s = self._driver.lattice, stages + 1
        z_s = self._z[s] if s < len(self._z) else lat.constant(0.0, 0)
        projected = _projection(self._driver, s, self._y[s], z_s)
        # R_n = M - Y_n - Z_n eta_n in place, a child column at a time per
        # `_blocks` block, so no temporary is larger than a block
        y_n, z_n = self._y[stages].values, self._z[stages].values
        for part, block in _blocks(lat, projected):
            for j, eta_j in enumerate(lat.rule.nodes):
                col = block[:, j]
                col -= y_n[part]
                col -= z_n[part] * eta_j
        return AdaptedValue(lat, s, _frozen(projected))


def solve_bsde(driver: DriverSpec, lat: NoiseLattice) -> BsdeSolution:
    """Solve the backward equation on the lattice by exact projections.

    Computes Y_n and Z_n only; the solution's R derives R_n when it is read.
    `_check_on` checks the driver against `lat`.  A nonzero stage-N g on a
    depth-N lattice also needs basis row N and raises DepthMismatch without it.
    """
    n_stages = driver.horizon
    _check_on(lat, n_stages, driver=driver)

    # built backward from Y_N and a level-0 Z_N = 0; M is dropped once its moments are taken
    y, z, z_next = [driver.terminal], [], lat.constant(0.0, 0)
    for n in reversed(range(n_stages)):
        y_n, z_n = _moments(lat, _projection(driver, n + 1, y[-1], z_next), 2)
        for name, val in (("Y", y_n), ("Z", z_n)):
            if not _all_finite(val):
                raise NonFiniteValue(f"{name}_{n} is non-finite")
        y.append(AdaptedValue(lat, n, _frozen(y_n)))
        z_next = AdaptedValue(lat, n, _frozen(z_n))
        z.append(z_next)
    y, z = tuple(y[::-1]), tuple(z[::-1])
    return BsdeSolution(y=y, z=z, r=_Residuals(driver, y, z))


def _projection(driver: DriverSpec, s: int, y: AdaptedValue, z: AdaptedValue) -> np.ndarray:
    """M = Y_s + f(s, .) + g(s, .) E[xi_s | level s], a fresh writable level-s
    table, from the stage-s pair (y, z); the solve and the R rebuild share it."""
    lat = driver.lattice
    projected = y.values + _driver_table(lat, s, driver.f(s, y, z))
    raw_g = driver.g(s, y, z)
    g = _driver_table(lat, s, raw_g)
    # tested before the broadcast, so a scalar 0 is not scanned leaf-wide
    if np.any(raw_g.values if isinstance(raw_g, AdaptedValue) else raw_g):
        # E[g xi_s | level s] = g E[xi_s | level s]: g is level s
        projected += g * _mean(lat, s)
    return projected


def _driver_table(lat: NoiseLattice, s: int, raw) -> np.ndarray:
    """A driver's output (adapted value, array or scalar) as a level-s table."""
    raw = raw.at_level(s).values if isinstance(raw, AdaptedValue) else raw
    return np.broadcast_to(np.asarray(raw, dtype=np.float64), (lat.rule.q**s,))


def residual_orthogonality(sol: BsdeSolution, lat: NoiseLattice) -> tuple[float, float]:
    """Worst nodewise |E[R_n|level n]| and |E[eta_n R_n|level n]|, after
    `_check_on` checks the solution against `lat`.

    The moments are the solution's own, taken once (deriving each R_n once)
    and shared with `reporting.write_bsde_csv`."""
    _check_on(lat, sol.horizon, solution=sol)
    worst_mean = 0.0
    worst_eta = 0.0
    for mean, eta in sol._r_moments:
        worst_mean = max(worst_mean, float(np.max(np.abs(mean))))
        worst_eta = max(worst_eta, float(np.max(np.abs(eta))))
    return worst_mean, worst_eta


def adjoint_driver(model: ModelSpec, u_star: ControlProcess, x_star: StateProcess) -> DriverSpec:
    """Adjoint backward equation along a reference pair (u*, X*).

    Terminal data is phi_x(X*_N); for stages 1 <= k <= N-1,

        f(k, p, q) = b_x*(k) p + b[k,k] sigma_x*(k) q + l_x*(k),
        g(k, p, q) = sigma_x*(k) p,

    with b the whitening of the reference's lattice, `x_star.lattice.basis`.
    Stage k's coefficients are read at (X*_k, u*_k) when a solve reaches
    stage k, and again whenever R is read; the driver holds the caller's
    tables X*_0..X*_{N-1} and u*, never X*_N.  f and g are 0 at stage N:
    the system does not act there, only the terminal data remains, and the
    model is not called.  A coefficient the model returns as a scalar stays
    a scalar, and a scalar zero drops its term, so a zero sigma_x makes g
    the scalar 0 (no noise term is built).  `_check_on` checks the pair
    against the model and X*'s lattice.
    """
    n_stages, lat = model.horizon, x_star.lattice
    _check_on(lat, n_stages, control=u_star, state=x_star)
    x, u = [x_star[k].values for k in range(n_stages)], [s.values for s in u_star]

    def coefficient(name, k):
        return _factor(lat, k, getattr(model, name)(k, x[k], u[k]))

    def f(k, p, q):
        if k == n_stages:
            return 0.0
        b_x, sigma_x, l_x = (coefficient(name, k) for name in ("b_x", "sigma_x", "l_x"))
        out = 0.0 if _zero(b_x) else b_x * p.values
        if not _zero(sigma_x):
            out += lat.basis.b_mat[k, k] * (sigma_x * q.values)
        if not _zero(l_x):
            out += l_x
        return out

    def g(k, p, q):
        sigma_x = 0.0 if k == n_stages else coefficient("sigma_x", k)
        return 0.0 if _zero(sigma_x) else sigma_x * p.values

    terminal = _stage_value(lat, n_stages, model.phi_x(x_star[n_stages].values))
    return DriverSpec(horizon=n_stages, terminal=AdaptedValue(lat, n_stages, terminal), f=f, g=g)
