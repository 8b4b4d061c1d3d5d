"""Backward stochastic difference equations on the lattice.

Solves, for given terminal data y measurable at stage N,

    Y_n + Z_n eta_n = Y_{n+1} + f(n+1, Y_{n+1}, Z_{n+1})
                      + g(n+1, Y_{n+1}, Z_{n+1}) xi_{n+1},      Y_N = y,

with Z_N = 0.  The right-hand side is generally not representable as an
affine function of eta_n given level-n information, so the solver uses
projections.  With s = n + 1 the drivers are level-s values, so the
projection of the right-hand side onto level s is the closed form

    M = Y_s + f(s, .) + g(s, .) E[xi_s | level s],

and

    Y_n = E[M | level n],   Z_n = E[eta_n M | level n],
    R_n = M - Y_n - Z_n eta_n.

Y_n and Z_n are the k < 2 moments E[M eta_n^j | level n] of the lattice
primitive `_moments`, so no eta-weighted leaf table is built for Z.

R_n is the representation residual at level n+1; by construction
E[R_n | level n] = 0 and E[eta_n R_n | level n] = 0, and both are
reported so violations of the affine representation never pass silently.

A depth-N lattice always suffices.  A nonzero stage-N g needs
E[xi_N | level N], which reads row N of the whitening basis;
`lattice_for_hurst` sizes its basis one stage past the depth for this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dynamics import ControlProcess, ModelSpec, StateProcess, _check_on, _factor, _stage_value
from .errors import DepthMismatch, NonFiniteValue
from .lattice import AdaptedValue, NoiseLattice, _chunks, _frozen, _mean, _moments

Driver = Callable[[int, AdaptedValue, AdaptedValue], AdaptedValue | float | np.ndarray]


@dataclass(frozen=True)
class DriverSpec:
    """Terminal data plus stage drivers f, g for stages 1..horizon.

    f and g are called as f(n, y, z) with y, z adapted values; the stage-
    horizon f and g must not depend on z (the solver passes Z_N = 0
    there).  A g that is zero at every node of its stage adds no noise
    term, so no basis row is read for it.
    """

    horizon: int
    terminal: AdaptedValue
    f: Driver
    g: Driver

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
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
    """

    y: tuple[AdaptedValue, ...]
    z: tuple[AdaptedValue, ...]
    r: tuple[AdaptedValue, ...]

    @property
    def horizon(self) -> int:
        return len(self.y) - 1

    @property
    def lattice(self) -> NoiseLattice:
        return self.y[0].lattice


def solve_bsde(driver: DriverSpec, lat: NoiseLattice) -> BsdeSolution:
    """Solve the backward equation on the lattice by exact projections.

    `_check_on` checks the driver against `lat`.  A nonzero stage-N g on a
    depth-N lattice also needs basis row N and raises DepthMismatch without it.
    """
    n_stages = driver.horizon
    _check_on(lat, n_stages, driver=driver)

    # built backward; stage s = n + 1 reads y[-1] and z[-1], and z[0] is Z_N = 0
    z_final = _frozen(np.zeros(lat.level_size(n_stages)))
    y, z, r = [driver.terminal], [AdaptedValue(lat, n_stages, z_final)], []
    for n in reversed(range(n_stages)):
        s = n + 1
        projected = y[-1].values + _driver_table(lat, s, driver.f(s, y[-1], z[-1]))
        raw_g = driver.g(s, y[-1], z[-1])
        g = _driver_table(lat, s, raw_g)
        # tested before the broadcast, so a scalar 0 is not scanned leaf-wide
        if np.any(raw_g.values if isinstance(raw_g, AdaptedValue) else raw_g):
            # E[g xi_s | level s] = g E[xi_s | level s]: g is level s
            projected += g * _mean(lat, s)
        y_n, z_n = _moments(lat, projected, 2)
        for name, val in (("Y", y_n), ("Z", z_n)):
            if not np.all(np.isfinite(val)):
                raise NonFiniteValue(f"{name}_{n} is non-finite")
        y.append(AdaptedValue(lat, n, _frozen(y_n)))
        z.append(AdaptedValue(lat, n, _frozen(z_n)))
        # R_n = M - Y_n - Z_n eta_n is written over M, which nothing reads now,
        # one child column j at a time over blocks of level-n nodes, so no
        # temporary is larger than a block
        blocks = projected.reshape(-1, lat.rule.q)
        for start, stop in _chunks(y_n.shape[0], lat.rule.q):
            for j, eta_j in enumerate(lat.rule.nodes):
                col = blocks[start:stop, j]
                col -= y_n[start:stop]
                col -= z_n[start:stop] * eta_j
        r.append(AdaptedValue(lat, s, _frozen(projected)))
    return BsdeSolution(y=tuple(y[::-1]), z=tuple(z[:0:-1]), r=tuple(r[::-1]))


def _driver_table(lat: NoiseLattice, s: int, raw) -> np.ndarray:
    """A driver's output (adapted value, array or scalar) as a level-s table."""
    raw = raw.at_level(s).values if isinstance(raw, AdaptedValue) else raw
    return np.broadcast_to(np.asarray(raw, dtype=np.float64), (lat.level_size(s),))


def residual_orthogonality(sol: BsdeSolution, lat: NoiseLattice) -> tuple[float, float]:
    """Worst nodewise |E[R_n|level n]| and |E[eta_n R_n|level n]|, after
    `_check_on` checks the solution against `lat`."""
    _check_on(lat, sol.horizon, solution=sol)
    worst_mean = 0.0
    worst_eta = 0.0
    for res in sol.r:
        mean, eta = _moments(lat, res.values, 2)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean))))
        worst_eta = max(worst_eta, float(np.max(np.abs(eta))))
    return worst_mean, worst_eta


def _zero(coeff) -> bool:
    """A 0-d zero coefficient: its term of the adjoint driver is dropped."""
    return coeff.ndim == 0 and coeff == 0.0


def adjoint_driver(model: ModelSpec, u_star: ControlProcess, x_star: StateProcess) -> DriverSpec:
    """Adjoint backward equation along a reference pair (u*, X*).

    Terminal data is phi_x(X*_N); for stages 1 <= k <= N-1,

        f(k, p, q) = b_x*(k) p + b[k,k] sigma_x*(k) q + l_x*(k),
        g(k, p, q) = sigma_x*(k) p,

    with coefficients frozen along the reference pair and b the whitening
    of the reference's lattice, `x_star.lattice.basis`.  Stage-N
    coefficients vanish: `ModelSpec` refuses a model whose b_x, sigma_x
    or l_x does not vanish at the final stage.  A coefficient the model
    returns as a scalar stays a scalar, and a scalar zero drops its term,
    so a zero sigma_x makes g the scalar 0 (no noise term is built).
    `_check_on` checks the pair against the model and X*'s lattice.
    """
    n_stages, lat = model.horizon, x_star.lattice
    _check_on(lat, n_stages, control=u_star, state=x_star)

    # Coefficients at stage k use (X*_k, u*_k); k runs over 1..N-1 where
    # a control exists.  Stage N never contributes.
    b_x, sigma_x, l_x = (
        [None] + [
            _factor(lat, k, getattr(model, name)(k, x_star[k].values, u_star[k].values))
            for k in range(1, n_stages)
        ]
        for name in ("b_x", "sigma_x", "l_x")
    )

    b_diag = np.diag(lat.basis.b_mat)

    def f(k, p, q):
        if k == n_stages:
            return 0.0
        out = 0.0 if _zero(b_x[k]) else b_x[k] * p.values
        if not _zero(sigma_x[k]):
            out += b_diag[k] * (sigma_x[k] * q.values)
        if not _zero(l_x[k]):
            out += l_x[k]
        return out

    def g(k, p, q):
        if k == n_stages or _zero(sigma_x[k]):
            return 0.0
        return sigma_x[k] * p.values

    terminal = _stage_value(lat, n_stages, model.phi_x(x_star[n_stages].values))
    return DriverSpec(horizon=n_stages, terminal=AdaptedValue(lat, n_stages, terminal), f=f, g=g)
