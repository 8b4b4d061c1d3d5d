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

from .dynamics import ControlProcess, ModelSpec, StateProcess, _stage_value
from .errors import DepthMismatch, NonFiniteValue, TerminalConditionViolated
from .lattice import AdaptedValue, NoiseLattice, _blocks, _frozen, _mean, _moments, _white
from .noise import WhiteningBasis

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


def solve_bsde(driver: DriverSpec, lat: NoiseLattice) -> BsdeSolution:
    """Solve the backward equation on the lattice by exact projections.

    Needs lattice depth >= horizon.  A nonzero stage-N g on a depth-N
    lattice also needs basis row N and raises DepthMismatch without it.
    """
    n_stages = driver.horizon
    if lat.depth < n_stages:
        raise DepthMismatch(f"lattice depth {lat.depth} < horizon {n_stages}")
    if driver.terminal.lattice is not lat:
        raise DepthMismatch("terminal data lives on a different lattice")

    # built backward; stage s = n + 1 reads y[-1] and z[-1], and z[0] is Z_N = 0
    z_final = _frozen(np.zeros(lat.level_size(n_stages)))
    y, z, r = [driver.terminal], [AdaptedValue(lat, n_stages, z_final)], []
    for n in reversed(range(n_stages)):
        s = n + 1
        projected = y[-1].values + _driver_table(lat, s, driver.f(s, y[-1], z[-1]))
        g = _driver_table(lat, s, driver.g(s, y[-1], z[-1]))
        if np.any(g):
            # E[g xi_s | level s] = g E[xi_s | level s]: g is level s
            projected += g * _mean(lat, s)
        y_n, z_n = _moments(lat, projected, 2)
        for name, val in (("Y", y_n), ("Z", z_n)):
            if not np.all(np.isfinite(val)):
                raise NonFiniteValue(f"{name}_{n} is non-finite")
        y.append(AdaptedValue(lat, n, _frozen(y_n)))
        z.append(AdaptedValue(lat, n, _frozen(z_n)))
        # R_n = M - Y_n - Z_n eta_n is written over M, which nothing reads now;
        # Z_n eta_j is subtracted one child column j at a time, so no
        # temporary is larger than a level-n table
        blocks = _blocks(lat, projected)
        blocks -= y_n[:, None]
        for j, eta_j in enumerate(_white(lat)):
            col = blocks[:, j]
            col -= z_n * eta_j
        r.append(AdaptedValue(lat, s, _frozen(projected)))
    return BsdeSolution(y=tuple(y[::-1]), z=tuple(z[:0:-1]), r=tuple(r[::-1]))


def _driver_table(lat: NoiseLattice, s: int, raw) -> np.ndarray:
    """A driver's output (adapted value, array or scalar) as a level-s table."""
    raw = raw.at_level(s).values if isinstance(raw, AdaptedValue) else raw
    return np.broadcast_to(np.asarray(raw, dtype=np.float64), (lat.level_size(s),))


def _residual_moments(lat: NoiseLattice, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """E[R_n | level n] and E[eta_n R_n | level n] of a level-(n+1) residual table."""
    return _moments(lat, r, 2)


def residual_orthogonality(sol: BsdeSolution, lat: NoiseLattice) -> tuple[float, float]:
    """Worst nodewise |E[R_n|level n]| and |E[eta_n R_n|level n]|."""
    worst_mean = 0.0
    worst_eta = 0.0
    for res in sol.r:
        mean, eta = _residual_moments(lat, res.values)
        worst_mean = max(worst_mean, float(np.max(np.abs(mean))))
        worst_eta = max(worst_eta, float(np.max(np.abs(eta))))
    return worst_mean, worst_eta


def adjoint_driver(
    model: ModelSpec,
    u_star: ControlProcess,
    x_star: StateProcess,
    basis: WhiteningBasis,
) -> DriverSpec:
    """Adjoint backward equation along a reference pair (u*, X*).

    Terminal data is phi_x(X*_N); for stages 1 <= k <= N-1,

        f(k, p, q) = b_x*(k) p + b[k,k] sigma_x*(k) q + l_x*(k),
        g(k, p, q) = sigma_x*(k) p,

    with coefficients frozen along the reference pair.  Stage-N
    coefficients vanish because b, sigma, l vanish at the final stage;
    this is spot checked on the derivative callables before trusting it.
    """
    n_stages = model.horizon
    if x_star.horizon != n_stages or u_star.horizon != n_stages:
        raise DepthMismatch("reference pair does not match the model horizon")
    if basis.size < n_stages:
        raise DepthMismatch(f"basis covers {basis.size} stages, need {n_stages}")
    lat = x_star.lattice

    rng = np.random.default_rng(1729)
    xs = 2.0 * rng.standard_normal(8)
    us = 2.0 * rng.standard_normal(8)
    for name in ("b_x", "sigma_x", "l_x"):
        vals = np.asarray(getattr(model, name)(n_stages, xs, us), dtype=np.float64)
        if np.max(np.abs(vals)) > 1e-12:
            raise TerminalConditionViolated(
                f"{name} must vanish at stage {n_stages} for the adjoint equation"
            )

    # Coefficients at stage k use (X*_k, u*_k); k runs over 1..N-1 where
    # a control exists.  Stage N never contributes.
    b_x, sigma_x, l_x = (
        [None] + [
            _stage_value(lat, k, getattr(model, name)(k, x_star[k].values, u_star[k].values))
            for k in range(1, n_stages)
        ]
        for name in ("b_x", "sigma_x", "l_x")
    )

    b_diag = np.diag(basis.b_mat)

    def f(k, p, q):
        if k == n_stages:
            return 0.0
        return b_x[k] * p.values + b_diag[k] * (sigma_x[k] * q.values) + l_x[k]

    def g(k, p, q):
        if k == n_stages:
            return 0.0
        return sigma_x[k] * p.values

    terminal = _stage_value(lat, n_stages, model.phi_x(x_star[n_stages].values))
    return DriverSpec(horizon=n_stages, terminal=AdaptedValue(lat, n_stages, terminal), f=f, g=g)
