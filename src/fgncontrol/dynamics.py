"""Controlled scalar dynamics on the noise lattice.

The state follows ``X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n``
with cost ``J(u) = E[sum_n l(n, X_n, u_n) + Phi(X_N)]``.  Stage-N
coefficients of b, sigma, l and their x-derivatives (the adjoint's
driver) must vanish identically; the constructor spot checks this, and
checks every supplied derivative against central finite differences, so
a mistyped model fails at build time instead of producing a plausible
wrong gradient later.

Coefficient callables receive ``(n, x, u)`` where x and u are dense node
arrays; they must vectorise (plain numpy expressions do) and may return
a scalar when the coefficient is constant.  A scalar derivative is never
expanded to a table: the variation, the adjoint driver and the gradient
multiply it in as a checked-finite scalar.  J, in `cost` and in every
solver, reads phi(X_N) only as E[phi | N-1], built by blocks of parent nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DepthMismatch,
    DerivativeMismatch,
    LevelMismatch,
    NonFiniteValue,
    OutOfControlSet,
    TerminalConditionViolated,
)
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    _children,
    _chunks,
    _contract,
    _expect,
    _frozen,
)

_SPOT_POINTS = 16
_FD_REL_TOL = 1e-5
_ZERO_TOL = 1e-12
# Distance to a box bound below which a control value counts as active.
BOUNDARY_TOL = 1e-9


class Unconstrained:
    """Whole real line; projection is the identity."""

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    def contains(self, values: np.ndarray) -> bool:
        return bool(np.all(np.isfinite(values)))

    def __repr__(self):
        return "Unconstrained()"

    def __eq__(self, other):
        return isinstance(other, Unconstrained)


@dataclass(frozen=True)
class Box:
    """Closed interval [lower, upper] applied nodewise."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ValueError("box bounds must be finite")
        if self.lower >= self.upper:
            raise ValueError(f"need lower < upper, got [{self.lower}, {self.upper}]")

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.clip(values, self.lower, self.upper)

    def contains(self, values: np.ndarray) -> bool:
        values = np.asarray(values)
        return bool(
            np.all(np.isfinite(values))
            and np.all(values >= self.lower - _ZERO_TOL)
            and np.all(values <= self.upper + _ZERO_TOL)
        )


Coefficient = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def _dense(values, size: int) -> np.ndarray:
    """A coefficient's values as a float64 array of `size` entries; a scalar is broadcast."""
    return np.broadcast_to(np.asarray(values, dtype=np.float64), (size,))


def _fd_step(v) -> np.ndarray:
    """The step of a central difference at v: 1e-6 relative, 1e-6 absolute below |v| = 1."""
    return 1e-6 * np.maximum(1.0, np.abs(v))


@dataclass(frozen=True)
class ModelSpec:
    """Scalar controlled model over `horizon` stages.

    b, sigma, l and their x/u derivatives are stage coefficients; phi and
    phi_x act on the terminal state alone.  Construction draws one set of
    random spot points and runs two guards on them: the stage-`horizon`
    values of b, sigma, l, b_x, sigma_x and l_x must vanish
    (TerminalConditionViolated), and each derivative must agree with
    central differences of its value to 1e-5 relative (DerivativeMismatch).
    Each guard stacks its stages and derivatives into one array and
    compares them in one pass; a NaN or infinite stage-N value, stated
    derivative or difference quotient fails its guard.

    Any coefficient may return a scalar where it is constant.  A scalar
    derivative is never expanded to a table on the adjoint route
    (`variation`, `bsde.adjoint_driver`, the gradient rho), and a scalar
    zero b_x, sigma_x or l_x drops its term from the adjoint driver.
    J reads phi(X_N) only as E[phi | N-1], by blocks.
    """

    horizon: int
    initial_state: float
    b: Coefficient
    sigma: Coefficient
    l: Coefficient
    phi: Callable[[np.ndarray], np.ndarray]
    b_x: Coefficient
    b_u: Coefficient
    sigma_x: Coefficient
    sigma_u: Coefficient
    l_x: Coefficient
    l_u: Coefficient
    phi_x: Callable[[np.ndarray], np.ndarray]
    control_set: Unconstrained | Box = field(default_factory=Unconstrained)

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not np.isfinite(self.initial_state):
            raise NonFiniteValue("initial state must be finite")
        x, u = self._spot_points()
        self._check_terminal_zero(x, u)
        self._check_derivatives(x, u)

    def _spot_points(self):
        rng = np.random.default_rng(1729)
        x = 2.0 * rng.standard_normal(_SPOT_POINTS)
        u = 2.0 * rng.standard_normal(_SPOT_POINTS)
        if isinstance(self.control_set, Box):
            u = self.control_set.project(u)
        return x, u

    def _check_terminal_zero(self, x, u):
        n = self.horizon
        names = ("b", "sigma", "l", "b_x", "sigma_x", "l_x")
        vals = np.stack([_dense(getattr(self, name)(n, x, u), x.size) for name in names])
        bad = ~np.all(np.abs(vals) <= _ZERO_TOL, axis=1)  # NaN fails too
        if bad.any():
            raise TerminalConditionViolated(
                f"{names[np.argmax(bad)]}({n}, x, u) must vanish identically at the final stage"
            )

    def _check_derivatives(self, x, u):
        """Every stated derivative against central differences, in one comparison.

        Per stage each of b, sigma and l is called once, on the spot points
        stacked as (x + h, u), (x - h, u), (x, u + h) and (x, u - h); phi on
        x ± h.  The first failing (stage, derivative) pair, stages in order
        and b_x, b_u, sigma_x, sigma_u, l_x, l_u within one, raises
        DerivativeMismatch; a non-finite derivative or difference fails.
        """
        s = x.size
        hx, hu = _fd_step(x), _fd_step(u)
        xs = np.concatenate([x + hx, x - hx, x, x])
        us = np.concatenate([u, u, u + hu, u - hu])
        names, stated, moved = [], [], []
        for n in range(self.horizon):
            for value in ("b", "sigma", "l"):
                moved.append(_dense(getattr(self, value)(n, xs, us), 4 * s))
                for wrt in "xu":
                    names.append((f"{value}_{wrt}", n))
                    stated.append(_dense(getattr(self, f"{value}_{wrt}")(n, x, u), s))
        names.append(("phi_x", self.horizon))
        stated.append(_dense(self.phi_x(x), s))
        stated, m = np.stack(stated), np.stack(moved).reshape(-1, 4, s)
        phi = _dense(self.phi(xs[:2 * s]), 2 * s)
        with np.errstate(invalid="ignore", over="ignore"):
            fd = np.stack([(m[:, 0] - m[:, 1]) / (2 * hx), (m[:, 2] - m[:, 3]) / (2 * hu)], axis=1)
            fd = np.concatenate([fd.reshape(-1, s), [(phi[:s] - phi[s:]) / (2 * hx)]])
            scale = np.maximum(1.0, np.maximum(np.abs(stated), np.abs(fd)))
            bad = ~np.all(np.abs(stated - fd) / scale <= _FD_REL_TOL, axis=1)  # NaN fails too
        if bad.any():
            name, n = names[np.argmax(bad)]
            raise DerivativeMismatch(f"{name} disagrees with finite differences at stage {n}")


class _StagedProcess:
    """Tuple of adapted values, stage n at level n."""

    __slots__ = ("stages",)

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise ValueError("process needs at least one stage")
        lat = stages[0].lattice
        for n, v in enumerate(stages):
            if not isinstance(v, AdaptedValue) or v.lattice is not lat:
                raise ValueError("all stages must be AdaptedValue on one lattice")
            if v.level != n:
                raise ValueError(f"stage {n} must sit at level {n}, got {v.level}")
        object.__setattr__(self, "stages", stages)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __len__(self):
        return len(self.stages)

    def __getitem__(self, n) -> AdaptedValue:
        return self.stages[n]

    def __iter__(self):
        return iter(self.stages)

    @property
    def lattice(self) -> NoiseLattice:
        return self.stages[0].lattice

    @property
    def horizon(self) -> int:
        return len(self.stages)


class ControlProcess(_StagedProcess):
    """Admissible control: stage n is a level-n value, n = 0..N-1."""

    def validate_in(self, control_set):
        for n, u in enumerate(self.stages):
            if not control_set.contains(u.values):
                raise OutOfControlSet(f"stage {n} control leaves {control_set!r}")


class StateProcess(_StagedProcess):
    """State path: stage n is a level-n value, n = 0..N."""

    @property
    def horizon(self) -> int:
        return len(self.stages) - 1


def constant_control(lat: NoiseLattice, horizon: int, value: float) -> ControlProcess:
    return ControlProcess(lat.constant(value, n) for n in range(horizon))


def random_control(
    lat: NoiseLattice,
    horizon: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    control_set=None,
) -> ControlProcess:
    """Adapted control with independent N(0, scale^2) node values."""
    stages = []
    for n in range(horizon):
        vals = scale * rng.standard_normal(lat.level_size(n))
        if control_set is not None:
            vals = control_set.project(vals)
        stages.append(AdaptedValue(lat, n, vals))
    return ControlProcess(stages)


def _stage_value(lat, level, raw) -> np.ndarray:
    """A coefficient's output as a contiguous level-`level` table, checked finite."""
    out = np.ascontiguousarray(np.broadcast_to(np.asarray(raw, float), lat.level_size(level)))
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {level}")
    return out


def _factor(lat, level, raw) -> np.ndarray:
    """A coefficient that only multiplies tables, checked finite: a 0-d output
    stays a float64 scalar, any other becomes `_stage_value`'s level table."""
    out = np.asarray(raw, float)
    if out.ndim:
        return _stage_value(lat, level, out)
    if not np.isfinite(out):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {level}")
    return out


def _step(model: ModelSpec, lat: NoiseLattice, n: int, xn, un) -> np.ndarray:
    """X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n as a frozen
    table, checked finite.  `_children` writes it column by column, so no
    leaf-sized temporary is built."""
    base = xn + _stage_value(lat, n, model.b(n, xn, un))
    nxt = _children(lat, n, base, _stage_value(lat, n, model.sigma(n, xn, un)))
    if not np.all(np.isfinite(nxt)):
        raise NonFiniteValue(f"state became non-finite at stage {n + 1}")
    return _frozen(nxt).reshape(-1)


def _check_on(lat: NoiseLattice, horizon: int, **processes):
    """The boundary check of every public entry: DepthMismatch when `lat` is
    shallower than `horizon` or a named process (anything with `horizon` and
    `lattice`) has another, LevelMismatch when one is on another lattice."""
    if lat.depth < horizon:
        raise DepthMismatch(f"lattice depth {lat.depth} < horizon {horizon}")
    for name, process in processes.items():
        if process.horizon != horizon:
            raise DepthMismatch(f"{name} has {process.horizon} stages, expected {horizon}")
        if process.lattice is not lat:
            raise LevelMismatch(f"{name} lives on a different lattice")


def _states(
    model: ModelSpec, u: ControlProcess, lat: NoiseLattice, stages: int
) -> list[np.ndarray]:
    """X_0..X_stages under control u as frozen level-n tables, 0 <= stages <= horizon.

    Runs `forward`'s checks: `_check_on` for u, then every control value
    inside the model's control set.
    """
    _check_on(lat, model.horizon, control=u)
    u.validate_in(model.control_set)
    states = [_frozen(np.full(1, float(model.initial_state)))]
    for n in range(stages):
        states.append(_step(model, lat, n, states[n], u[n].values))
    return states


def forward(model: ModelSpec, u: ControlProcess, lat: NoiseLattice) -> StateProcess:
    """Roll the state forward under control u.

    `_check_on` checks u against the model and `lat`; every control value
    must lie inside the model's control set.  Builds one
    `AdaptedValue` per stage, sharing the rolled tables.
    """
    states = _states(model, u, lat, model.horizon)
    return StateProcess(AdaptedValue(lat, n, x) for n, x in enumerate(states))


def cost(model: ModelSpec, u: ControlProcess, x: StateProcess, lat: NoiseLattice) -> float:
    """Expected running plus terminal cost of (u, x), `_total_cost` of `_cost_tables`.

    `_check_on` checks u and x against the model and `lat`.
    """
    _check_on(lat, model.horizon, control=u, state=x)
    return _total_cost(lat, _cost_tables(model, lat, [s.values for s in u], [s.values for s in x]))


def _cost_tables(model: ModelSpec, lat: NoiseLattice, u, x):
    """Yield l(n, X_n, u_n) as level-n tables for n < N, then E[phi(X_N) | N-1]
    as a level-(N-1) table, each checked finite; u holds u_0..u_{N-1}, x X_0..X_N.

    phi(X_N) is evaluated, checked and contracted one `_chunks` block of
    level-(N-1) nodes at a time, so no leaf-sized cost table is built.
    """
    n_final = model.horizon
    for n in range(n_final):
        yield _stage_value(lat, n, model.l(n, x[n], u[n]))
    leaves = x[n_final].reshape(lat.level_size(n_final - 1), lat.rule.q)
    parents = np.empty(leaves.shape[0])
    for start, stop in _chunks(*leaves.shape):
        block = leaves[start:stop].reshape(-1)
        phi = np.broadcast_to(np.asarray(model.phi(block), float), block.shape)
        if not np.all(np.isfinite(phi)):
            raise NonFiniteValue(f"coefficient produced non-finite values at level {n_final}")
        parents[start:stop] = _contract(lat, phi)
    yield parents


def _total_cost(lat: NoiseLattice, tables) -> float:
    """J from `_cost_tables` (a list, or the generator itself): the stage
    expectations summed in stage order; the last table, stage N's, sits at
    level N-1.  NonFiniteValue names the stage where the sum overflowed."""
    total, n = 0.0, 0
    for table in tables:  # not `enumerate`, whose cached tuple would hold it
        total += _expect(lat, table, n - (table.size < lat.level_size(n)))
        del table  # not held while the generator builds the next table
        if not np.isfinite(total):
            raise NonFiniteValue(f"cost became non-finite at stage {n}")
        n += 1
    return total


def variation(
    model: ModelSpec,
    u_star: ControlProcess,
    x_star: StateProcess,
    v: ControlProcess,
    lat: NoiseLattice,
) -> StateProcess:
    """First variation of the state in direction v around (u*, X*).

    V_0 = 0 and
    V_{n+1} = V_n + b_x V_n + b_u v_n + (sigma_x V_n + sigma_u v_n) xi_n,
    all coefficients evaluated along (X*, u*).  `_check_on` checks u*, X*
    and v against the model and `lat`.
    """
    _check_on(lat, model.horizon, control=u_star, state=x_star, direction=v)
    out = [lat.constant(0.0, 0)]
    for n in range(model.horizon):
        xn, un, vn, var = x_star[n].values, u_star[n].values, v[n].values, out[n].values
        bx, bu, sx, su = (
            _factor(lat, n, getattr(model, name)(n, xn, un))
            for name in ("b_x", "b_u", "sigma_x", "sigma_u")
        )
        nxt = _children(lat, n, var + bx * var + bu * vn, sx * var + su * vn)
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteValue(f"variation became non-finite at stage {n + 1}")
        out.append(AdaptedValue(lat, n + 1, _frozen(nxt)))
    return StateProcess(out)


def perturb(
    u_star: ControlProcess, v: ControlProcess, eps: float, control_set=None
) -> ControlProcess:
    """Convex perturbation u* + eps * v, 0 <= eps <= 1.

    `_check_on` checks v against u*.  With a control set given, raises
    OutOfControlSet when any perturbed value leaves it instead of projecting.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    _check_on(u_star.lattice, u_star.horizon, direction=v)
    out = ControlProcess(u_star[n] + eps * v[n] for n in range(u_star.horizon))
    if control_set is not None:
        out.validate_in(control_set)
    return out


def sin_drift_model(
    horizon: int,
    initial_state: float = 1.0,
    noise_gain: float = 0.5,
    control_set=None,
) -> ModelSpec:
    """Nonlinear benchmark: b = sin(x) + u, sigma = noise_gain * u, l = u^2 / 2,
    terminal cost x^2 / 2.  Smooth, non-quadratic, control-dependent noise."""
    c = float(noise_gain)
    n_final = int(horizon)

    def active(n):
        return 1.0 if n < n_final else 0.0

    return ModelSpec(
        horizon=n_final,
        initial_state=initial_state,
        b=lambda n, x, u: active(n) * (np.sin(x) + u),
        sigma=lambda n, x, u: active(n) * c * u,
        l=lambda n, x, u: active(n) * 0.5 * u**2,
        phi=lambda x: 0.5 * x**2,
        b_x=lambda n, x, u: active(n) * np.cos(x),
        b_u=lambda n, x, u: active(n),
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: active(n) * c,
        l_x=lambda n, x, u: 0.0,
        l_u=lambda n, x, u: active(n) * u,
        phi_x=lambda x: x,
        control_set=control_set if control_set is not None else Unconstrained(),
    )
