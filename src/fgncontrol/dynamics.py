"""Controlled scalar dynamics on the noise lattice.

The state follows ``X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n``
with cost ``J(u) = E[sum_n l(n, X_n, u_n) + Phi(X_N)]``.  Stage-N
coefficients of b, sigma, l must vanish identically; the constructor spot
checks this, and checks every supplied derivative against central finite
differences, so a mistyped model fails at build time instead of
producing a plausible wrong gradient later.

Coefficient callables receive ``(n, x, u)`` where x and u are dense node
arrays; they must vectorise (plain numpy expressions do) and may return
a scalar when the coefficient is constant.  The private state step
`_step` also accepts tables with a leading row axis, (rows, q^n), one
row per control: `_batch_costs` rolls many controls out in one pass
this way, and the coefficients then see (rows, q^n) arrays.
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
from .lattice import AdaptedValue, NoiseLattice, _contract, _expect, _frozen, _noise

_SPOT_POINTS = 16
_FD_REL_TOL = 1e-5
_ZERO_TOL = 1e-12
# Distance to a box bound below which a control value counts as active.
BOUNDARY_TOL = 1e-9


class Unconstrained:
    """Whole real line; projection is the identity."""

    def project(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64)

    def contains(self, values: np.ndarray, tol: float = _ZERO_TOL) -> bool:
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

    def contains(self, values: np.ndarray, tol: float = _ZERO_TOL) -> bool:
        values = np.asarray(values)
        return bool(
            np.all(np.isfinite(values))
            and np.all(values >= self.lower - tol)
            and np.all(values <= self.upper + tol)
        )


Coefficient = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def _central_diff(fn, n, x, u, wrt: str) -> np.ndarray:
    if wrt == "x":
        h = 1e-6 * np.maximum(1.0, np.abs(x))
        return (np.asarray(fn(n, x + h, u), float) - np.asarray(fn(n, x - h, u), float)) / (2 * h)
    h = 1e-6 * np.maximum(1.0, np.abs(u))
    return (np.asarray(fn(n, x, u + h), float) - np.asarray(fn(n, x, u - h), float)) / (2 * h)


@dataclass(frozen=True)
class ModelSpec:
    """Scalar controlled model over `horizon` stages.

    b, sigma, l and their x/u derivatives are stage coefficients; phi and
    phi_x act on the terminal state alone.  Construction runs two guards:
    stage-`horizon` values of b, sigma, l must vanish at random points,
    and each derivative must agree with central differences of its value
    to 1e-5 relative at random points.
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
        self._check_terminal_zero()
        self._check_derivatives()

    def _spot_points(self):
        rng = np.random.default_rng(1729)
        x = 2.0 * rng.standard_normal(_SPOT_POINTS)
        u = 2.0 * rng.standard_normal(_SPOT_POINTS)
        if isinstance(self.control_set, Box):
            u = self.control_set.project(u)
        return x, u

    def _check_terminal_zero(self):
        x, u = self._spot_points()
        n = self.horizon
        for name in ("b", "sigma", "l"):
            vals = np.asarray(getattr(self, name)(n, x, u), dtype=np.float64)
            if np.max(np.abs(vals)) > _ZERO_TOL:
                raise TerminalConditionViolated(
                    f"{name}({n}, x, u) must vanish identically at the final stage"
                )

    def _check_derivatives(self):
        x, u = self._spot_points()
        pairs = [
            ("b_x", self.b, self.b_x, "x"),
            ("b_u", self.b, self.b_u, "u"),
            ("sigma_x", self.sigma, self.sigma_x, "x"),
            ("sigma_u", self.sigma, self.sigma_u, "u"),
            ("l_x", self.l, self.l_x, "x"),
            ("l_u", self.l, self.l_u, "u"),
        ]
        terminal = [("phi_x", lambda n, x, u: self.phi(x), lambda n, x, u: self.phi_x(x), "x")]
        for n in range(self.horizon + 1):
            for name, value_fn, deriv_fn, wrt in pairs if n < self.horizon else terminal:
                stated = np.broadcast_to(
                    np.asarray(deriv_fn(n, x, u), dtype=np.float64), x.shape
                )
                fd = _central_diff(value_fn, n, x, u, wrt)
                scale = np.maximum(1.0, np.maximum(np.abs(stated), np.abs(fd)))
                if np.max(np.abs(stated - fd) / scale) > _FD_REL_TOL:
                    raise DerivativeMismatch(
                        f"{name} disagrees with finite differences at stage {n}"
                    )


class _StagedProcess:
    """Tuple of adapted values, one per stage, with fixed level offsets."""

    __slots__ = ("stages",)
    _level_offset = 0

    def __init__(self, stages):
        stages = tuple(stages)
        if not stages:
            raise ValueError("process needs at least one stage")
        lat = stages[0].lattice
        for n, v in enumerate(stages):
            if not isinstance(v, AdaptedValue) or v.lattice is not lat:
                raise ValueError("all stages must be AdaptedValue on one lattice")
            if v.level != n + self._level_offset:
                raise ValueError(
                    f"stage {n} must sit at level {n + self._level_offset}, got {v.level}"
                )
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


class ControlProcess(_StagedProcess):
    """Admissible control: stage n is a level-n value, n = 0..N-1."""

    @property
    def horizon(self) -> int:
        return len(self.stages)

    def validate_in(self, control_set, tol: float = _ZERO_TOL):
        for n, u in enumerate(self.stages):
            if not control_set.contains(u.values, tol):
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


def _stage_value(lat, level, raw, rows: tuple[int, ...] = ()) -> np.ndarray:
    """A coefficient's output as a contiguous level-`level` table, checked finite.

    `rows` is the leading row axis of a batched table, () for one table.
    """
    shape = (*rows, lat.level_size(level))
    out = np.ascontiguousarray(np.broadcast_to(np.asarray(raw, float), shape))
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {level}")
    return out


def _step(model: ModelSpec, lat: NoiseLattice, n: int, xn, un) -> np.ndarray:
    """X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n as a table, checked finite.

    xn may carry a leading row axis, (rows, q^n); the result keeps it and
    is frozen.  The noise term is the only leaf-sized temporary: the
    level-n part is added into the product in place.
    """
    rows = xn.shape[:-1]
    drift = _stage_value(lat, n, model.b(n, xn, un), rows)
    vol = _stage_value(lat, n, model.sigma(n, xn, un), rows)
    nxt = vol[..., None] * _noise(lat, n)
    nxt += (xn + drift)[..., None]
    if not np.all(np.isfinite(nxt)):
        raise NonFiniteValue(f"state became non-finite at stage {n + 1}")
    return _frozen(nxt).reshape(*rows, -1)


def _check_depth(model: ModelSpec, lat: NoiseLattice, stages: int):
    """A control of `stages` stages fits the model's horizon and the lattice depth."""
    if stages != model.horizon:
        raise DepthMismatch(f"control has {stages} stages, model needs {model.horizon}")
    if lat.depth < model.horizon:
        raise DepthMismatch(f"lattice depth {lat.depth} < horizon {model.horizon}")


def _states(
    model: ModelSpec, u: ControlProcess, lat: NoiseLattice, stages: int
) -> list[np.ndarray]:
    """X_0..X_stages under control u as frozen level-n tables, 0 <= stages <= horizon.

    Runs `forward`'s checks: lattice depth >= horizon, u built on `lat`
    and every control value inside the model's control set.
    """
    _check_depth(model, lat, u.horizon)
    if u.lattice is not lat:
        raise LevelMismatch("control lives on a different lattice")
    u.validate_in(model.control_set)
    states = [_frozen(np.full(1, float(model.initial_state)))]
    for n in range(stages):
        states.append(_step(model, lat, n, states[n], u[n].values))
    return states


def forward(model: ModelSpec, u: ControlProcess, lat: NoiseLattice) -> StateProcess:
    """Roll the state forward under control u.

    Requires lattice depth >= horizon, a control built on `lat` and every
    control value inside the model's control set.  Builds one
    `AdaptedValue` per stage, sharing the rolled tables.
    """
    states = _states(model, u, lat, model.horizon)
    return StateProcess(AdaptedValue(lat, n, x) for n, x in enumerate(states))


def cost(model: ModelSpec, u: ControlProcess, x: StateProcess, lat: NoiseLattice) -> float:
    """Expected running plus terminal cost of (u, x)."""
    tables = _cost_tables(model, lat, [s.values for s in u], [s.values for s in x])
    return _total_cost(lat, tables)


def _cost_tables(model: ModelSpec, lat: NoiseLattice, u, x) -> list[np.ndarray]:
    """l(n, X_n, u_n) for n < N, then phi(X_N): level-n tables, checked finite.

    u holds the control tables u_0..u_{N-1}, x the state tables X_0..X_N.
    """
    tables = [_stage_value(lat, n, model.l(n, x[n], u[n])) for n in range(model.horizon)]
    tables.append(_stage_value(lat, model.horizon, model.phi(x[model.horizon])))
    return tables


def _total_cost(lat: NoiseLattice, tables) -> float:
    """J from `_cost_tables`: the stage expectations summed in stage order."""
    total = 0.0
    for n, table in enumerate(tables):
        total += _expect(lat, table, n)
    if not np.isfinite(total):
        raise NonFiniteValue("cost is non-finite")
    return total


def _batch_costs(model: ModelSpec, lat: NoiseLattice, controls) -> np.ndarray:
    """J of many controls at once, one per row, without storing the state path.

    Stage n of `controls` is a (rows, q^n) table whose values lie in the
    model's control set.  Each row gets the same additions as
    `cost(model, u, forward(model, u, lat), lat)`; only the contractions
    run over more rows at a time.
    """
    _check_depth(model, lat, len(controls))
    rows = controls[0].shape[:-1]
    xn = np.full((*rows, 1), float(model.initial_state))
    total = np.zeros(rows)
    for n, un in enumerate(controls):
        running = _stage_value(lat, n, model.l(n, xn, un), rows)
        total += _contract(lat, running.reshape(-1), n)
        xn = _step(model, lat, n, xn, un)
    terminal = _stage_value(lat, model.horizon, model.phi(xn), rows)
    total += _contract(lat, terminal.reshape(-1), model.horizon)
    if not np.all(np.isfinite(total)):
        raise NonFiniteValue("cost is non-finite")
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
    all coefficients evaluated along (X*, u*).
    """
    if v.horizon != model.horizon:
        raise DepthMismatch(f"direction has {v.horizon} stages, model needs {model.horizon}")
    out = [lat.constant(0.0, 0)]
    for n in range(model.horizon):
        xn, un, vn, var = x_star[n].values, u_star[n].values, v[n].values, out[n].values
        bx = _stage_value(lat, n, model.b_x(n, xn, un))
        bu = _stage_value(lat, n, model.b_u(n, xn, un))
        sx = _stage_value(lat, n, model.sigma_x(n, xn, un))
        su = _stage_value(lat, n, model.sigma_u(n, xn, un))
        nxt = (sx * var + su * vn)[:, None] * _noise(lat, n)
        nxt += (var + bx * var + bu * vn)[:, None]
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteValue(f"variation became non-finite at stage {n + 1}")
        out.append(AdaptedValue(lat, n + 1, _frozen(nxt)))
    return StateProcess(out)


def perturb(
    u_star: ControlProcess, v: ControlProcess, eps: float, control_set=None
) -> ControlProcess:
    """Convex perturbation u* + eps * v, 0 <= eps <= 1.

    With a control set given, raises OutOfControlSet when any perturbed
    value leaves it instead of silently projecting.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    if v.horizon != u_star.horizon:
        raise DepthMismatch("direction and control have different horizons")
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
        b_u=lambda n, x, u: active(n) * np.ones_like(u),
        sigma_x=lambda n, x, u: np.zeros_like(x),
        sigma_u=lambda n, x, u: active(n) * c * np.ones_like(u),
        l_x=lambda n, x, u: np.zeros_like(x),
        l_u=lambda n, x, u: active(n) * u,
        phi_x=lambda x: x,
        control_set=control_set if control_set is not None else Unconstrained(),
    )
