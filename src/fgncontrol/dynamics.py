"""Controlled scalar dynamics on the noise lattice.

The state follows ``X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n``
with cost ``J(u) = E[sum_n l(n, X_n, u_n) + Phi(X_N)]``.  Stage-N
coefficients of b, sigma, l must vanish identically; the constructor spot
checks this, and checks every supplied derivative against central finite
differences, so a mistyped model fails at build time instead of
producing a plausible wrong gradient later.

Coefficient callables receive ``(n, x, u)`` where x and u are dense node
arrays; they must vectorise (plain numpy expressions do) and may return
a scalar when the coefficient is constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DepthMismatch,
    DerivativeMismatch,
    NonFiniteValue,
    OutOfControlSet,
    TerminalConditionViolated,
)
from .lattice import AdaptedValue, NoiseLattice, as_adapted, expectation, noise_value

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
        for n in range(self.horizon):
            for name, value_fn, deriv_fn, wrt in pairs:
                stated = np.broadcast_to(
                    np.asarray(deriv_fn(n, x, u), dtype=np.float64), x.shape
                )
                fd = _central_diff(value_fn, n, x, u, wrt)
                scale = np.maximum(1.0, np.maximum(np.abs(stated), np.abs(fd)))
                if np.max(np.abs(stated - fd) / scale) > _FD_REL_TOL:
                    raise DerivativeMismatch(
                        f"{name} disagrees with finite differences at stage {n}"
                    )
        hx = 1e-6 * np.maximum(1.0, np.abs(x))
        fd = (np.asarray(self.phi(x + hx), float) - np.asarray(self.phi(x - hx), float)) / (2 * hx)
        stated = np.broadcast_to(np.asarray(self.phi_x(x), dtype=np.float64), x.shape)
        scale = np.maximum(1.0, np.maximum(np.abs(stated), np.abs(fd)))
        if np.max(np.abs(stated - fd) / scale) > _FD_REL_TOL:
            raise DerivativeMismatch("phi_x disagrees with finite differences")


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


def _stage_value(lat, level, raw) -> AdaptedValue:
    out = as_adapted(lat, level, raw)
    if not np.all(np.isfinite(out.values)):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {level}")
    return out


def forward(model: ModelSpec, u: ControlProcess, lat: NoiseLattice) -> StateProcess:
    """Roll the state forward under control u.

    Requires lattice depth >= horizon and every control value inside the
    model's control set.
    """
    n_stages = model.horizon
    if u.horizon != n_stages:
        raise DepthMismatch(f"control has {u.horizon} stages, model needs {n_stages}")
    if lat.depth < n_stages:
        raise DepthMismatch(f"lattice depth {lat.depth} < horizon {n_stages}")
    u.validate_in(model.control_set)
    states = [lat.constant(model.initial_state, 0)]
    for n in range(n_stages):
        xn, un = states[n], u[n]
        drift = _stage_value(lat, n, model.b(n, xn.values, un.values))
        vol = _stage_value(lat, n, model.sigma(n, xn.values, un.values))
        nxt = xn + drift + vol * noise_value(lat, n)
        if not np.all(np.isfinite(nxt.values)):
            raise NonFiniteValue(f"state became non-finite at stage {n + 1}")
        states.append(nxt)
    return StateProcess(states)


def cost(model: ModelSpec, u: ControlProcess, x: StateProcess, lat: NoiseLattice) -> float:
    """Expected running plus terminal cost of (u, x)."""
    total = 0.0
    for n in range(model.horizon):
        stage = _stage_value(lat, n, model.l(n, x[n].values, u[n].values))
        total += expectation(stage)
    terminal = _stage_value(lat, model.horizon, model.phi(x[model.horizon].values))
    total += expectation(terminal)
    if not np.isfinite(total):
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
        xn, un, vn = x_star[n], u_star[n], v[n]
        bx = _stage_value(lat, n, model.b_x(n, xn.values, un.values))
        bu = _stage_value(lat, n, model.b_u(n, xn.values, un.values))
        sx = _stage_value(lat, n, model.sigma_x(n, xn.values, un.values))
        su = _stage_value(lat, n, model.sigma_u(n, xn.values, un.values))
        nxt = out[n] + bx * out[n] + bu * vn + (sx * out[n] + su * vn) * noise_value(lat, n)
        if not np.all(np.isfinite(nxt.values)):
            raise NonFiniteValue(f"variation became non-finite at stage {n + 1}")
        out.append(nxt)
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
