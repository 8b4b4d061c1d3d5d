"""Controlled scalar dynamics on the noise lattice.

The state follows ``X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n``
with cost ``J(u) = E[sum_n l(n, X_n, u_n) + Phi(X_N)]``.  A model states
the first and second derivatives of b, sigma, l and phi; the second ones
default to 0.  The system acts at stages 0..N-1 only: every stage
coefficient is called with n < N, and at stage N only phi and its
derivatives act, on X_N.  The constructor checks every stated derivative
against central finite differences of what it differentiates, so a
mistyped model, or one that leaves a nonzero second derivative at its
default, fails at build time instead of producing a plausible wrong
gradient or Newton step later.

Coefficient callables receive ``(n, x, u)`` where x and u are dense node
arrays; they must vectorise (plain numpy expressions do) and may return
a scalar when the coefficient is constant.  A scalar derivative is never
expanded to a table: the variation, the adjoint driver, the gradient and
the DDP backward pass multiply it in as a checked-finite scalar.  J, in
`cost` and in every solver, reads phi(X_N) only as E[phi | N-1], built
by `lattice._blocks` blocks.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (
    DepthMismatch,
    DerivativeMismatch,
    InvalidSpec,
    LevelMismatch,
    NonFiniteValue,
    OutOfControlSet,
)
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    _all_finite,
    _blocks,
    _children,
    _contract,
    _expect,
    _frozen,
)
from .noise import _count

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
        return bool(np.isfinite(values).all())

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
            np.isfinite(values).all()
            and (values >= self.lower - _ZERO_TOL).all()
            and (values <= self.upper + _ZERO_TOL).all()
        )


Coefficient = Callable[[int, np.ndarray, np.ndarray], np.ndarray]


def _fd_step(v) -> np.ndarray:
    """The step of a central difference at v: 1e-6 relative, 1e-6 absolute below |v| = 1."""
    return 1e-6 * np.maximum(1.0, np.abs(v))


def _no_term(*_):
    """The default of every stated second derivative, of b, sigma, l and phi: 0."""
    return 0.0


_VALUES = ("b", "sigma", "l")
# The stated derivatives of each value, in the guard's and the solver's order.
_WRT = ("x", "u", "xx", "uu", "xu")


@dataclass(frozen=True)
class ModelSpec:
    """Scalar controlled model over `horizon` stages.

    b, sigma, l and their x/u derivatives are stage coefficients, and so
    are the second derivatives b_xx, b_uu, b_xu, sigma_xx, ..., l_xu, which
    default to 0; phi, phi_x and phi_xx (default 0) act on the terminal
    state alone.  A stage coefficient is called with n in 0..horizon-1
    only, and need not be defined at n = horizon.  Construction draws one
    set of random spot points and runs one guard on them: each stated
    derivative must agree to 1e-5 relative with central differences of what
    it differentiates (DerivativeMismatch): a first derivative of its value,
    _xx and _uu of _x and _u, and _xu the x-difference of _u.  The guard
    writes the coefficients' outputs into the rows of one preallocated
    array, a scalar broadcast by the assignment, and compares them in one
    pass; a NaN or infinite stated derivative or difference quotient fails
    it, and a non-finite spot value of b, sigma, l or phi raises InvalidSpec
    naming it.

    Coefficients must be deterministic: `bsde.adjoint_driver` calls b_x,
    sigma_x and l_x again whenever an adjoint's R is read.  Any coefficient
    may return a scalar where it is constant.  A scalar derivative is never
    expanded to a table on the adjoint route (`variation`,
    `bsde.adjoint_driver`, the gradient rho) or in the DDP backward pass,
    and a scalar zero b_x, sigma_x or l_x drops its term from the adjoint
    driver, a scalar zero second derivative of b and sigma its term from
    the backward pass.  J reads phi(X_N) only as E[phi | N-1], by blocks.
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
    b_xx: Coefficient = _no_term
    b_xu: Coefficient = _no_term
    b_uu: Coefficient = _no_term
    sigma_xx: Coefficient = _no_term
    sigma_xu: Coefficient = _no_term
    sigma_uu: Coefficient = _no_term
    l_xx: Coefficient = _no_term
    l_xu: Coefficient = _no_term
    l_uu: Coefficient = _no_term
    phi_xx: Callable[[np.ndarray], np.ndarray] = _no_term
    control_set: Unconstrained | Box = field(default_factory=Unconstrained)

    def __post_init__(self):
        object.__setattr__(self, "horizon", _count(self.horizon, "horizon"))
        if not np.isfinite(self.initial_state):
            raise NonFiniteValue("initial state must be finite")
        with np.errstate(over="ignore", invalid="ignore"):
            self._check_derivatives()

    def _check_derivatives(self):
        """Every stated derivative against central differences, in one comparison.

        The spot points x and u, 16 seeded draws of N(0, 4) with u projected
        onto a box control set, are stacked as (x + h, u), (x - h, u),
        (x, u + h), (x, u - h) and (x, u).  Per stage each of b, sigma and l
        and its stated _x and _u are called once on them, and its stated _xx,
        _uu and _xu once at (x, u); phi and phi_x on the stacked x, phi_xx on
        x, as a stage `horizon` whose other rows are 0.  A non-finite value of b,
        sigma, l or phi at a stacked point raises InvalidSpec naming it and its
        stage, first stage first.  Otherwise the first failing (stage,
        derivative) pair, stages in order and _x, _u, _xx, _uu, _xu of b,
        sigma and l within one, raises DerivativeMismatch; a non-finite
        derivative or difference fails.
        """
        rng = np.random.default_rng(1729)
        x = 2.0 * rng.standard_normal(_SPOT_POINTS)
        u = 2.0 * rng.standard_normal(_SPOT_POINTS)
        if isinstance(self.control_set, Box):
            u = self.control_set.project(u)
        s, stages = x.size, self.horizon
        hx, hu = _fd_step(x), _fd_step(u)
        xs = np.concatenate([x + hx, x - hx, x, x, x])
        us = np.concatenate([u, u, u + hu, u - hu, u])
        moved = np.zeros((stages + 1, 3, 3, 5 * s))  # the value, _x and _u at (xs, us)
        second = np.zeros((stages + 1, 3, 3, s))  # _xx, _uu and _xu at (x, u)
        for n in range(stages):
            for i, value in enumerate(_VALUES):
                for j, name in enumerate((value, f"{value}_x", f"{value}_u")):
                    moved[n, i, j] = getattr(self, name)(n, xs, us)
                for j, wrt in enumerate(_WRT[2:]):
                    second[n, i, j] = getattr(self, f"{value}_{wrt}")(n, x, u)
        moved[stages, 0, 0] = self.phi(xs)
        moved[stages, 0, 1] = self.phi_x(xs)
        second[stages, 0, 0] = self.phi_xx(x)

        def named(n, i):
            return "phi" if n == stages else _VALUES[i]

        bad = ~np.isfinite(moved[:, :, 0]).all(axis=-1)
        if bad.any():
            n, i = np.unravel_index(bad.argmax(), bad.shape)
            raise InvalidSpec(f"{named(n, i)} is not finite at a spot point of stage {n}")
        moved = moved.reshape(stages + 1, 3, 3, 5, s)
        dx = (moved[..., 0, :] - moved[..., 1, :]) / (2 * hx)
        du = (moved[..., 2, :] - moved[..., 3, :]) / (2 * hu)
        stated = np.concatenate([moved[:, :, 1:, 4], second], axis=2)  # in _WRT order
        fd = np.stack([dx[:, :, 0], du[:, :, 0], dx[:, :, 1], du[:, :, 2], dx[:, :, 2]], axis=2)
        scale = np.maximum(1.0, np.maximum(np.abs(stated), np.abs(fd)))
        bad = ~(np.abs(stated - fd) / scale <= _FD_REL_TOL).all(axis=-1)  # NaN fails too
        if bad.any():
            n, i, j = np.unravel_index(bad.argmax(), bad.shape)
            raise DerivativeMismatch(
                f"{named(n, i)}_{_WRT[j]} disagrees with finite differences at stage {n}"
            )


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
    horizon = _count(horizon, "horizon")
    _check_on(lat, horizon)
    return ControlProcess(lat.constant(value, n) for n in range(horizon))


def random_control(
    lat: NoiseLattice,
    horizon: int,
    rng: np.random.Generator,
    scale: float = 1.0,
    control_set=None,
) -> ControlProcess:
    """Adapted control with independent N(0, scale^2) node values, drawn after `_check_on`."""
    horizon = _count(horizon, "horizon")
    _check_on(lat, horizon)
    stages = []
    for n in range(horizon):
        vals = scale * rng.standard_normal(lat.level_size(n))
        if control_set is not None:
            vals = control_set.project(vals)
        stages.append(AdaptedValue(lat, n, vals))
    return ControlProcess(stages)


def _stage_value(lat, level, raw) -> np.ndarray:
    """A coefficient's output as a read-only contiguous level-`level` table, checked finite.

    A C-contiguous float64 table of the level's q^level entries, what a
    vectorised coefficient returns on level-n operands, is shared through a
    read-only view; a scalar, a size-1 output or any other array is broadcast
    and copied.  `level` comes from the caller's own stage loop, unchecked.
    """
    size = lat.rule.q**level
    if (isinstance(raw, np.ndarray) and raw.dtype == np.float64
            and raw.shape == (size,) and raw.flags.c_contiguous):
        out = raw.view()
    else:
        out = np.ascontiguousarray(np.broadcast_to(np.asarray(raw, float), size))
    if not _all_finite(out):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {level}")
    return _frozen(out)


def _factor(lat, level, raw) -> np.ndarray:
    """A coefficient that only multiplies tables, checked finite: a 0-d output
    stays a float64 scalar, any other becomes `_stage_value`'s level table.
    A Python float, the usual constant, skips numpy's array conversion."""
    out = np.float64(raw) if type(raw) is float else np.asarray(raw, float)
    if out.ndim:
        return _stage_value(lat, level, out)
    if not math.isfinite(out):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {level}")
    return out


def _step(model: ModelSpec, lat: NoiseLattice, n: int, xn, un) -> np.ndarray:
    """X_{n+1} = X_n + b(n, X_n, u_n) + sigma(n, X_n, u_n) xi_n: `_children`'s frozen,
    checked table, written column by column with no leaf-sized temporary."""
    base = xn + _stage_value(lat, n, model.b(n, xn, un))
    return _children(lat, n, base, _stage_value(lat, n, model.sigma(n, xn, un)), "state")


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

    phi(X_N) is evaluated, checked and contracted one `lattice._blocks` block
    of level-(N-1) nodes at a time, so no leaf-sized cost table is built.
    """
    n_final = model.horizon
    for n in range(n_final):
        yield _stage_value(lat, n, model.l(n, x[n], u[n]))
    parents = np.empty(lat.rule.q ** (n_final - 1))
    for part, leaves in _blocks(lat, x[n_final]):
        phi = np.broadcast_to(np.asarray(model.phi(leaves.reshape(-1)), float), leaves.size)
        if not _all_finite(phi):
            raise NonFiniteValue(f"coefficient produced non-finite values at level {n_final}")
        parents[part] = _contract(lat, phi)
    yield parents


def _total_cost(lat: NoiseLattice, tables) -> float:
    """J from `_cost_tables` (a list, or the generator itself): the stage
    expectations summed in stage order; the last table, stage N's, sits at
    level N-1.  NonFiniteValue names the stage where the sum overflowed."""
    total, n = 0.0, 0
    for table in tables:  # not `enumerate`, whose cached tuple would hold it
        total += _expect(lat, table, n - (table.size < lat.rule.q**n))
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
        nxt = _children(lat, n, var + bx * var + bu * vn, sx * var + su * vn, "variation")
        out.append(AdaptedValue(lat, n + 1, nxt))
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
    terminal cost x^2 / 2.  Smooth, non-quadratic, control-dependent noise.
    Its stated second derivatives are b_xx = -sin(x), l_uu = 1 and phi_xx = 1,
    every constant one a scalar."""
    c = float(noise_gain)
    if not np.isfinite(c):
        raise ValueError(f"noise_gain must be finite, got {c}")

    return ModelSpec(
        horizon=horizon,
        initial_state=initial_state,
        b=lambda n, x, u: np.sin(x) + u,
        sigma=lambda n, x, u: c * u,
        l=lambda n, x, u: 0.5 * u**2,
        phi=lambda x: 0.5 * x**2,
        b_x=lambda n, x, u: np.cos(x),
        b_u=lambda n, x, u: 1.0,
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: c,
        l_x=lambda n, x, u: 0.0,
        l_u=lambda n, x, u: u,
        phi_x=lambda x: x,
        b_xx=lambda n, x, u: -np.sin(x),
        l_uu=lambda n, x, u: 1.0,
        phi_xx=lambda x: 1.0,
        control_set=control_set if control_set is not None else Unconstrained(),
    )


def double_well_model(
    horizon: int,
    initial_state: float = 1.0,
    noise_gain: float = 0.5,
    control_set=None,
) -> ModelSpec:
    """Non-convex benchmark: `sin_drift_model`'s stages with the double-well
    terminal cost (x^2 - 1)^2 / 4.  Its phi_xx = 3x^2 - 1 is negative for
    |x| < 1/sqrt(3), so the backward pass's Q_uu can be too."""
    return dataclasses.replace(
        sin_drift_model(horizon, initial_state, noise_gain, control_set),
        phi=lambda x: 0.25 * (x**2 - 1.0) ** 2,
        phi_x=lambda x: x**3 - x,
        phi_xx=lambda x: 3.0 * x**2 - 1.0,
    )
