"""Linear-quadratic control under fractional noise.

Dynamics ``X_{n+1} = X_n + A_n X_n + B_n u_n + (C_n X_n + D_n u_n) xi_n``
with cost ``J(u) = 0.5 E[sum_n (Q_n X_n^2 + R_n u_n^2) + G X_N^2]``.
Q_n, G >= 0 and R_n > 0 make J strictly convex in the control, so the
stationarity condition

    u_n = -R_n^{-1} [ B_n p_n + D_n p_n E[xi_n | level n] + b[n,n] D_n q_n ]

characterises the unique optimum.  The bracket plus R_n u_n is the SMP
gradient representative rho_n, so the law reads u = u - rho / R.  The
coupled system is solved by damped fixed-point iteration: each sweep
rolls the state forward, solves the adjoint backward equation, and
relaxes the control toward u - rho / R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution, adjoint_driver, solve_bsde
from .dynamics import (
    ControlProcess,
    ModelSpec,
    StateProcess,
    Unconstrained,
    constant_control,
    cost,
    forward,
    perturb,
    random_control,
)
from .errors import InvalidSpec, NotConverged, WrongHorizon
from .lattice import AdaptedValue, NoiseLattice, expectation
from .noise import WhiteningBasis
from .smp import _gradient

# Damping is halved when a sweep fails to shrink the update residual;
# below this floor the iteration is declared non-convergent.
_DAMPING_FLOOR = 1e-6


@dataclass(frozen=True)
class LqSpec:
    """Coefficients of the scalar LQ problem over `horizon` stages."""

    horizon: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    G: float
    x: float

    def __post_init__(self):
        if self.horizon < 1:
            raise InvalidSpec(f"horizon must be >= 1, got {self.horizon}")
        for name in ("A", "B", "C", "D", "Q", "R"):
            arr = np.array(getattr(self, name), dtype=np.float64).reshape(-1)
            if arr.shape != (self.horizon,):
                raise InvalidSpec(f"{name} must have length {self.horizon}, got {arr.shape[0]}")
            if not np.all(np.isfinite(arr)):
                raise InvalidSpec(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (np.isfinite(self.G) and np.isfinite(self.x)):
            raise InvalidSpec("G and x must be finite")
        if np.any(self.Q < 0.0) or self.G < 0.0:
            raise InvalidSpec("state weights require Q_n >= 0 and G >= 0")
        if np.any(self.R <= 0.0):
            raise InvalidSpec("control weights require R_n > 0")


def as_model(spec: LqSpec) -> ModelSpec:
    """The LQ problem as a generic ModelSpec (unconstrained control).

    Coefficient arrays are padded with a zero final stage, which
    realises the convention that stage-N coefficients vanish.
    """
    pad = lambda arr: np.append(arr, 0.0)
    a, b, c, d = pad(spec.A), pad(spec.B), pad(spec.C), pad(spec.D)
    q, r = pad(spec.Q), pad(spec.R)
    return ModelSpec(
        horizon=spec.horizon,
        initial_state=spec.x,
        b=lambda n, x, u: a[n] * x + b[n] * u,
        sigma=lambda n, x, u: c[n] * x + d[n] * u,
        l=lambda n, x, u: 0.5 * (q[n] * x**2 + r[n] * u**2),
        phi=lambda x: 0.5 * spec.G * x**2,
        b_x=lambda n, x, u: a[n] * np.ones_like(x),
        b_u=lambda n, x, u: b[n] * np.ones_like(u),
        sigma_x=lambda n, x, u: c[n] * np.ones_like(x),
        sigma_u=lambda n, x, u: d[n] * np.ones_like(u),
        l_x=lambda n, x, u: q[n] * x,
        l_u=lambda n, x, u: r[n] * u,
        phi_x=lambda x: spec.G * x,
        control_set=Unconstrained(),
    )


@dataclass(frozen=True)
class LqIterationPoint:
    iteration: int
    cost: float
    residual: float


@dataclass(frozen=True)
class LqSolution:
    """Optimal system: control, state, adjoint pair, iteration record."""

    control: ControlProcess
    state: StateProcess
    adjoint: BsdeSolution
    cost: float
    iterations: int
    residual: float
    trace: tuple[LqIterationPoint, ...]

    @property
    def p(self) -> tuple[AdaptedValue, ...]:
        return self.adjoint.y

    @property
    def q(self) -> tuple[AdaptedValue, ...]:
        return self.adjoint.z


def lq_fixed_point(
    spec: LqSpec,
    lat: NoiseLattice,
    basis: WhiteningBasis,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 500,
    u_init: ControlProcess | None = None,
) -> LqSolution:
    """Damped fixed-point iteration on the optimal control law.

    Each sweep steps u <- u - damping * rho / R toward the candidate
    u - rho / R and stops when the update residual max_n max_node
    |rho_n| / R_n drops to `tol`; the returned adjoint pair is the one
    solved at the returned control.  When a sweep fails to shrink the
    residual the damping is halved (the undamped map can be expansive
    for small R_n), and NotConverged is raised if max_iter or the
    damping floor is hit.
    """
    if not 0.0 < damping <= 1.0:
        raise InvalidSpec(f"damping must lie in (0, 1], got {damping}")
    model = as_model(spec)
    u = u_init if u_init is not None else constant_control(lat, spec.horizon, 0.0)
    trace: list[LqIterationPoint] = []
    prev_residual = np.inf
    residual = np.inf

    for it in range(max_iter + 1):
        x = forward(model, u, lat)
        adj = solve_bsde(adjoint_driver(model, u, x, basis), lat)
        rho = _gradient(model, u, x, adj, lat, basis)
        residual = max(
            float(np.max(np.abs(rho[n].values)) / spec.R[n]) for n in range(spec.horizon)
        )
        trace.append(LqIterationPoint(it, cost(model, u, x, lat), residual))
        if residual <= tol:
            return LqSolution(
                control=u, state=x, adjoint=adj, cost=trace[-1].cost,
                iterations=it, residual=residual, trace=tuple(trace),
            )
        if it == max_iter:
            break
        if residual >= prev_residual:
            damping *= 0.5
            if damping < _DAMPING_FLOOR:
                raise NotConverged(
                    f"damping collapsed below {_DAMPING_FLOOR} at iteration {it}; "
                    f"residual {residual:.3e}",
                    residual=residual,
                )
        prev_residual = residual
        u = ControlProcess(u[n] - rho[n] * (damping / spec.R[n]) for n in range(spec.horizon))
    raise NotConverged(
        f"no fixed point within {max_iter} iterations; residual {residual:.3e}",
        residual=float(residual),
    )


def one_step_closed_form(spec: LqSpec) -> float:
    """Exact optimal control for horizon 1.

    Minimising J(u) = 0.5 E[Q_0 x^2 + R_0 u^2 + G X_1^2] with
    X_1 = (1+A_0)x + B_0 u + (C_0 x + D_0 u) xi_0, E xi_0 = 0 and
    E xi_0^2 = 1 gives a single-variable quadratic.
    """
    if spec.horizon != 1:
        raise WrongHorizon(f"closed form needs horizon 1, got {spec.horizon}")
    a, b, c, d = spec.A[0], spec.B[0], spec.C[0], spec.D[0]
    num = spec.G * ((1.0 + a) * b + c * d) * spec.x
    den = spec.R[0] + spec.G * (b**2 + d**2)
    return float(-num / den)


@dataclass(frozen=True)
class SufficiencyReport:
    passed: bool
    trials: int
    min_cost_gap: float
    worst_quadratic_slack: float


def verify_sufficiency(
    spec: LqSpec,
    u_star: ControlProcess,
    lat: NoiseLattice,
    basis: WhiteningBasis,
    trials: int = 50,
    seed: int = 0,
) -> SufficiencyReport:
    """Perturb the candidate optimum and check it is never beaten.

    Each trial draws a random adapted direction v and eps from
    {1, 0.1, 0.01}, then requires J(u* + eps v) >= J(u*) - 1e-10 and the
    quadratic lower bound J(u) - J(u*) >= 0.5 E sum R_n (eps v_n)^2 - 1e-9.
    """
    model = as_model(spec)
    x_star = forward(model, u_star, lat)
    j_star = cost(model, u_star, x_star, lat)
    rng = np.random.default_rng(seed)
    eps_cycle = (1.0, 0.1, 0.01)
    min_gap = np.inf
    worst_slack = np.inf
    for t in range(trials):
        eps = eps_cycle[t % 3]
        v = random_control(lat, spec.horizon, rng)
        u = perturb(u_star, v, eps)
        gap = cost(model, u, forward(model, u, lat), lat) - j_star
        quad = 0.5 * sum(
            spec.R[n] * expectation((u[n] - u_star[n]) * (u[n] - u_star[n]))
            for n in range(spec.horizon)
        )
        min_gap = min(min_gap, gap)
        worst_slack = min(worst_slack, gap - quad)
    return SufficiencyReport(
        passed=bool(min_gap >= -1e-10 and worst_slack >= -1e-9),
        trials=trials,
        min_cost_gap=float(min_gap),
        worst_quadratic_slack=float(worst_slack),
    )


@dataclass(frozen=True)
class UniquenessReport:
    passed: bool
    starts: int
    max_control_spread: float
    worst_parallelogram_slack: float


def verify_uniqueness(
    spec: LqSpec,
    lat: NoiseLattice,
    basis: WhiteningBasis,
    starts: int = 2,
    seed: int = 0,
    damping: float = 0.5,
    tol: float = 1e-10,
    max_iter: int = 500,
) -> UniquenessReport:
    """Fixed point from several starts, plus the convexity inequality.

    All runs must land on the same control (nodewise <= 1e-6).  For
    random control pairs the strict-convexity bound
    J(u1) + J(u2) >= 2 J((u1+u2)/2) + (min_n R_n / 4) E sum (u1-u2)^2
    must hold with 1e-9 slack; both follow from R_n >= theta > 0.
    """
    if starts < 2:
        raise InvalidSpec(f"need at least 2 starts, got {starts}")
    model = as_model(spec)
    rng = np.random.default_rng(seed)
    inits = [constant_control(lat, spec.horizon, 0.0), constant_control(lat, spec.horizon, 1.0)]
    while len(inits) < starts:
        inits.append(random_control(lat, spec.horizon, rng))
    solutions = [
        lq_fixed_point(spec, lat, basis, damping=damping, tol=tol, max_iter=max_iter, u_init=u0)
        for u0 in inits[:starts]
    ]
    spread = 0.0
    for i in range(len(solutions)):
        for j in range(i + 1, len(solutions)):
            for n in range(spec.horizon):
                diff = np.max(
                    np.abs(solutions[i].control[n].values - solutions[j].control[n].values)
                )
                spread = max(spread, float(diff))

    theta = float(np.min(spec.R))
    worst_slack = np.inf
    for _ in range(5):
        u1 = random_control(lat, spec.horizon, rng)
        u2 = random_control(lat, spec.horizon, rng)
        mid = ControlProcess((u1[n] + u2[n]) * 0.5 for n in range(spec.horizon))
        j1 = cost(model, u1, forward(model, u1, lat), lat)
        j2 = cost(model, u2, forward(model, u2, lat), lat)
        jm = cost(model, mid, forward(model, mid, lat), lat)
        sq = sum(
            expectation((u1[n] - u2[n]) * (u1[n] - u2[n])) for n in range(spec.horizon)
        )
        worst_slack = min(worst_slack, j1 + j2 - 2.0 * jm - 0.25 * theta * sq)
    return UniquenessReport(
        passed=bool(spread <= 1e-6 and worst_slack >= -1e-9),
        starts=starts,
        max_control_spread=spread,
        worst_parallelogram_slack=float(worst_slack),
    )
