"""Stochastic maximum principle: gradient, stationarity, descent.

For an admissible control u with state X and adjoint pair (p, q) solved
backward along (u, X), the cost gradient representative at stage n is

    rho_n = b_u(n) p_n + sigma_u(n) p_n E[xi_n | level n]
            + b[n,n] sigma_u(n) q_n + l_u(n),

an adapted level-n value.  The directional derivative of the cost in an
admissible direction v equals sum_n E[rho_n v_n]; it is computed here by
two independent routes (state variation vs adjoint pairing) and the two
must agree, otherwise something upstream is broken and we refuse to
continue.  Stationarity of a candidate control is classified nodewise
against the control set, and `optimize` runs projected gradient descent
with Armijo backtracking on top of the same residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution, adjoint_driver, solve_bsde
from .dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    StateProcess,
    Unconstrained,
    BOUNDARY_TOL,
    _stage_value,
    cost,
    forward,
    variation,
)
from .errors import DualityMismatch, NoDescent
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    expectation,
    noise_conditional_mean,
    noise_value,
    white_value,
)
from .noise import WhiteningBasis

DUALITY_TOL = 1e-9


@dataclass(frozen=True)
class SmpResidual:
    """Stagewise gradient representative rho_n, each at level n."""

    stages: tuple[AdaptedValue, ...]

    def __len__(self):
        return len(self.stages)

    def __getitem__(self, n) -> AdaptedValue:
        return self.stages[n]

    def __iter__(self):
        return iter(self.stages)


def solve_adjoint(
    model: ModelSpec, u: ControlProcess, lat: NoiseLattice, basis: WhiteningBasis
) -> tuple[StateProcess, BsdeSolution]:
    """Forward state plus backward adjoint pair for a control."""
    x = forward(model, u, lat)
    return x, solve_bsde(adjoint_driver(model, u, x, basis), lat)


def _gradient(
    model: ModelSpec,
    u: ControlProcess,
    x: StateProcess,
    adjoint: BsdeSolution,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> SmpResidual:
    """rho_n along (u, X), with X = forward(u) and the adjoint solved there."""
    b_diag = np.diag(basis.b_mat)
    stages = []
    for n in range(model.horizon):
        xn, un = x[n], u[n]
        bu = _stage_value(lat, n, model.b_u(n, xn.values, un.values))
        su = _stage_value(lat, n, model.sigma_u(n, xn.values, un.values))
        lu = _stage_value(lat, n, model.l_u(n, xn.values, un.values))
        p_n, q_n = adjoint.y[n], adjoint.z[n]
        rho = bu * p_n + su * p_n * noise_conditional_mean(lat, n) + b_diag[n] * (su * q_n) + lu
        stages.append(rho)
    return SmpResidual(tuple(stages))


def smp_residual(
    model: ModelSpec,
    u_star: ControlProcess,
    adjoint: BsdeSolution,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> SmpResidual:
    """Gradient representative along u*, using an adjoint solved at u*."""
    return _gradient(model, u_star, forward(model, u_star, lat), adjoint, lat, basis)


def directional_derivative(
    model: ModelSpec,
    u_star: ControlProcess,
    v: ControlProcess,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> float:
    """d/de J(u* + e v) at e = 0, cross-checked through the adjoint.

    Computes the primal form sum_n E[l_x V_n + l_u v_n] + E[phi_x V_N]
    with V the first variation, and the adjoint form
    sum_n E[(b_u p_n + sigma_u p_n xi_n + sigma_u q_n eta_n xi_n + l_u) v_n].
    Raises DualityMismatch when they differ by more than 1e-9.
    """
    x_star = forward(model, u_star, lat)
    var = variation(model, u_star, x_star, v, lat)
    n_stages = model.horizon

    primal = 0.0
    for n in range(n_stages):
        xn, un = x_star[n], u_star[n]
        lx = _stage_value(lat, n, model.l_x(n, xn.values, un.values))
        lu = _stage_value(lat, n, model.l_u(n, xn.values, un.values))
        primal += expectation(lx * var[n] + lu * v[n])
    phi_x = _stage_value(lat, n_stages, model.phi_x(x_star[n_stages].values))
    primal += expectation(phi_x * var[n_stages])

    adj = solve_bsde(adjoint_driver(model, u_star, x_star, basis), lat)
    dual = 0.0
    for n in range(n_stages):
        xn, un = x_star[n], u_star[n]
        bu = _stage_value(lat, n, model.b_u(n, xn.values, un.values))
        su = _stage_value(lat, n, model.sigma_u(n, xn.values, un.values))
        lu = _stage_value(lat, n, model.l_u(n, xn.values, un.values))
        xi, eta = noise_value(lat, n), white_value(lat, n)
        p_n, q_n = adj.y[n], adj.z[n]
        integrand = bu * p_n + su * p_n * xi + su * q_n * eta * xi + lu
        dual += expectation(integrand * v[n])

    if abs(primal - dual) > DUALITY_TOL:
        raise DualityMismatch(
            f"variation route {primal!r} vs adjoint route {dual!r} "
            f"differ by {abs(primal - dual):.3e}"
        )
    return primal


def classify_nodes(
    rho: np.ndarray, u: np.ndarray, control_set, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Nodewise stationarity violations and pass flags.

    Interior nodes need |rho| <= tol; nodes at the lower bound need
    rho >= -tol, at the upper bound rho <= tol.
    """
    rho = np.asarray(rho, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    if isinstance(control_set, Box):
        at_lower = u - control_set.lower <= BOUNDARY_TOL
        at_upper = control_set.upper - u <= BOUNDARY_TOL
        violation = np.abs(rho)
        violation = np.where(at_lower, np.maximum(-rho, 0.0), violation)
        violation = np.where(at_upper, np.maximum(rho, 0.0), violation)
        # A degenerate node at both bounds can never violate.
        violation = np.where(at_lower & at_upper, 0.0, violation)
    else:
        violation = np.abs(rho)
    return violation, violation <= tol


@dataclass(frozen=True)
class StationarityReport:
    passed: bool
    worst_violation: float
    worst_stage: int
    worst_node: int
    tol: float


def check_stationarity(
    residual: SmpResidual, u_star: ControlProcess, control_set, tol: float
) -> StationarityReport:
    """Classify every node of the residual against the control set."""
    worst = 0.0
    worst_stage = 0
    worst_node = 0
    for n, rho in enumerate(residual):
        violation, _ = classify_nodes(rho.values, u_star[n].values, control_set, tol)
        k = int(np.argmax(violation))
        if violation[k] > worst:
            worst, worst_stage, worst_node = float(violation[k]), n, k
    return StationarityReport(
        passed=worst <= tol,
        worst_violation=worst,
        worst_stage=worst_stage,
        worst_node=worst_node,
        tol=tol,
    )


@dataclass(frozen=True)
class ArmijoRule:
    """Backtracking parameters: accept when the decrease beats
    slope_constant * <rho, u - u_new> in the path inner product."""

    initial_step: float = 1.0
    shrink: float = 0.5
    slope_constant: float = 1e-4
    max_halvings: int = 40


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    cost: float
    step: float
    worst_residual: float


@dataclass(frozen=True)
class OptimizeResult:
    control: ControlProcess
    state: StateProcess
    adjoint: BsdeSolution
    cost: float
    iterations: int
    converged: bool
    trace: tuple[TracePoint, ...]


def _inner(lhs, rhs) -> float:
    """Path inner product sum_n E[a_n b_n]."""
    return sum(expectation(a * b) for a, b in zip(lhs, rhs))


def _project(u: ControlProcess, control_set) -> ControlProcess:
    lat = u.lattice
    return ControlProcess(
        AdaptedValue(lat, n, control_set.project(u[n].values)) for n in range(u.horizon)
    )


def optimize(
    model: ModelSpec,
    u_init: ControlProcess,
    lat: NoiseLattice,
    basis: WhiteningBasis,
    step_rule: ArmijoRule = ArmijoRule(),
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> OptimizeResult:
    """Projected gradient descent on the control, Armijo backtracking.

    Terminates when the stationarity check passes at `tol` (immediately,
    with zero iterations, if u_init already passes).  Cost never
    increases beyond float64 rounding of J; once the Armijo margin drops
    below that rounding, steps are accepted on strict decrease of the
    stationarity residual instead.  Raises NoDescent when backtracking
    exhausts its halvings, and NotConverged never: hitting max_iter
    returns converged=False so the caller can inspect the trace.
    """
    u = u_init
    u.validate_in(model.control_set)
    x, adj = solve_adjoint(model, u, lat, basis)
    j_curr = cost(model, u, x, lat)
    trace: list[TracePoint] = []
    step = 0.0
    iterations = 0

    for _ in range(max_iter + 1):
        residual = _gradient(model, u, x, adj, lat, basis)
        report = check_stationarity(residual, u, model.control_set, tol)
        trace.append(TracePoint(iterations, j_curr, step, report.worst_violation))
        if report.passed:
            return OptimizeResult(
                control=u, state=x, adjoint=adj, cost=j_curr,
                iterations=iterations, converged=True, trace=tuple(trace),
            )
        if iterations >= max_iter:
            break

        # below this, a cost decrease cannot be resolved in float64
        resolution = 8.0 * np.finfo(float).eps * max(1.0, abs(j_curr))
        step = step_rule.initial_step
        for _halving in range(step_rule.max_halvings + 1):
            candidate = _project(
                ControlProcess(u[n] - step * residual[n] for n in range(u.horizon)),
                model.control_set,
            )
            gap = _inner(residual, (u[n] - candidate[n] for n in range(u.horizon)))
            x_new = forward(model, candidate, lat)
            j_new = cost(model, candidate, x_new, lat)
            required = step_rule.slope_constant * gap
            if gap > 0.0 and j_new <= j_curr - required:
                u, x, j_curr = candidate, x_new, j_new
                adj = solve_bsde(adjoint_driver(model, u, x, basis), lat)
                break
            if gap > 0.0 and required <= resolution and j_new <= j_curr + resolution:
                # the Armijo margin is swamped by rounding in J: fall back
                # to the stationarity residual as the line-search merit
                adj_new = solve_bsde(adjoint_driver(model, candidate, x_new, basis), lat)
                res_new = _gradient(model, candidate, x_new, adj_new, lat, basis)
                rep_new = check_stationarity(res_new, candidate, model.control_set, tol)
                if rep_new.worst_violation < report.worst_violation:
                    u, x, j_curr, adj = candidate, x_new, j_new, adj_new
                    break
            step *= step_rule.shrink
        else:
            raise NoDescent(
                f"no sufficient decrease after {step_rule.max_halvings} halvings "
                f"at iteration {iterations}"
            )
        iterations += 1

    return OptimizeResult(
        control=u, state=x, adjoint=adj, cost=j_curr,
        iterations=iterations, converged=False, trace=tuple(trace),
    )
