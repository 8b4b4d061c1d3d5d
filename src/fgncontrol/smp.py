"""Stochastic maximum principle: gradient, stationarity, optimization.

For an admissible control u with state X and adjoint pair (p, q) solved
backward along (u, X), the cost gradient representative at stage n is

    rho_n = b_u(n) p_n + sigma_u(n) p_n E[xi_n | level n]
            + b[n,n] sigma_u(n) q_n + l_u(n),

an adapted level-n value.  The directional derivative of the cost in an
admissible direction v equals sum_n E[rho_n v_n]; it is computed here by
two independent routes (state variation vs adjoint pairing) and the two
must agree, otherwise something upstream is broken and we refuse to
continue.  Stationarity of a candidate control is classified nodewise
against the control set.  `optimize` takes second-order steps from
differential dynamic programming on the tree, dividing by |Q_uu| floored
at 1e-8 per node so that a non-convex node still gets a descent step,
with Armijo backtracking.  Its backward pass carries the open-loop
adjoint lambda, which is p, so each iteration reads rho from that pass;
once that rho passes the stationarity check, the adjoint equation is
solved once and its rho certifies the result.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution, adjoint_driver, solve_bsde
from .dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    StateProcess,
    BOUNDARY_TOL,
    _central_diff,
    _stage_value,
    _StagedProcess,
    _states,
    _cost_tables,
    _step,
    _total_cost,
    forward,
    variation,
)
from .errors import DualityMismatch, NoDescent, NonFiniteValue, OutOfControlSet
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    _blocks,
    _contract,
    _expect,
    _frozen,
    _mean,
    _noise,
    _white,
)
from .noise import WhiteningBasis

DUALITY_TOL = 1e-9


class SmpResidual(_StagedProcess):
    """Stagewise gradient representative rho_n, each at level n."""


def solve_adjoint(
    model: ModelSpec, u: ControlProcess, lat: NoiseLattice, basis: WhiteningBasis
) -> tuple[StateProcess, BsdeSolution]:
    """Forward state plus backward adjoint pair for a control."""
    x = forward(model, u, lat)
    return x, solve_bsde(adjoint_driver(model, u, x, basis), lat)


def _gradient(
    model: ModelSpec,
    u: ControlProcess,
    x: list[np.ndarray],
    adjoint: BsdeSolution,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> SmpResidual:
    """rho_n along (u, X), with the adjoint solved there.

    x holds the level-n state tables X_0..X_{N-1} of forward(u); a
    stage-N table, if present, is not read.
    """
    b_diag = np.diag(basis.b_mat)
    stages = []
    for n in range(model.horizon):
        xn, un = x[n], u[n].values
        bu = _stage_value(lat, n, model.b_u(n, xn, un))
        su = _stage_value(lat, n, model.sigma_u(n, xn, un))
        lu = _stage_value(lat, n, model.l_u(n, xn, un))
        p_n, q_n = adjoint.y[n].values, adjoint.z[n].values
        rho = bu * p_n + su * p_n * _mean(lat, n) + b_diag[n] * (su * q_n) + lu
        stages.append(AdaptedValue(lat, n, _frozen(rho)))
    return SmpResidual(stages)


def smp_residual(
    model: ModelSpec,
    u_star: ControlProcess,
    adjoint: BsdeSolution,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> SmpResidual:
    """Gradient representative along u*, using an adjoint solved at u*.

    Rolls out X_0..X_{N-1} only: rho never reads X_N, whose finiteness
    the `forward` that built the adjoint has already checked.
    """
    x = _states(model, u_star, lat, model.horizon - 1)
    return _gradient(model, u_star, x, adjoint, lat, basis)


def _derivative_routes(
    model: ModelSpec,
    u_star: ControlProcess,
    v: ControlProcess,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> tuple[float, float]:
    """Both routes to d/de J(u* + e v) at e = 0, as (primal, dual).

    The primal form is sum_n E[l_x V_n + l_u v_n] + E[phi_x V_N] with V
    the first variation; the adjoint form is
    sum_n E[(b_u p_n + sigma_u p_n xi_n + sigma_u q_n eta_n xi_n + l_u) v_n].
    """
    x_star = forward(model, u_star, lat)
    var = variation(model, u_star, x_star, v, lat)
    n_stages = model.horizon

    primal = 0.0
    for n in range(n_stages):
        xn, un = x_star[n].values, u_star[n].values
        lx = _stage_value(lat, n, model.l_x(n, xn, un))
        lu = _stage_value(lat, n, model.l_u(n, xn, un))
        primal += _expect(lat, lx * var[n].values + lu * v[n].values, n)
    phi_x = _stage_value(lat, n_stages, model.phi_x(x_star[n_stages].values))
    primal += _expect(lat, phi_x * var[n_stages].values, n_stages)

    adj = solve_bsde(adjoint_driver(model, u_star, x_star, basis), lat)
    dual = 0.0
    for n in range(n_stages):
        xn, un = x_star[n].values, u_star[n].values
        bu = _stage_value(lat, n, model.b_u(n, xn, un))[:, None]
        su = _stage_value(lat, n, model.sigma_u(n, xn, un))[:, None]
        lu = _stage_value(lat, n, model.l_u(n, xn, un))[:, None]
        xi, eta = _noise(lat, n), _white(lat)
        p_n, q_n = adj.y[n].values[:, None], adj.z[n].values[:, None]
        integrand = bu * p_n + su * p_n * xi + su * q_n * eta * xi + lu
        dual += _expect(lat, integrand * v[n].values[:, None], n + 1)
    return primal, dual


def directional_derivative(
    model: ModelSpec,
    u_star: ControlProcess,
    v: ControlProcess,
    lat: NoiseLattice,
    basis: WhiteningBasis,
) -> float:
    """d/de J(u* + e v) at e = 0, cross-checked through the adjoint.

    Returns the primal (state variation) route and raises DualityMismatch
    when the adjoint route differs from it by more than DUALITY_TOL.
    """
    primal, dual = _derivative_routes(model, u_star, v, lat, basis)
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
    """Classify every node of the residual against the control set (tol finite, >= 0)."""
    _check_tol(tol)
    return _stationarity(
        [rho.values for rho in residual], [un.values for un in u_star], control_set, tol
    )


def _check_tol(tol: float):
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _stationarity(rho, u, control_set, tol: float) -> StationarityReport:
    """`check_stationarity` on plain level-n tables rho_n and u_n."""
    worst = 0.0
    worst_stage = 0
    worst_node = 0
    for n, rho_n in enumerate(rho):
        violation, _ = classify_nodes(rho_n, u[n], control_set, tol)
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
    """Backtracking parameters for the step length alpha of a Newton
    rollout: accept when the decrease of J, taken nodewise, beats
    slope_constant * <rho, u - u_new> in the path inner product, less
    the rounding of that decrease."""

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


# Nodewise floor on |Q_uu| in the Newton step: a node with Q_uu <= 0
# (non-convex there) still gets a descent direction, and no other node
# is damped on its account.
_CURVATURE_FLOOR = 1e-8
# Rounding allowed for in the Armijo test, relative to the expected cost
# magnitude of the nodes a step changes: a few ulps per cost table entry
# and per contraction.  Near a stationary point the decrease of a Newton
# step falls below it, and the step is then accepted unless it raises J
# by more than that rounding.
_ROUNDING = 4 * np.finfo(np.float64).eps


def _stage_derivatives(model: ModelSpec, lat: NoiseLattice, n: int, x, u) -> np.ndarray:
    """(_x, _u, _xx, _uu, _ux) of b, sigma and l at stage n: one (15, q^n) table.

    Rows run b, sigma, l, five each.  Second derivatives are the central
    differences of `dynamics._central_diff` of the supplied first
    derivatives, with the x and u steps taken once.  Raises NonFiniteValue
    if any entry is non-finite.
    """
    hx = 1e-6 * np.maximum(1.0, np.abs(x))
    hu = 1e-6 * np.maximum(1.0, np.abs(u))
    x_up, x_down, u_up, u_down = x + hx, x - hx, u + hu, u - hu

    def at(fn, xs, us):
        return np.asarray(fn(n, xs, us), float)

    out = np.empty((15, lat.level_size(n)))
    for rows, name in zip(out.reshape(3, 5, -1), ("b", "sigma", "l")):
        d_x, d_u = getattr(model, name + "_x"), getattr(model, name + "_u")
        rows[0] = d_x(n, x, u)
        rows[1] = d_u(n, x, u)
        rows[2] = (at(d_x, x_up, u) - at(d_x, x_down, u)) / (2 * hx)
        rows[3] = (at(d_u, x, u_up) - at(d_u, x, u_down)) / (2 * hu)
        rows[4] = (at(d_u, x_up, u) - at(d_u, x_down, u)) / (2 * hx)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {n}")
    return out


def _backward_pass(model, u, x, lat):
    """DDP gains (k_n, K_n) and the gradient rho_n along (u, X), level-n tables.

    u holds the control tables u_0..u_{N-1}, x the state tables X_0..X_N.
    V_x and V_xx start from phi_x and phi_xx at X_N.  With
    f = x + b + sigma xi_n, stage n contracts the children into Q_x, Q_u,
    Q_xx, Q_uu, Q_ux (the V_x f_xx, f_uu, f_ux terms included), and takes
    the modified Newton step k = -Q_u / c, K = -Q_ux / c with
    c = max(|Q_uu|, _CURVATURE_FLOOR) per node (Nocedal & Wright, Numerical
    Optimization, 3.4): where Q_uu <= 0 the step is still a descent
    direction, and the curvature of every other node is left exact.  A
    node where u + k leaves the control set is clamped to it and gets
    K = 0.  Alongside runs the open-loop adjoint lambda (V_x without the
    policy terms, lambda_n = l_x + E[lambda_{n+1} f_x | n]), which is the
    adjoint p of the maximum principle; rho_n = l_u + E[lambda_{n+1} f_u | n]
    is the stationarity residual.  Returns (gains, rho), both indexed by n.
    """
    n_stages = model.horizon
    x_final = x[n_stages]
    v_x = lam = _stage_value(lat, n_stages, model.phi_x(x_final))
    phi_xx = _central_diff(lambda n, x, u: model.phi_x(x), n_stages, x_final, x_final, "x")
    v_xx = _stage_value(lat, n_stages, phi_xx)
    gains, rho = [], []
    for n in reversed(range(n_stages)):
        bx, bu, bxx, buu, bux, sx, su, sxx, suu, sux, lx, lu, lxx, luu, lux = (
            _stage_derivatives(model, lat, n, x[n], u[n])
        )
        xi = _noise(lat, n)
        v_x, v_xx, lam = _blocks(lat, v_x), _blocks(lat, v_xx), _blocks(lat, lam)
        f_x = (1.0 + bx)[:, None] + sx[:, None] * xi
        f_u = bu[:, None] + su[:, None] * xi
        q_x = lx + _contract(lat, v_x * f_x)
        q_u = lu + _contract(lat, v_x * f_u)
        q_xx = lxx + _contract(lat, v_xx * f_x * f_x + v_x * (bxx[:, None] + sxx[:, None] * xi))
        q_uu = luu + _contract(lat, v_xx * f_u * f_u + v_x * (buu[:, None] + suu[:, None] * xi))
        q_ux = lux + _contract(lat, v_xx * f_u * f_x + v_x * (bux[:, None] + sux[:, None] * xi))
        rho.append(lu + _contract(lat, lam * f_u))
        lam = lx + _contract(lat, lam * f_x)

        curvature = np.maximum(np.abs(q_uu), _CURVATURE_FLOOR)
        newton = u[n] - q_u / curvature
        target = model.control_set.project(newton)
        k = target - u[n]
        gain = np.where(target == newton, -q_ux / curvature, 0.0)
        v_x = q_x + gain * (q_uu * k + q_u) + q_ux * k
        v_xx = q_xx + gain * (q_uu * gain + q_ux * 2.0)
        gains.append((k, gain))
    return gains[::-1], rho[::-1]


def _rollout(model, u, x, gains, step, lat):
    """One closed-loop trial u_n + step k_n + K_n (X'_n - X_n), projected.

    Rolls the trial out once and returns its control tables, its state
    tables X'_0..X'_N and its `_cost_tables`, all frozen level-n tables.
    A trial value outside the control set (a non-finite one) raises
    OutOfControlSet, as `forward` would.
    """
    controls, states = [], [x[0]]
    for n, (k, gain) in enumerate(gains):
        un = _frozen(model.control_set.project(u[n] + step * k + gain * (states[n] - x[n])))
        if not model.control_set.contains(un):
            raise OutOfControlSet(f"stage {n} control leaves {model.control_set!r}")
        controls.append(un)
        states.append(_step(model, lat, n, states[n], un))
    return controls, states, _cost_tables(model, lat, controls, states)


def _decrease(lat: NoiseLattice, old, new) -> tuple[float, float]:
    """J(old) - J(new) from two `_cost_tables`, and its rounding bound.

    The difference is taken node by node and contracted stage by stage,
    so a node the step leaves unchanged adds an exact 0 and a decrease far
    below the rounding of J itself is still resolved.  The bound is
    _ROUNDING times the same contraction of |old| + |new| over the nodes
    that changed.
    """
    diff, size = _node_changes(old[-1], new[-1])
    for n in reversed(range(len(old) - 1)):
        diff_n, size_n = _node_changes(old[n], new[n])
        diff = _contract(lat, diff) + diff_n
        size = _contract(lat, size) + size_n
    return float(diff[0]), _ROUNDING * float(size[0])


def _node_changes(old: np.ndarray, new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """old - new per node, and |old| + |new| where that is not 0."""
    diff = old - new
    return diff, np.where(diff == 0.0, 0.0, np.abs(old) + np.abs(new))


def _check_duality(rho, residual: SmpResidual):
    """rho_n of the backward pass against the adjoint route's, stage by stage."""
    for n, (lam_rho, adj_rho) in enumerate(zip(rho, residual)):
        gap = np.max(np.abs(lam_rho - adj_rho.values))
        if gap > DUALITY_TOL * max(1.0, float(np.max(np.abs(adj_rho.values)))):
            raise DualityMismatch(
                f"backward pass and adjoint disagree on rho_{n} by {gap:.3e}"
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
    """Differential dynamic programming on the tree, Armijo backtracking.

    Each iteration runs one backward pass for per-node Newton gains
    (Jacobson & Mayne; clamped gains on a Box, after Tassa, Mansard &
    Todorov) and closed-loop rollouts u + alpha k + K (x_new - x), alpha
    backtracked by `step_rule`, each trial rolled out once.  A Newton step
    is scale-free per node, so nodes of small probability converge as fast
    as the root.  Where Q_uu <= 0 the step divides by max(|Q_uu|, 1e-8) at
    that node only.  A step is accepted on Armijo decrease of J, taken as
    one expectation of nodewise cost differences, so the cost never
    increases beyond rounding and a decrease below the rounding of J
    itself is not lost.

    The backward pass also yields rho from its open-loop adjoint lambda,
    and the stationarity check at `tol` runs on it.  When it passes, the
    adjoint BSDE is solved once along the iterate and its rho certifies
    the result: DualityMismatch if the two rho differ by more than
    DUALITY_TOL, converged=True only if the certified rho passes too,
    otherwise the iterations go on.  A u_init that already passes returns
    with zero iterations.  Raises NoDescent when backtracking exhausts its
    halvings, and NotConverged never: hitting max_iter solves the adjoint
    once, checks its rho and returns converged=False unless it passes, so
    the caller can inspect the trace.  A negative max_iter or bad tol
    raises ValueError.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    _check_tol(tol)
    x = _states(model, u_init, lat, model.horizon)
    u = [un.values for un in u_init]
    costs = _cost_tables(model, lat, u, x)
    j_curr = _total_cost(lat, costs)
    trace: list[TracePoint] = []
    step = 0.0

    for iterations in itertools.count():
        final = iterations >= max_iter
        if not final:
            gains, rho = _backward_pass(model, u, x, lat)
            report = _stationarity(rho, u, model.control_set, tol)
        if final or report.passed:
            control = ControlProcess(AdaptedValue(lat, n, un) for n, un in enumerate(u))
            state = StateProcess(AdaptedValue(lat, n, xn) for n, xn in enumerate(x))
            adj = solve_bsde(adjoint_driver(model, control, state, basis), lat)
            residual = _gradient(model, control, x, adj, lat, basis)
            if not final:
                _check_duality(rho, residual)
            report = check_stationarity(residual, control, model.control_set, tol)
        trace.append(TracePoint(iterations, j_curr, step, report.worst_violation))
        if final or report.passed:
            return OptimizeResult(
                control=control, state=state, adjoint=adj, cost=j_curr,
                iterations=iterations, converged=report.passed, trace=tuple(trace),
            )

        step = step_rule.initial_step
        for _halving in range(step_rule.max_halvings + 1):
            trial, x_trial, costs_trial = _rollout(model, u, x, gains, step, lat)
            # path inner product sum_n E[rho_n (u_n - trial_n)]
            gap = sum(
                _expect(lat, rho[n] * (u[n] - trial[n]), n) for n in range(model.horizon)
            )
            decrease, rounding = _decrease(lat, costs, costs_trial)
            if gap > 0.0 and decrease >= step_rule.slope_constant * gap - rounding:
                u, x, costs = trial, x_trial, costs_trial
                j_curr = _total_cost(lat, costs)
                break
            step *= step_rule.shrink
        else:
            raise NoDescent(
                f"no sufficient decrease after {step_rule.max_halvings} halvings "
                f"at iteration {iterations}: J={j_curr!r}, worst residual "
                f"{report.worst_violation:.3e} at stage {report.worst_stage} "
                f"node {report.worst_node}"
            )
