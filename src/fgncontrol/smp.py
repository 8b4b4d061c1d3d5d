"""Stochastic maximum principle: gradient, stationarity, optimization.

For an admissible control u with state X and adjoint pair (p, q) solved
backward along (u, X), the cost gradient representative at stage n is

    rho_n = b_u(n) p_n + sigma_u(n) p_n E[xi_n | level n]
            + b[n,n] sigma_u(n) q_n + l_u(n),

an adapted level-n value.  One routine, `_certify`, solves the adjoint
along (u, X) and reads rho there, for `solve_adjoint`, the adjoint route
of the derivative, the certificate of `optimize` and `lq.lq_fixed_point`.
The directional derivative of the cost in an admissible direction v
equals sum_n E[rho_n v_n]; it is computed here by two independent routes
(state variation vs adjoint pairing) and the two must agree, otherwise
something upstream is broken and we refuse to continue.  Stationarity of
a candidate control is classified nodewise against the control set.
`optimize` takes second-order steps from differential dynamic programming
on the tree, dividing by Q_uu where it is positive and by max(-Q_uu, 1e-8)
elsewhere, so that a non-convex node still gets a descent step, with
Armijo backtracking (step 1 halved up to 40 times, slope constant 1e-4).
Every route reads the whitening b of the lattice, `lat.basis`.  Its
backward pass, in moment form, carries the open-loop adjoint lambda,
which is p: each iteration reads rho from it, and once rho passes,
`_certify` solves the adjoint equation to certify it.  `lq` takes one
such pass from the zero control.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .bsde import BsdeSolution, adjoint_driver, solve_bsde
from .dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    StateProcess,
    BOUNDARY_TOL,
    _factor,
    _fd_step,
    _StagedProcess,
    _check_on,
    _states,
    _cost_tables,
    _step,
    _total_cost,
    forward,
    variation,
)
from .errors import (
    DualityMismatch, LevelMismatch, NoDescent, NonFiniteValue, OutOfControlSet,
)
from .lattice import (
    AdaptedValue,
    NoiseLattice,
    _affine,
    _contract,
    _expect,
    _frozen,
    _mean,
    _moments,
    _product,
)
from .noise import WhiteningBasis

DUALITY_TOL = 1e-9


class SmpResidual(_StagedProcess):
    """Stagewise gradient representative rho_n, each at level n."""


@dataclass(frozen=True)
class _RolledAdjoint(BsdeSolution):
    """An adjoint from `solve_adjoint`, with the model and control it was solved
    along and the rho `_certify` read there, which `smp_residual` returns."""

    _model: ModelSpec = field(repr=False, compare=False)
    _control: ControlProcess = field(repr=False, compare=False)
    _rho: SmpResidual = field(repr=False, compare=False)


def _check_basis(lat: NoiseLattice, basis: WhiteningBasis):
    """LevelMismatch unless `basis` whitens with the lattice's own b."""
    if basis is not lat.basis and not np.array_equal(basis.b_mat, lat.basis.b_mat):
        raise LevelMismatch("basis is not the whitening basis of the lattice")


def solve_adjoint(
    model: ModelSpec, u: ControlProcess, lat: NoiseLattice, basis: WhiteningBasis
) -> tuple[StateProcess, BsdeSolution]:
    """Forward state plus backward adjoint pair for a control, by `_certify`.

    The adjoint driver reads b from `lat.basis`; `basis` must have the same
    b_mat, else LevelMismatch.  The adjoint keeps the rho read along
    (u, X), so `smp_residual` with this model and control returns it.
    """
    _check_basis(lat, basis)
    x = forward(model, u, lat)
    _, _, adj, rho = _certify(model, [s.values for s in u], [s.values for s in x], lat)
    return x, _RolledAdjoint(adj.y, adj.z, adj.r, model, u, rho)


def _certify(model: ModelSpec, u, x, lat: NoiseLattice):
    """(control, state, adjoint, rho) along the frozen tables u_0..u_{N-1}, X_0..X_N.

    Each table is wrapped once, shared; rho_n is `_gradient` of the adjoint BSDE's (p, q).
    """
    control = ControlProcess(AdaptedValue(lat, n, un) for n, un in enumerate(u))
    state = StateProcess(AdaptedValue(lat, n, xn) for n, xn in enumerate(x))
    adj = solve_bsde(adjoint_driver(model, control, state), lat)
    return control, state, adj, _gradient(model, control, x, adj, lat)


def _gradient(
    model: ModelSpec,
    u: ControlProcess,
    x: list[np.ndarray],
    adjoint: BsdeSolution,
    lat: NoiseLattice,
) -> SmpResidual:
    """rho_n along (u, X), with the adjoint solved there.

    x holds the level-n state tables X_0..X_{N-1} of forward(u); a
    stage-N table, if present, is not read.
    """
    b_diag = np.diag(lat.basis.b_mat)
    stages = []
    for n in range(model.horizon):
        xn, un = x[n], u[n].values
        bu, su, lu = (
            _factor(lat, n, getattr(model, name)(n, xn, un)) for name in ("b_u", "sigma_u", "l_u")
        )
        p_n, q_n = adjoint.y[n].values, adjoint.z[n].values
        # bu p + su p mu + b[n,n] (su q) + lu, accumulated in that order
        rho = bu * p_n
        term = su * p_n
        term *= _mean(lat, n)
        rho += term
        np.multiply(su, q_n, out=term)
        term *= b_diag[n]
        rho += term
        rho += lu
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

    b is read from `lat.basis`; `basis` must have the same b_mat, else
    LevelMismatch.  `_check_on` checks u* and the adjoint against the model
    and `lat`.  An adjoint from `solve_adjoint` on this model and control
    (the same objects) brings the rho `_certify` read, which is returned.  Any
    other adjoint is read by `_gradient` along X_0..X_{N-1}, rolled out
    here: rho never reads X_N, whose finiteness the `forward` that built
    the adjoint has already checked.
    """
    _check_basis(lat, basis)
    _check_on(lat, model.horizon, control=u_star, adjoint=adjoint)
    if (isinstance(adjoint, _RolledAdjoint)
            and adjoint._model is model and adjoint._control is u_star):
        return adjoint._rho
    x = _states(model, u_star, lat, model.horizon - 1)
    return _gradient(model, u_star, x, adjoint, lat)


def _derivative_routes(
    model: ModelSpec,
    u_star: ControlProcess,
    v: ControlProcess,
    lat: NoiseLattice,
) -> tuple[float, float]:
    """Both routes to d/de J(u* + e v) at e = 0, as (primal, dual).

    The primal form is sum_n E[l_x V_n + l_u v_n] + E[phi_x V_N] with V
    the first variation; the adjoint form is sum_n E[rho_n v_n] with the
    rho_n of `_gradient`, the level-n contraction of
    (b_u p_n + sigma_u p_n xi_n + sigma_u q_n eta_n xi_n + l_u).
    """
    x_star = forward(model, u_star, lat)
    var = variation(model, u_star, x_star, v, lat)
    n_stages = model.horizon

    primal = 0.0
    for n in range(n_stages):
        xn, un = x_star[n].values, u_star[n].values
        lx = _factor(lat, n, model.l_x(n, xn, un))
        lu = _factor(lat, n, model.l_u(n, xn, un))
        primal += _expect(lat, lx * var[n].values + lu * v[n].values, n)
    phi_x = _factor(lat, n_stages, model.phi_x(x_star[n_stages].values))
    primal += _expect(lat, phi_x * var[n_stages].values, n_stages)

    _, _, _, rho = _certify(model, [s.values for s in u_star], [s.values for s in x_star], lat)
    dual = sum(_expect(lat, rho[n].values * v[n].values, n) for n in range(n_stages))
    return primal, dual


def directional_derivative(
    model: ModelSpec,
    u_star: ControlProcess,
    v: ControlProcess,
    lat: NoiseLattice,
) -> float:
    """d/de J(u* + e v) at e = 0, cross-checked through the adjoint.

    Returns the primal (state variation) route and raises DualityMismatch
    when the adjoint route differs from it by more than DUALITY_TOL.
    """
    primal, dual = _derivative_routes(model, u_star, v, lat)
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
    """Classify every node of the residual against the control set (tol finite, >= 0).

    `_check_on` checks the residual against the control's horizon and
    lattice.  A NaN or infinite residual raises NonFiniteValue.
    """
    _check_tol(tol)
    _check_on(u_star.lattice, u_star.horizon, residual=residual)
    return _stationarity(
        [rho.values for rho in residual], [un.values for un in u_star], control_set, tol
    )


def _check_tol(tol: float):
    if not (np.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")


def _stationarity(rho, u, control_set, tol: float) -> StationarityReport:
    """`check_stationarity` on plain level-n tables rho_n and u_n."""
    violations = (classify_nodes(r, un, control_set, tol)[0] for r, un in zip(rho, u))
    return _worst_violation(violations, tol)


def _worst_violation(violations, tol: float) -> StationarityReport:
    """The report of per-stage `classify_nodes` violation tables.

    Raises NonFiniteValue, naming the stage and node, if a violation is
    NaN or infinite.
    """
    worst, worst_stage, worst_node = 0.0, 0, 0
    for n, violation in enumerate(violations):
        k = int(np.argmax(violation))  # the first NaN, if there is one
        if not np.isfinite(violation[k]):
            raise NonFiniteValue(f"stationarity violation {violation[k]} at stage {n}, node {k}")
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


# Nodewise floor on -Q_uu in the Newton step where Q_uu <= 0: a node that
# is non-convex there still gets a descent direction, and no other node
# is damped on its account.
_CURVATURE_FLOOR = 1e-8
# Rounding allowed for in the Armijo test, relative to the expected cost
# magnitude of the nodes a step changes: a few ulps per cost table entry
# and per contraction.  Near a stationary point the decrease of a Newton
# step falls below it, and the step is then accepted unless it raises J
# by more than that rounding.
_ROUNDING = 4 * np.finfo(np.float64).eps
# Armijo backtracking of the step length alpha of a Newton rollout: start
# at _INITIAL_STEP, multiply by _SHRINK up to _MAX_HALVINGS times, and
# accept when the decrease of J, taken nodewise, beats _SLOPE_CONSTANT
# times <rho, u - u_new> in the path inner product, less its rounding.
_INITIAL_STEP = 1.0
_SHRINK = 0.5
_SLOPE_CONSTANT = 1e-4
_MAX_HALVINGS = 40


def _stage_derivatives(model: ModelSpec, n: int, x, u) -> np.ndarray:
    """(_x, _u, _xx, _uu, _ux) of b, sigma and l at stage n: one table of 15 rows.

    Rows run b, sigma, l, five each, shaped as x and u broadcast together:
    (q^n,) for level-n tables, () for scalars.  Second derivatives are the
    central differences of the supplied first derivatives, with the x and u
    steps of `dynamics._fd_step` taken once.  Raises NonFiniteValue
    if any entry is non-finite.
    """
    hx, hu = _fd_step(x), _fd_step(u)
    x_up, x_down, u_up, u_down = x + hx, x - hx, u + hu, u - hu

    def at(fn, xs, us):
        return np.asarray(fn(n, xs, us), float)

    out = np.empty((3, 5, *np.broadcast_shapes(np.shape(x), np.shape(u))))
    for rows, name in zip(out, ("b", "sigma", "l")):
        d_x, d_u = getattr(model, name + "_x"), getattr(model, name + "_u")
        rows[0] = d_x(n, x, u)
        rows[1] = d_u(n, x, u)
        rows[2] = (at(d_x, x_up, u) - at(d_x, x_down, u)) / (2 * hx)
        rows[3] = (at(d_u, x, u_up) - at(d_u, x, u_down)) / (2 * hu)
        rows[4] = (at(d_u, x_up, u) - at(d_u, x_down, u)) / (2 * hx)
    if not np.all(np.isfinite(out)):
        raise NonFiniteValue(f"coefficient produced non-finite values at level {n}")
    return out.reshape(15, *out.shape[2:])


def _backward_pass(model, u, x, lat):
    """DDP gains (k_n, K_n) and the gradient rho_n along (u, X), level-n tables.

    u holds the control tables u_0..u_{N-1}, x the state tables X_0..X_N (a
    scalar is a constant table).  V_x and V_xx start from phi_x and phi_xx at
    X_N, finite scalars kept as scalars.  Given level n, the derivatives of
    f = x + b + sigma xi_n are affine in eta_n, so stage n reads Q_x, Q_u,
    Q_xx, Q_uu, Q_ux (V_x f_xx, f_uu, f_ux included) off the moments of V_x
    and V_xx and takes the modified Newton step k = -Q_u / c, K = -Q_ux / c
    with c = Q_uu where Q_uu > 0, else max(-Q_uu, _CURVATURE_FLOOR) (Nocedal &
    Wright, Numerical Optimization, 3.4): where Q_uu <= 0 the step is a descent
    direction, and the curvature of every other node is left exact.  A node
    where u + k leaves the control set is clamped to it and gets K = 0.
    Alongside runs the open-loop adjoint lambda (V_x without the policy terms,
    lambda_n = l_x + E[lambda_{n+1} f_x | n]), which is the adjoint p of the
    maximum principle; rho_n = l_u + E[lambda_{n+1} f_u | n] is the
    stationarity residual.  Returns (gains, rho), both indexed by n.
    """
    n_stages = model.horizon
    x_final = x[n_stages]
    h = _fd_step(x_final)
    phi_xx = (np.asarray(model.phi_x(x_final + h), float)
              - np.asarray(model.phi_x(x_final - h), float)) / (2 * h)
    del h  # a leaf-sized table, not to be held through the stages
    v_x, v_xx = (_factor(lat, n_stages, t) for t in (model.phi_x(x_final), phi_xx))
    lam = v_x
    gains, rho = [None] * n_stages, [None] * n_stages
    for n in reversed(range(n_stages)):
        gains[n], rho[n], v_x, v_xx, lam = _backward_stage(model, lat, n, x, u, v_x, v_xx, lam)
    return gains, rho


def _backward_stage(model, lat, n, x, u, v_x, v_xx, lam):
    """Stage n of `_backward_pass`; its temporaries die before stage n - 1's."""
    bx, bu, bxx, buu, bux, sx, su, sxx, suu, sux, lx, lu, lxx, luu, lux = (
        _stage_derivatives(model, n, x[n], u[n])
    )
    mu, beta = _mean(lat, n), lat.basis.b_mat[n, n]
    f_x, f_u, f_xx, f_uu, f_ux = (  # each as its (c0, c1) in c0 + c1 eta_n
        (drift + vol * mu, vol * beta)
        for drift, vol in ((1.0 + bx, sx), (bu, su), (bxx, sxx), (buu, suu), (bux, sux))
    )
    m_x, m_xx = _moments(lat, v_x, 2), _moments(lat, v_xx, 3)
    m_lam = m_x if lam is v_x else _moments(lat, lam, 2)
    q_x = lx + _affine(m_x, f_x)
    q_u = lu + _affine(m_x, f_u)
    q_xx = lxx + (_product(m_xx, f_x, f_x) + _affine(m_x, f_xx))
    q_uu = luu + (_product(m_xx, f_u, f_u) + _affine(m_x, f_uu))
    q_ux = lux + (_product(m_xx, f_u, f_x) + _affine(m_x, f_ux))
    curvature = np.where(q_uu > 0.0, q_uu, np.maximum(-q_uu, _CURVATURE_FLOOR))
    newton = u[n] - q_u / curvature
    target = model.control_set.project(newton)
    k = target - u[n]
    gain = np.where(target == newton, -q_ux / curvature, 0.0)
    v_x = q_x + gain * (q_uu * k + q_u) + q_ux * k
    v_xx = q_xx + gain * (q_uu * gain + q_ux * 2.0)
    return (k, gain), lu + _affine(m_lam, f_u), v_x, v_xx, lx + _affine(m_lam, f_x)


def _rollout(model, u, x, gains, step, lat):
    """One closed-loop trial u_n + step k_n + K_n (X'_n - X_n), projected.

    Rolls the trial out once and returns its control tables, its state
    tables X'_0..X'_N and its `_cost_tables`, phi(X'_N) only as E[phi | N-1].
    A trial value outside the control set (a non-finite one) raises
    OutOfControlSet, as `forward` would.
    """
    controls, states = [], [_frozen(np.full(1, float(model.initial_state)))]
    for n, (k, gain) in enumerate(gains):
        un = _frozen(model.control_set.project(u[n] + step * k + gain * (states[n] - x[n])))
        if not model.control_set.contains(un):
            raise OutOfControlSet(f"stage {n} control leaves {model.control_set!r}")
        controls.append(un)
        states.append(_step(model, lat, n, states[n], un))
    return controls, states, list(_cost_tables(model, lat, controls, states))


def _decrease(lat: NoiseLattice, old, new) -> tuple[float, float]:
    """J(old) - J(new) from two `_cost_tables`, and its rounding bound.

    The difference is taken node by node from level N-1 down, phi(X_N) only
    as E[phi | N-1], and contracted stage by stage, so a node the step leaves
    unchanged (a parent of unchanged children too) adds an exact 0 and a
    decrease far below the rounding of J itself is still resolved.  At level
    N-1 it is the difference of two contracted values, not the contraction of
    a leaf difference.  The bound is _ROUNDING times the same contraction of
    |old| + |new| over the nodes that changed, where a changed parent at level
    N-1 counts all q of its children.
    """
    last = len(old) - 2  # the level of E[phi | N-1] and of l_{N-1}
    diff, size = _node_changes(old[-1], new[-1])
    for n in reversed(range(last + 1)):
        diff_n, size_n = _node_changes(old[n], new[n])
        diff = _contract(lat, diff, n < last) + diff_n
        size = _contract(lat, size, n < last) + size_n
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
    tol: float = 1e-8,
    max_iter: int = 1000,
) -> OptimizeResult:
    """Differential dynamic programming on the tree, Armijo backtracking.

    Each iteration runs one backward pass for per-node Newton gains
    (Jacobson & Mayne; clamped gains on a Box, after Tassa, Mansard &
    Todorov) and closed-loop rollouts u + alpha k + K (x_new - x), each
    trial rolled out once.  A Newton step is scale-free per node, so nodes
    of small probability converge as fast as the root.  Where Q_uu <= 0 the
    step divides by max(|Q_uu|, 1e-8) at that node only.  alpha starts at
    _INITIAL_STEP = 1 and is halved (_SHRINK) at most _MAX_HALVINGS = 40
    times; a step is accepted on Armijo decrease of J by _SLOPE_CONSTANT =
    1e-4 times the path inner product <rho, u - u_new>, the decrease taken
    as one expectation of nodewise cost differences, so the cost never
    increases beyond rounding and a decrease below the rounding of J
    itself is not lost.  For the iterate and every trial, phi(X_N) is read
    only as E[phi | N-1], by blocks.  The lattice supplies b, `lat.basis`.

    The backward pass also yields rho from its open-loop adjoint lambda,
    and the stationarity check at `tol` runs on it.  When it passes,
    `_certify` solves the adjoint BSDE once along the iterate and its rho
    certifies the result: DualityMismatch if the two rho differ by more than
    DUALITY_TOL, converged=True only if the certified rho passes too,
    otherwise the iterations go on.  A u_init that already passes returns
    with zero iterations.  Raises NoDescent when backtracking exhausts its
    halvings, and NotConverged never: hitting max_iter runs `_certify`
    once, checks its rho and returns converged=False unless it passes, so
    the caller can inspect the trace.  A negative max_iter or bad tol
    raises ValueError.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    _check_tol(tol)
    x = _states(model, u_init, lat, model.horizon)
    u = [un.values for un in u_init]
    costs = list(_cost_tables(model, lat, u, x))
    j_curr = _total_cost(lat, costs)
    trace: list[TracePoint] = []
    step = 0.0

    for iterations in itertools.count():
        final = iterations >= max_iter
        if not final:
            gains, rho = _backward_pass(model, u, x, lat)
            report = _stationarity(rho, u, model.control_set, tol)
        if final or report.passed:
            control, state, adj, residual = _certify(model, u, x, lat)
            if not final:
                _check_duality(rho, residual)
            report = check_stationarity(residual, control, model.control_set, tol)
        trace.append(TracePoint(iterations, j_curr, step, report.worst_violation))
        if final or report.passed:
            return OptimizeResult(
                control=control, state=state, adjoint=adj, cost=j_curr,
                iterations=iterations, converged=report.passed, trace=tuple(trace),
            )

        step = _INITIAL_STEP
        for _halving in range(_MAX_HALVINGS + 1):
            trial, x_trial, costs_trial = _rollout(model, u, x, gains, step, lat)
            # path inner product sum_n E[rho_n (u_n - trial_n)]
            gap = sum(
                _expect(lat, rho[n] * (u[n] - trial[n]), n) for n in range(model.horizon)
            )
            decrease, rounding = _decrease(lat, costs, costs_trial)
            if gap > 0.0 and decrease >= _SLOPE_CONSTANT * gap - rounding:
                u, x, costs = trial, x_trial, costs_trial
                j_curr = _total_cost(lat, costs)
                break
            step *= _SHRINK
        else:
            raise NoDescent(
                f"no sufficient decrease after {_MAX_HALVINGS} halvings "
                f"at iteration {iterations}: J={j_curr!r}, worst residual "
                f"{report.worst_violation:.3e} at stage {report.worst_stage} "
                f"node {report.worst_node}"
            )
