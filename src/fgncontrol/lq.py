"""Linear-quadratic control under fractional noise.

Dynamics ``X_{n+1} = X_n + A_n X_n + B_n u_n + (C_n X_n + D_n u_n) xi_n``
with cost ``J(u) = 0.5 E[sum_n (Q_n X_n^2 + R_n u_n^2) + G X_N^2]``.
Q_n, G >= 0 and R_n > 0 make J strictly convex in the control, so the
stationarity condition

    u_n = -R_n^{-1} [ B_n p_n + D_n p_n E[xi_n | level n] + b[n,n] D_n q_n ]

characterises the unique optimum.  The bracket plus R_n u_n is the SMP
gradient representative rho_n, so the optimum is the fixed point of
u = u - rho / R.  On the lattice it is computed directly: one backward
Riccati pass over the tree gives a per-node feedback gain, one forward
roll of the closed loop gives the control and its state, and the SMP
residual of that control is checked as an independent certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import BsdeSolution, adjoint_driver, solve_bsde
from .dynamics import (
    ControlProcess,
    ModelSpec,
    StateProcess,
    Unconstrained,
    _batch_costs,
    _step,
    cost,
)
from .errors import InvalidSpec, LevelMismatch, NotConverged, WrongHorizon
from .lattice import AdaptedValue, NoiseLattice, _contract, _frozen, _mean, _moments
from .noise import WhiteningBasis
from .smp import SmpResidual, _check_tol, _gradient

# Leaf budget of one stacked certificate pass: rows * q^N stays within it
# (a single row is still rolled out when q^N alone exceeds it).
_CHUNK_LEAVES = 2**15


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

    @cached_property
    def _model(self) -> ModelSpec:
        return _lq_model(self, Unconstrained())


def _lq_model(spec: LqSpec, control_set) -> ModelSpec:
    """The LQ dynamics and cost as one ModelSpec on `control_set`."""
    pad = lambda arr: np.append(arr, 0.0)
    a, b, c, d = pad(spec.A), pad(spec.B), pad(spec.C), pad(spec.D)
    q, r, g = pad(spec.Q), pad(spec.R), spec.G
    return ModelSpec(
        horizon=spec.horizon,
        initial_state=spec.x,
        b=lambda n, x, u: a[n] * x + b[n] * u,
        sigma=lambda n, x, u: c[n] * x + d[n] * u,
        l=lambda n, x, u: 0.5 * (q[n] * x**2 + r[n] * u**2),
        phi=lambda x: 0.5 * g * x**2,
        b_x=lambda n, x, u: a[n] * np.ones_like(x),
        b_u=lambda n, x, u: b[n] * np.ones_like(u),
        sigma_x=lambda n, x, u: c[n] * np.ones_like(x),
        sigma_u=lambda n, x, u: d[n] * np.ones_like(u),
        l_x=lambda n, x, u: q[n] * x,
        l_u=lambda n, x, u: r[n] * u,
        phi_x=lambda x: g * x,
        control_set=control_set,
    )


def as_model(spec: LqSpec) -> ModelSpec:
    """The LQ problem as a generic ModelSpec (unconstrained control).

    Coefficient arrays are padded with a zero final stage, which
    realises the convention that stage-N coefficients vanish.  The model
    is built (and its derivative guard run) once per spec and kept on it,
    so every solver and certificate of one spec shares it.
    """
    return spec._model


@dataclass(frozen=True)
class LqIterationPoint:
    iteration: int
    cost: float
    residual: float


@dataclass(frozen=True)
class LqSolution:
    """Optimal system: control, state, adjoint pair, its SMP gradient
    representative rho, iteration record."""

    control: ControlProcess
    state: StateProcess
    adjoint: BsdeSolution
    rho: SmpResidual
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
    tol: float = 1e-10,
) -> LqSolution:
    """The optimal control, computed directly by one backward Riccati pass.

    It is the fixed point of u = u - rho / R.  Each node fixes its whole
    history, so given level n the increment is xi_n = mu_node + b[n,n] eta_n
    and the value function is 0.5 P_node x^2.  With P_N = G,
    alpha = 1 + A_n + C_n xi_n and gamma = B_n + D_n xi_n, stage n gives
    K_n = E[P alpha gamma | n] / (R_n + E[P gamma^2 | n]) and
    P_n = Q_n + E[P alpha^2 | n] - K_n E[P alpha gamma | n], each read off
    E[P eta_n^k | n], k <= 2, as alpha and gamma are affine in eta_n.  One
    roll of u_n = -K_n X_n through the model's state step gives u* and the
    state `forward(u*)` returns.  The SMP residual max_n max_node |rho_n| / R_n
    of the adjoint pair solved there certifies it: NotConverged is raised
    when it exceeds `tol`, ValueError unless `tol` is finite and >= 0.
    """
    _check_tol(tol)
    model = as_model(spec)
    p = np.full(lat.level_size(spec.horizon), float(spec.G))
    gains = []
    for n in reversed(range(spec.horizon)):
        m0, m1, m2 = _moments(lat, p, 3)
        mu, beta = _mean(lat, n), lat.basis.b_mat[n, n]
        a0, a1 = 1.0 + spec.A[n] + spec.C[n] * mu, spec.C[n] * beta
        g0, g1 = spec.B[n] + spec.D[n] * mu, spec.D[n] * beta
        s_ag = a0 * g0 * m0 + (a0 * g1 + a1 * g0) * m1 + a1 * g1 * m2
        s_gg = g0 * g0 * m0 + 2.0 * g0 * g1 * m1 + g1 * g1 * m2
        s_aa = a0 * a0 * m0 + 2.0 * a0 * a1 * m1 + a1 * a1 * m2
        k = s_ag / (s_gg + spec.R[n])
        p = s_aa + spec.Q[n] - k * s_ag
        gains.insert(0, k)

    xs, us = [_frozen(np.full(1, float(spec.x)))], []
    for n, k in enumerate(gains):
        us.append(_frozen(-(k * xs[n])))
        xs.append(_step(model, lat, n, xs[n], us[n]))
    u = ControlProcess(AdaptedValue(lat, n, un) for n, un in enumerate(us))
    x = StateProcess(AdaptedValue(lat, n, xn) for n, xn in enumerate(xs))
    adj = solve_bsde(adjoint_driver(model, u, x, basis), lat)
    rho = _gradient(model, u, xs, adj, lat, basis)
    residual = max(
        float(np.max(np.abs(rho[n].values)) / spec.R[n]) for n in range(spec.horizon)
    )
    if residual > tol:
        raise NotConverged(
            f"Riccati control fails the SMP check: residual {residual:.3e} > tol {tol:.1e}",
            residual=residual,
        )
    j = cost(model, u, x, lat)
    return LqSolution(
        control=u, state=x, adjoint=adj, rho=rho, cost=j, iterations=0,
        residual=residual, trace=(LqIterationPoint(0, j, residual),),
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


def _chunks(count: int, leaves: int):
    """[start, stop) ranges over `count` items of `leaves` leaves each,
    at most _CHUNK_LEAVES leaves (or one item) per range."""
    size = max(1, _CHUNK_LEAVES // leaves)
    for start in range(0, count, size):
        yield start, min(start + size, count)


def _draw(lat: NoiseLattice, horizon: int, rng: np.random.Generator, rows: int) -> list:
    """`rows` successive `random_control(lat, horizon, rng)` draws stacked
    as (rows, q^n) tables: the same numbers in the same order."""
    stages = [np.empty((rows, lat.level_size(n))) for n in range(horizon)]
    for row in range(rows):
        for n in range(horizon):
            stages[n][row] = rng.standard_normal(lat.level_size(n))
    return stages


def verify_sufficiency(
    spec: LqSpec,
    u_star: ControlProcess,
    lat: NoiseLattice,
    trials: int = 50,
    seed: int = 0,
) -> SufficiencyReport:
    """Perturb the candidate optimum and check it is never beaten.

    Each trial draws a random adapted direction v and eps from
    {1, 0.1, 0.01}, then requires J(u* + eps v) >= J(u*) - 1e-10 and the
    quadratic lower bound J(u) - J(u*) >= 0.5 E sum R_n (eps v_n)^2 - 1e-9.
    The trials are rolled out as one stacked pass per chunk of at most
    _CHUNK_LEAVES leaves; the directions are the draws of a per-trial
    loop of `random_control` and `perturb` with the same seed.  Raises
    ValueError unless trials >= 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if u_star.lattice is not lat:
        raise LevelMismatch("u_star lives on a different lattice")
    model = as_model(spec)
    u_star.validate_in(model.control_set)
    star = [u.values for u in u_star]
    j_star = _batch_costs(model, lat, [s[None] for s in star])[0]
    rng = np.random.default_rng(seed)
    eps_cycle = np.array([1.0, 0.1, 0.01])
    min_gap = worst_slack = np.inf
    for start, stop in _chunks(trials, lat.rule.q**spec.horizon):
        eps = eps_cycle[np.arange(start, stop) % 3, None]
        u = [s + eps * v for s, v in zip(star, _draw(lat, spec.horizon, rng, stop - start))]
        gap = _batch_costs(model, lat, u) - j_star
        quad = 0.5 * sum(
            spec.R[n] * _contract(lat, ((u[n] - star[n]) ** 2).reshape(-1), n)
            for n in range(spec.horizon)
        )
        min_gap = min(min_gap, np.min(gap))
        worst_slack = min(worst_slack, np.min(gap - quad))
    return SufficiencyReport(
        passed=bool(min_gap >= -1e-10 and worst_slack >= -1e-9),
        trials=trials,
        min_cost_gap=float(min_gap),
        worst_quadratic_slack=float(worst_slack),
    )


@dataclass(frozen=True)
class UniquenessReport:
    passed: bool
    worst_parallelogram_slack: float


def verify_uniqueness(
    spec: LqSpec,
    lat: NoiseLattice,
    seed: int = 0,
) -> UniquenessReport:
    """Strict convexity of the cost, hence a unique optimum.

    For 5 random control pairs the bound
    J(u1) + J(u2) >= 2 J((u1+u2)/2) + (min_n R_n / 4) E sum (u1-u2)^2
    must hold with 1e-9 slack; it follows from R_n >= theta > 0.  The
    pairs and their midpoints are rolled out as one stacked pass per
    chunk of at most _CHUNK_LEAVES leaves; u1 and u2 are the draws of a
    per-pair loop of two `random_control` calls with the same seed.
    """
    model = as_model(spec)
    rng = np.random.default_rng(seed)
    theta = float(np.min(spec.R))
    worst_slack = np.inf
    for start, stop in _chunks(5, 3 * lat.rule.q**spec.horizon):
        draws = _draw(lat, spec.horizon, rng, 2 * (stop - start))
        u1, u2 = [u[0::2] for u in draws], [u[1::2] for u in draws]
        mid = [(a + b) * 0.5 for a, b in zip(u1, u2)]
        rows = [np.concatenate(stage) for stage in zip(u1, u2, mid)]
        j1, j2, jm = np.split(_batch_costs(model, lat, rows), 3)
        sq = sum(
            _contract(lat, ((u1[n] - u2[n]) ** 2).reshape(-1), n) for n in range(spec.horizon)
        )
        worst_slack = min(worst_slack, np.min(j1 + j2 - 2.0 * jm - 0.25 * theta * sq))
    return UniquenessReport(
        passed=bool(worst_slack >= -1e-9),
        worst_parallelogram_slack=float(worst_slack),
    )
