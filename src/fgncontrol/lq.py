"""Linear-quadratic control under fractional noise.

Dynamics ``X_{n+1} = X_n + A_n X_n + B_n u_n + (C_n X_n + D_n u_n) xi_n``
with cost ``J(u) = 0.5 E[sum_n (Q_n X_n^2 + R_n u_n^2) + G X_N^2]``.
Q_n, G >= 0 and R_n > 0 make J strictly convex in the control, so the
stationarity condition

    u_n = -R_n^{-1} [ B_n p_n + D_n p_n E[xi_n | level n] + b[n,n] D_n q_n ]

characterises the unique optimum.  The bracket plus R_n u_n is the SMP
gradient representative rho_n, so the optimum is the fixed point of
u = u - rho / R.  On the lattice it is computed directly: one DDP Newton
step from the zero control (the backward pass of `smp.optimize`) gives a
per-node feedback gain, one forward roll of the closed loop gives the
control and its state, and the SMP residual of that control is checked as
an independent certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bsde import BsdeSolution
from .dynamics import (
    ControlProcess,
    ModelSpec,
    StateProcess,
    Unconstrained,
    _check_on,
    _total_cost,
)
from .errors import DepthMismatch, InvalidSpec, NonFiniteValue, NotConverged, WrongHorizon
from .lattice import NoiseLattice, _children, _chunks, _contract, _mean, _moments
from .smp import SmpResidual, _backward_pass, _certify, _rollout

# Leaf budget of one stacked certificate pass: rows * q^N stays within it
# (a single row is still rolled out when q^N alone exceeds it).  Tables
# above glibc's default mmap threshold (128 KB) are fresh mappings, so a
# few 2 MB passes beat many 256 KB ones (of 2^15..2^20, 2^18 ran fastest).
_CHUNK_LEAVES = 2**18
# Bound on the SMP residual max |rho_n| / R_n that certifies the direct solve.
_RESIDUAL_TOL = 1e-10
# Random perturbations `verify_sufficiency` tries.
_SUFFICIENCY_TRIALS = 50


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
        b_x=lambda n, x, u: a[n],
        b_u=lambda n, x, u: b[n],
        sigma_x=lambda n, x, u: c[n],
        sigma_u=lambda n, x, u: d[n],
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
class LqSolution:
    """Optimal system: control, state, adjoint pair (p, q) = (y, z), its SMP
    gradient representative rho, the cost J and the SMP residual that
    certifies it."""

    control: ControlProcess
    state: StateProcess
    adjoint: BsdeSolution
    rho: SmpResidual
    cost: float
    residual: float


def lq_fixed_point(spec: LqSpec, lat: NoiseLattice) -> LqSolution:
    """The optimal control, computed directly by one DDP Newton step from u = 0.

    It is the fixed point of u = u - rho / R.  `smp._backward_pass` runs along
    u = 0 and X = 0, the model's path from x0 = 0, where every stage derivative
    is a constant: b and sigma are linear, and the central differences of
    l_x = Q x, l_u = R u and phi_x = G x, taken at exactly +-h, give Q_n, R_n
    and G to an ulp.  There V_x = 0, so k = 0, and K_n = -Q_ux / Q_uu and
    V_xx = Q_xx - Q_ux^2 / Q_uu are the Riccati gain and P_n, read off
    E[P eta_n^k | n], k <= 2.  Q_uu = R_n + E[P gamma^2 | n] > 0 for
    gamma = B_n + D_n xi_n, so the step is exact; the constants stay scalars
    and build no leaf-sized table.  One `smp._rollout` of u_n = K_n X_n from x
    gives u*, the state `forward(u*)` returns, and J, whose terminal cost it
    reads only as E[G X_N^2 / 2 | N-1], by blocks.  `smp._certify` solves
    the adjoint pair along (u*, X*), with b from `lat.basis`, and reads rho
    there; the SMP residual max_n max_node |rho_n| / R_n certifies u*:
    NotConverged is raised when it exceeds _RESIDUAL_TOL; `_check_on` checks
    the depth of `lat` first.
    """
    _check_on(lat, spec.horizon)
    model = as_model(spec)
    zero_u, zero_x = [0.0] * spec.horizon, [0.0] * (spec.horizon + 1)
    gains, _ = _backward_pass(model, zero_u, zero_x, lat)
    us, xs, costs = _rollout(model, zero_u, zero_x, gains, 1.0, lat)
    j = _total_cost(lat, costs)
    del gains, costs
    u, x, adj, rho = _certify(model, us, xs, lat)
    residual = max(float(np.max(np.abs(r.values)) / r_n) for r, r_n in zip(rho, spec.R))
    if residual > _RESIDUAL_TOL:
        raise NotConverged(
            f"LQ control fails the SMP check: residual {residual:.3e} > tol {_RESIDUAL_TOL:.1e}",
            residual=residual,
        )
    return LqSolution(control=u, state=x, adjoint=adj, rho=rho, cost=j, residual=residual)


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


def _draw(lat: NoiseLattice, horizon: int, rng: np.random.Generator, rows: int) -> list:
    """`rows` successive `random_control(lat, horizon, rng)` draws stacked
    as (rows, q^n) tables.  A Generator stream does not depend on how its
    draws are split, so one (rows, sum_n q^n) draw split by stage gives the
    same numbers in the same order."""
    sizes = [lat.level_size(n) for n in range(horizon)]
    return np.split(rng.standard_normal((rows, sum(sizes))), np.cumsum(sizes[:-1]), axis=1)


def _batch_costs(spec: LqSpec, lat: NoiseLattice, start: float, controls) -> np.ndarray:
    """J of many controls from the state `start`, one per row of the (rows, q^n) stages.

    X_{n+1} = X_n + (A_n X_n + B_n u_n) + (C_n X_n + D_n u_n) xi_n, added as in
    `as_model(spec)`, with running cost 0.5 (Q_n X_n^2 + R_n u_n^2).  On level
    N-1, X_N = c0 + c1 eta_{N-1}, so E[0.5 G X_N^2 | N-1] is read off the
    lattice's moments of eta, exact for every q: no leaf table is built.
    """
    if len(controls) != spec.horizon:
        raise DepthMismatch(f"{len(controls)} control tables, expected {spec.horizon}")
    last = spec.horizon - 1
    xn = np.full((*controls[0].shape[:-1], 1), float(start))
    total = np.zeros(xn.shape[:-1])
    for n, un in enumerate(controls):
        total += _contract(lat, (0.5 * (spec.Q[n] * xn**2 + spec.R[n] * un**2)).reshape(-1), n)
        drift = xn + (spec.A[n] * xn + spec.B[n] * un)
        vol = spec.C[n] * xn + spec.D[n] * un
        if n < last:
            xn = _children(lat, n, drift, vol).reshape(*drift.shape[:-1], -1)
            if not np.all(np.isfinite(xn)):
                raise NonFiniteValue(f"state became non-finite at stage {n + 1}")
    del xn
    # `_product(m, c, c)` in place, in its order of operations, each
    # level-(N-1) temporary dropped once used: c0 = drift + vol mu, c1 = vol b
    m0, m1, m2 = _moments(lat, 1.0, 3)
    c0 = vol * _mean(lat, last)
    c0 += drift
    del drift
    vol *= lat.basis.b_mat[last, last]
    terminal = c0 * c0
    terminal *= m0
    cross = c0 * vol
    cross += vol * c0
    del c0
    cross *= m1
    terminal += cross
    del cross
    vol *= vol
    vol *= m2
    terminal += vol
    del vol
    terminal *= 0.5 * spec.G
    total += _contract(lat, terminal.reshape(-1), last)
    if not np.all(np.isfinite(total)):
        raise NonFiniteValue("cost is non-finite")
    return total


def verify_sufficiency(
    spec: LqSpec,
    u_star: ControlProcess,
    lat: NoiseLattice,
    seed: int = 0,
) -> SufficiencyReport:
    """Perturb the candidate optimum and check it is never beaten.

    Each of _SUFFICIENCY_TRIALS trials draws a random adapted direction v
    and eps from {1, 0.1, 0.01}, then requires J(u* + eps v) >= J(u*) - 1e-10
    and the quadratic lower bound
    J(u) - J(u*) >= 0.5 E sum R_n (eps v_n)^2 - 1e-9.
    Each J is priced by `_batch_costs` on the spec's own recursion, its last
    stage in closed form, one stacked pass per chunk of at most _CHUNK_LEAVES
    leaves; the directions are the draws of a per-trial loop of
    `random_control` and `perturb` with the same seed.  `_check_on` checks
    u* against the spec's horizon and `lat`.
    """
    _check_on(lat, spec.horizon, control=u_star)
    u_star.validate_in(Unconstrained())
    star = [u.values for u in u_star]
    j_star = _batch_costs(spec, lat, spec.x, [s[None] for s in star])[0]
    rng = np.random.default_rng(seed)
    eps_cycle = np.array([1.0, 0.1, 0.01])
    min_gap = worst_slack = np.inf
    for start, stop in _chunks(_SUFFICIENCY_TRIALS, lat.rule.q**spec.horizon, _CHUNK_LEAVES):
        eps = eps_cycle[np.arange(start, stop) % 3, None]
        u = [s + eps * v for s, v in zip(star, _draw(lat, spec.horizon, rng, stop - start))]
        gap = _batch_costs(spec, lat, spec.x, u) - j_star
        quad = 0.5 * sum(
            spec.R[n] * _contract(lat, ((u[n] - star[n]) ** 2).reshape(-1), n)
            for n in range(spec.horizon)
        )
        min_gap = min(min_gap, np.min(gap))
        worst_slack = min(worst_slack, np.min(gap - quad))
    return SufficiencyReport(
        passed=bool(min_gap >= -1e-10 and worst_slack >= -1e-9),
        trials=_SUFFICIENCY_TRIALS,
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
    dynamics are linear in (x, u) and J is quadratic in the path, so
    J(u1) + J(u2) - 2 J((u1+u2)/2) = 0.5 J_0(u1 - u2) exactly, J_0 the cost
    from x0 = 0: uniqueness does not depend on x0.  Each pair is one
    `_batch_costs` row of u1 - u2 from 0, on the spec's own recursion with
    its last stage in closed form, stacked in one pass per chunk of at most
    _CHUNK_LEAVES leaves; u1, u2 are the draws of a per-pair loop of two
    `random_control` calls with the same seed.  `_check_on` checks the depth
    of `lat` first.
    """
    _check_on(lat, spec.horizon)
    rng = np.random.default_rng(seed)
    theta = float(np.min(spec.R))
    worst_slack = np.inf
    for start, stop in _chunks(5, lat.rule.q**spec.horizon, _CHUNK_LEAVES):
        draws = _draw(lat, spec.horizon, rng, 2 * (stop - start))
        delta = [u[0::2] - u[1::2] for u in draws]
        sq = sum(_contract(lat, (d**2).reshape(-1), n) for n, d in enumerate(delta))
        slack = 0.5 * _batch_costs(spec, lat, 0.0, delta) - 0.25 * theta * sq
        worst_slack = min(worst_slack, np.min(slack))
    return UniquenessReport(
        passed=bool(worst_slack >= -1e-9),
        worst_parallelogram_slack=float(worst_slack),
    )
