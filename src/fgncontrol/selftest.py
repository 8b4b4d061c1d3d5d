"""Built-in acceptance suite: twelve numbered criteria, each self-checking.

Every criterion recomputes its expected values independently of the code
under test: closed forms, explicit path enumeration with Python loops,
finite differences, or a from-scratch white-noise recursion.  The same
functions back both the `selftest` subcommand and the acceptance tests,
so a criterion can fail loudly in either place but never silently.
"""

from __future__ import annotations

import filecmp
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import reporting
from .bsde import DriverSpec, residual_orthogonality, solve_bsde
from .dynamics import (
    ControlProcess,
    constant_control,
    cost,
    forward,
    perturb,
    random_control,
    sin_drift_model,
    variation,
)
from .errors import DualityMismatch
from .lattice import (
    expectation,
    lattice_for_hurst,
    noise_value,
    sample_paths,
    white_value,
)
from .lq import LqSpec, as_model, lq_fixed_point, one_step_closed_form, verify_sufficiency, verify_uniqueness
from .noise import fgn_covariance, whiten
from .smp import (
    _gradient,
    check_stationarity,
    classify_nodes,
    directional_derivative,
    optimize,
    smp_residual,
    solve_adjoint,
)

__all__ = ["CriterionResult", "run_all", "write_artifacts", "CRITERIA"]


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number:02d} {status} {self.name}: {self.detail}"


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _shift(u: ControlProcess, v: ControlProcess, t: float) -> ControlProcess:
    return ControlProcess(u[n] + t * v[n] for n in range(u.horizon))


def _random_lq_spec(rng: np.random.Generator, horizon: int) -> LqSpec:
    return LqSpec(
        horizon=horizon,
        A=rng.uniform(-0.5, 0.5, horizon),
        B=rng.uniform(-1.0, 1.0, horizon),
        C=rng.uniform(-0.5, 0.5, horizon),
        D=rng.uniform(-1.0, 1.0, horizon),
        Q=rng.uniform(0.0, 1.0, horizon),
        R=rng.uniform(0.5, 2.0, horizon),
        G=rng.uniform(0.1, 1.5),
        x=rng.uniform(-2.0, 2.0),
    )


# ---------------------------------------------------------------- 1


def criterion_whitening_roundtrip(seed: int) -> CriterionResult:
    """max|bb^T - Sigma| and max|ab - I| <= 1e-10 over a Hurst/size grid."""
    worst_recon = 0.0
    worst_inv = 0.0
    for h in (0.1, 0.3, 0.5, 0.7, 0.9):
        for size in (4, 16, 64):
            cov = fgn_covariance(h, size)
            basis = whiten(cov)
            worst_recon = max(
                worst_recon,
                float(np.max(np.abs(basis.b_mat @ basis.b_mat.T - cov.sigma))),
            )
            worst_inv = max(
                worst_inv,
                float(np.max(np.abs(basis.a_mat @ basis.b_mat - np.eye(size)))),
            )
    passed = worst_recon <= 1e-10 and worst_inv <= 1e-10
    return CriterionResult(
        1, "whitening-roundtrip", passed,
        f"max|bbT-Sigma|={worst_recon:.3e}, max|ab-I|={worst_inv:.3e}",
    )


# ---------------------------------------------------------------- 2


def _slow_condexp(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """One level down by explicit child sums (no reshape tricks)."""
    q = weights.shape[0]
    out = np.zeros(values.shape[0] // q)
    for i in range(out.size):
        acc = 0.0
        for j in range(q):
            acc += weights[j] * values[i * q + j]
        out[i] = acc
    return out


def criterion_white_noise_reduction(seed: int) -> CriterionResult:
    """h = 1/2: identity factors, and an independently coded white-noise
    adjoint/stationarity recursion matches the library to 1e-10."""
    basis8 = whiten(fgn_covariance(0.5, 8))
    eye = np.eye(8)
    factor_err = max(
        float(np.max(np.abs(basis8.b_mat - eye))),
        float(np.max(np.abs(basis8.a_mat - eye))),
        float(np.max(np.abs(basis8.c_mat))),
    )

    horizon = 3
    lat = lattice_for_hurst(0.5, depth=horizon, order=3)
    rule = lat.rule
    q, nodes, weights = rule.q, rule.nodes, rule.weights
    spec = _random_lq_spec(_rng(seed, 2), horizon)
    model = as_model(spec)
    u = random_control(lat, horizon, _rng(seed, 20))
    u_vals = [u[n].values for n in range(horizon)]

    # forward pass, plain loops; white noise means xi_n = eta_n = node
    x_slow = [np.array([spec.x])]
    for n in range(horizon):
        cur = x_slow[n]
        nxt = np.empty(cur.size * q)
        for i in range(cur.size):
            drift = cur[i] + spec.A[n] * cur[i] + spec.B[n] * u_vals[n][i]
            vol = spec.C[n] * cur[i] + spec.D[n] * u_vals[n][i]
            for j in range(q):
                nxt[i * q + j] = drift + vol * nodes[j]
        x_slow.append(nxt)

    # backward adjoint: p_N = G X_N, stage coefficients vanish at N
    p_slow: list[np.ndarray] = [np.empty(0)] * (horizon + 1)
    z_slow: list[np.ndarray] = [np.empty(0)] * horizon
    p_slow[horizon] = spec.G * x_slow[horizon]
    for n in reversed(range(horizon)):
        s = n + 1
        if s < horizon:
            f_s = spec.A[s] * p_slow[s] + spec.C[s] * z_slow[s] + spec.Q[s] * x_slow[s]
            g_s = spec.C[s] * p_slow[s]
            rhs = np.repeat(p_slow[s] + f_s, q)
            eta_s = nodes[np.arange(rhs.size) % q]
            rhs = rhs + np.repeat(g_s, q) * eta_s
            m = _slow_condexp(rhs, weights)
        else:
            m = p_slow[s]
        eta_n = nodes[np.arange(m.size) % q]
        p_slow[n] = _slow_condexp(m, weights)
        z_slow[n] = _slow_condexp(eta_n * m, weights)

    x_lib, adj = solve_adjoint(model, u, lat, lat.basis)
    res = smp_residual(model, u, adj, lat, lat.basis)
    worst = 0.0
    for n in range(horizon):
        worst = max(worst, float(np.max(np.abs(adj.y[n].values - p_slow[n]))))
        worst = max(worst, float(np.max(np.abs(adj.z[n].values - z_slow[n]))))
        rho_slow = spec.B[n] * p_slow[n] + spec.D[n] * z_slow[n] + spec.R[n] * u_vals[n]
        worst = max(worst, float(np.max(np.abs(res[n].values - rho_slow))))
    worst = max(worst, float(np.max(np.abs(x_lib[horizon].values - x_slow[horizon]))))

    passed = factor_err <= 1e-12 and worst <= 1e-10
    return CriterionResult(
        2, "white-noise-reduction", passed,
        f"factor deviation={factor_err:.3e}, adjoint/residual gap={worst:.3e}",
    )


# ---------------------------------------------------------------- 3


def criterion_sample_covariance(seed: int) -> CriterionResult:
    """2e5 Monte Carlo paths: cov(eta) ~ I and cov(xi) ~ Sigma within 0.01."""
    horizon = 4
    cov = fgn_covariance(0.7, horizon)
    basis = whiten(cov)
    paths = sample_paths(basis, horizon, 200_000, seed)
    eta_err = float(np.max(np.abs(np.cov(paths.eta.T, bias=True) - np.eye(horizon))))
    xi_err = float(np.max(np.abs(np.cov(paths.xi.T, bias=True) - cov.sigma)))
    passed = eta_err <= 0.01 and xi_err <= 0.01
    return CriterionResult(
        3, "sample-covariance", passed,
        f"max|cov(eta)-I|={eta_err:.3e}, max|cov(xi)-Sigma|={xi_err:.3e}",
    )


# ---------------------------------------------------------------- 4


def criterion_bsde_oracle(seed: int) -> CriterionResult:
    """N=2, q=3: explicit 9-path weighted sums reproduce Y, Z to 1e-12
    for 20 random affine drivers."""
    lat = lattice_for_hurst(0.7, depth=2, order=3)
    nodes, weights = lat.rule.nodes, lat.rule.weights
    b = lat.basis.b_mat
    rng = _rng(seed, 4)
    worst = 0.0
    for _ in range(20):
        t0, t1, t2 = rng.uniform(-1.0, 1.0, 3)
        # stage s coefficients: f = c0 + c1 y + c2 z, g = c3 + c4 y + c5 z
        stage = {1: rng.uniform(-1.0, 1.0, 6), 2: rng.uniform(-1.0, 1.0, 6)}
        stage[2][2] = 0.0  # Z_2 is pinned to zero
        stage[2][3:] = 0.0  # keep the terminal stage noise free: 9 paths

        terminal = (
            lat.constant(t0, 2)
            + noise_value(lat, 0).at_level(2) * t1
            + noise_value(lat, 1).at_level(2) * t2
        )
        driver = DriverSpec(
            horizon=2,
            terminal=terminal,
            f=lambda s, y, z, c=stage: c[s][0] + c[s][1] * y + c[s][2] * z,
            g=lambda s, y, z, c=stage: c[s][3] + c[s][4] * y + c[s][5] * z,
            terminal_noise_free=True,
        )
        sol = solve_bsde(driver, lat)

        # oracle: enumerate the 9 paths (j0, j1)
        xi0 = np.array([b[0, 0] * nodes[i // 3] for i in range(9)])
        xi1 = np.array([b[1, 0] * nodes[i // 3] + b[1, 1] * nodes[i % 3] for i in range(9)])
        y2 = t0 + t1 * xi0 + t2 * xi1
        m2 = y2 + (stage[2][0] + stage[2][1] * y2)
        y1 = np.array([sum(weights[j] * m2[i * 3 + j] for j in range(3)) for i in range(3)])
        z1 = np.array(
            [sum(weights[j] * nodes[j] * m2[i * 3 + j] for j in range(3)) for i in range(3)]
        )
        f1 = stage[1][0] + stage[1][1] * y1 + stage[1][2] * z1
        g1 = stage[1][3] + stage[1][4] * y1 + stage[1][5] * z1
        rhs1 = np.repeat(y1 + f1, 3) + np.repeat(g1, 3) * xi1
        m1 = np.array([sum(weights[j] * rhs1[i * 3 + j] for j in range(3)) for i in range(3)])
        y0 = sum(weights[i] * m1[i] for i in range(3))
        z0 = sum(weights[i] * nodes[i] * m1[i] for i in range(3))

        worst = max(
            worst,
            float(np.max(np.abs(sol.y[1].values - y1))),
            float(np.max(np.abs(sol.z[1].values - z1))),
            abs(float(sol.y[0].values[0]) - y0),
            abs(float(sol.z[0].values[0]) - z0),
        )
    passed = worst <= 1e-12
    return CriterionResult(
        4, "bsde-brute-force-oracle", passed, f"max nodewise gap={worst:.3e} over 20 drivers"
    )


# ---------------------------------------------------------------- 5


def criterion_orthogonality(seed: int) -> CriterionResult:
    """E[R_n | F_n] and E[eta_n R_n | F_n] vanish to 1e-10 on a sweep of
    solved equations: affine drivers, adjoints, and LQ optima."""
    rng = _rng(seed, 5)
    worst = 0.0
    solves = 0

    for h in (0.3, 0.7):
        for noise_free in (True, False):
            horizon = 3
            lat = lattice_for_hurst(h, depth=horizon + (0 if noise_free else 1), order=3)
            for _ in range(5):
                coeffs = {
                    s: rng.uniform(-1.0, 1.0, 6) for s in range(1, horizon + 1)
                }
                coeffs[horizon][2] = 0.0
                if noise_free:
                    coeffs[horizon][3:] = 0.0
                terminal = lat.constant(float(rng.uniform(-1.0, 1.0)), horizon)
                for k in range(horizon):
                    terminal = terminal + noise_value(lat, k).at_level(horizon) * float(
                        rng.uniform(-1.0, 1.0)
                    )
                driver = DriverSpec(
                    horizon=horizon,
                    terminal=terminal,
                    f=lambda s, y, z, c=coeffs: c[s][0] + c[s][1] * y + c[s][2] * z,
                    g=lambda s, y, z, c=coeffs: c[s][3] + c[s][4] * y + c[s][5] * z,
                    terminal_noise_free=noise_free,
                )
                sol = solve_bsde(driver, lat)
                worst = max(worst, *residual_orthogonality(sol, lat))
                solves += 1

    for h in (0.3, 0.7):
        lat = lattice_for_hurst(h, depth=3, order=3)
        model = sin_drift_model(3, initial_state=1.0)
        for _ in range(3):
            u = random_control(lat, 3, rng, scale=0.5)
            _, adj = solve_adjoint(model, u, lat, lat.basis)
            worst = max(worst, *residual_orthogonality(adj, lat))
            solves += 1

    lat = lattice_for_hurst(0.7, depth=3, order=3)
    for _ in range(2):
        spec = _random_lq_spec(rng, 3)
        sol = lq_fixed_point(spec, lat, lat.basis)
        worst = max(worst, *residual_orthogonality(sol.adjoint, lat))
        solves += 1

    passed = worst <= 1e-10
    return CriterionResult(
        5, "residual-orthogonality", passed,
        f"worst conditional moment={worst:.3e} over {solves} solves",
    )


# ---------------------------------------------------------------- 6


def _derivative_both_routes(model, u, v, lat, basis) -> tuple[float, float]:
    """Variation route and adjoint route of dJ(u + eps v)/deps at 0."""
    x = forward(model, u, lat)
    var = variation(model, u, x, v, lat)
    primal = 0.0
    for n in range(model.horizon):
        lx = model.l_x(n, x[n].values, u[n].values)
        lu = model.l_u(n, x[n].values, u[n].values)
        primal += expectation(
            lat.from_values(n, lx) * var[n] + lat.from_values(n, lu) * v[n]
        )
    primal += expectation(
        lat.from_values(model.horizon, model.phi_x(x[model.horizon].values))
        * var[model.horizon]
    )

    _, adj = solve_adjoint(model, u, lat, basis)
    dual = 0.0
    for n in range(model.horizon):
        bu = lat.from_values(n, model.b_u(n, x[n].values, u[n].values))
        su = lat.from_values(n, model.sigma_u(n, x[n].values, u[n].values))
        lu = lat.from_values(n, model.l_u(n, x[n].values, u[n].values))
        xi, eta = noise_value(lat, n), white_value(lat, n)
        integrand = bu * adj.y[n] + su * adj.y[n] * xi + su * adj.z[n] * eta * xi + lu
        dual += expectation(integrand * v[n])
    return primal, dual


def criterion_duality(seed: int) -> CriterionResult:
    """Both routes to the directional derivative agree to 1e-9 on 20
    random (model, u, v) triples across h in {0.3, 0.7}."""
    rng = _rng(seed, 6)
    worst = 0.0
    failed = False
    for h in (0.3, 0.7):
        lat = lattice_for_hurst(h, depth=3, order=3)
        models = [sin_drift_model(3, initial_state=1.1)] * 5 + [
            as_model(_random_lq_spec(rng, 3)) for _ in range(5)
        ]
        for model in models:
            u = random_control(lat, 3, rng, scale=0.5)
            v = random_control(lat, 3, rng)
            primal, dual = _derivative_both_routes(model, u, v, lat, lat.basis)
            worst = max(worst, abs(primal - dual))
            try:
                directional_derivative(model, u, v, lat, lat.basis)
            except DualityMismatch:
                failed = True
    passed = worst <= 1e-9 and not failed
    return CriterionResult(
        6, "duality-identity", passed, f"max primal-dual gap={worst:.3e} over 20 triples"
    )


# ---------------------------------------------------------------- 7


def criterion_gradient_check(seed: int) -> CriterionResult:
    """directional_derivative vs central differences of the cost at
    eps = 1e-4: within 1e-6 on LQ models, 1e-5 on sin_drift."""
    rng = _rng(seed, 7)
    lat = lattice_for_hurst(0.7, depth=3, order=3)
    eps = 1e-4

    def fd_gap(model, u, v):
        dd = directional_derivative(model, u, v, lat, lat.basis)
        j_plus = cost(model, _shift(u, v, eps), forward(model, _shift(u, v, eps), lat), lat)
        j_minus = cost(model, _shift(u, v, -eps), forward(model, _shift(u, v, -eps), lat), lat)
        return abs(dd - (j_plus - j_minus) / (2 * eps))

    worst_lq = 0.0
    for _ in range(10):
        model = as_model(_random_lq_spec(rng, 3))
        worst_lq = max(worst_lq, fd_gap(model, random_control(lat, 3, rng), random_control(lat, 3, rng)))
    worst_sin = 0.0
    model = sin_drift_model(3, initial_state=0.9)
    for _ in range(10):
        worst_sin = max(
            worst_sin,
            fd_gap(model, random_control(lat, 3, rng, scale=0.4), random_control(lat, 3, rng)),
        )
    passed = worst_lq <= 1e-6 and worst_sin <= 1e-5
    return CriterionResult(
        7, "gradient-finite-difference", passed,
        f"max error: lq={worst_lq:.3e}, sin_drift={worst_sin:.3e}",
    )


# ---------------------------------------------------------------- 8


def criterion_variation_rate(seed: int) -> CriterionResult:
    """First-order state expansion: error(eps) = sum_n E[((X^eps-X)/eps - V)^2]
    decreases, halving ratios sit in [0.15, 0.35], linear models are exact."""
    lat = lattice_for_hurst(0.7, depth=3, order=3)
    rng = _rng(seed, 8)

    def error(model, u, x, v, eps):
        var = variation(model, u, x, v, lat)
        x_eps = forward(model, perturb(u, v, eps), lat)
        total = 0.0
        for n in range(model.horizon + 1):
            diff = (x_eps[n] - x[n]) / eps - var[n]
            total += expectation(diff * diff)
        return total

    model = sin_drift_model(3, initial_state=1.0)
    u = random_control(lat, 3, rng, scale=0.3)
    x = forward(model, u, lat)
    v = random_control(lat, 3, rng)
    errs = {eps: error(model, u, x, v, eps) for eps in (1e-1, 1e-2, 5e-3, 1e-3, 5e-4)}
    decreasing = errs[1e-1] > errs[1e-2] > errs[1e-3]
    ratios = [errs[5e-3] / errs[1e-2], errs[5e-4] / errs[1e-3]]
    ratios_ok = all(0.15 <= r <= 0.35 for r in ratios)

    lin_spec = _random_lq_spec(rng, 3)
    lin_model = as_model(lin_spec)
    u_lin = random_control(lat, 3, rng)
    lin_err = error(lin_model, u_lin, forward(lin_model, u_lin, lat), random_control(lat, 3, rng), 1e-2)

    passed = decreasing and ratios_ok and lin_err <= 1e-20
    return CriterionResult(
        8, "variation-quadratic-rate", passed,
        f"ratios={ratios[0]:.3f},{ratios[1]:.3f}, linear error={lin_err:.3e}",
    )


# ---------------------------------------------------------------- 9


def criterion_lq_closed_form(seed: int) -> CriterionResult:
    """Horizon-1 fixed point matches the exact one-variable optimum to
    1e-10 over 20 coefficient draws with R_0 in [0.1, 2]."""
    lat = lattice_for_hurst(0.7, depth=1, order=3)
    rng = _rng(seed, 9)
    worst = 0.0
    for _ in range(20):
        spec = LqSpec(
            horizon=1,
            A=[rng.uniform(-1.0, 1.0)],
            B=[rng.uniform(-1.0, 1.0)],
            C=[rng.uniform(-1.0, 1.0)],
            D=[rng.uniform(-1.0, 1.0)],
            Q=[rng.uniform(0.0, 1.0)],
            R=[rng.uniform(0.1, 2.0)],
            G=rng.uniform(0.1, 1.5),
            x=rng.uniform(-2.0, 2.0),
        )
        sol = lq_fixed_point(spec, lat, lat.basis, max_iter=2000)
        worst = max(worst, float(np.max(np.abs(sol.control[0].values - one_step_closed_form(spec)))))
    passed = worst <= 1e-10
    return CriterionResult(
        9, "lq-one-step-closed-form", passed, f"max gap={worst:.3e} over 20 draws"
    )


# ---------------------------------------------------------------- 10


def criterion_lq_certificates(seed: int) -> CriterionResult:
    """Fixed-point output is stationary at 1e-8, never beaten by more
    than 1e-10 over 50 perturbations, and start-independent to 1e-6."""
    lat = lattice_for_hurst(0.7, depth=3, order=3)
    spec = _random_lq_spec(_rng(seed, 10), 3)
    sol = lq_fixed_point(spec, lat, lat.basis)
    model = as_model(spec)
    res = smp_residual(model, sol.control, sol.adjoint, lat, lat.basis)
    station = check_stationarity(res, sol.control, model.control_set, tol=1e-8)
    suff = verify_sufficiency(spec, sol.control, lat, lat.basis, trials=50, seed=seed)
    uniq = verify_uniqueness(spec, lat, lat.basis, seed=seed)
    passed = station.passed and suff.passed and uniq.passed
    return CriterionResult(
        10, "lq-stationarity-sufficiency-uniqueness", passed,
        f"worst residual={station.worst_violation:.3e}, "
        f"min cost gap={suff.min_cost_gap:.3e}, spread={uniq.max_control_spread:.3e}",
    )


# ---------------------------------------------------------------- 11


def criterion_cross_solver(seed: int) -> CriterionResult:
    """Projected gradient from u = 0 lands on the LQ fixed point
    nodewise to 1e-6, N = 3, q = 3, h = 0.7."""
    lat = lattice_for_hurst(0.7, depth=3, order=3)
    rng = _rng(seed, 11)
    worst = 0.0
    for _ in range(2):
        spec = _random_lq_spec(rng, 3)
        sol = lq_fixed_point(spec, lat, lat.basis)
        result = optimize(
            as_model(spec), constant_control(lat, 3, 0.0), lat, lat.basis,
            tol=1e-8, max_iter=5000,
        )
        if not result.converged:
            return CriterionResult(11, "cross-solver-agreement", False, "optimizer hit max_iter")
        for n in range(3):
            worst = max(
                worst,
                float(np.max(np.abs(result.control[n].values - sol.control[n].values))),
            )
    passed = worst <= 1e-6
    return CriterionResult(
        11, "cross-solver-agreement", passed, f"max nodewise control gap={worst:.3e}"
    )


# ---------------------------------------------------------------- 12


def write_artifacts(seed: int, out_dir: str) -> list[str]:
    """Write the canonical artifact set; returns the file names.

    Exercises every serialization path once with small fixed problems,
    so byte-comparing two runs covers the whole output surface.
    """
    os.makedirs(out_dir, exist_ok=True)
    files: list[str] = []

    def path(name: str) -> str:
        files.append(name)
        return os.path.join(out_dir, name)

    cov = fgn_covariance(0.7, 6)
    basis = whiten(cov)
    reporting.write_matrix_csv(path("sigma.csv"), cov.sigma)
    reporting.write_matrix_csv(path("b.csv"), basis.b_mat)
    reporting.write_matrix_csv(path("a.csv"), basis.a_mat)
    reporting.write_matrix_csv(path("c.csv"), basis.c_mat)
    reporting.write_json(
        path("checks.json"),
        {
            "max_abs_bbT_minus_sigma": float(np.max(np.abs(basis.b_mat @ basis.b_mat.T - cov.sigma))),
            "max_abs_ab_minus_identity": float(np.max(np.abs(basis.a_mat @ basis.b_mat - np.eye(6)))),
            "size": 6,
        },
    )

    lat = lattice_for_hurst(0.7, depth=3, order=3)
    reporting.write_paths_csv(path("paths.csv"), sample_paths(lat.basis, 3, 64, seed))

    bs_lat = lattice_for_hurst(0.3, depth=2, order=3)
    terminal = (
        bs_lat.constant(0.2, 2)
        + noise_value(bs_lat, 0).at_level(2) * 0.5
        + noise_value(bs_lat, 1).at_level(2) * (-0.4)
    )
    driver = DriverSpec(
        horizon=2,
        terminal=terminal,
        f=lambda s, y, z: 0.1 + 0.3 * y + (0.2 * z if s < 2 else 0.0 * z),
        g=lambda s, y, z: (0.4 * y if s < 2 else 0.0 * y),
        terminal_noise_free=True,
    )
    reporting.write_bsde_csv(path("bsde_solution.csv"), bs_lat, solve_bsde(driver, bs_lat))

    spec = LqSpec(
        horizon=2, A=[0.3, -0.2], B=[1.0, 0.8], C=[0.2, 0.3], D=[0.5, 0.4],
        Q=[0.6, 0.4], R=[1.0, 1.2], G=1.1, x=1.3,
    )
    lq_lat = lattice_for_hurst(0.7, depth=2, order=3)
    sol = lq_fixed_point(spec, lq_lat, lq_lat.basis)
    model = as_model(spec)
    reporting.write_control_csv(path("u_star.csv"), lq_lat, sol.control)
    reporting.write_adjoint_csv(path("adjoint.csv"), sol.adjoint)
    reporting.write_lq_trace_csv(path("lq_trace.csv"), sol.trace)
    res = _gradient(model, sol.control, sol.state, sol.adjoint, lq_lat, lq_lat.basis)
    station = check_stationarity(res, sol.control, model.control_set, tol=1e-8)
    suff = verify_sufficiency(spec, sol.control, lq_lat, lq_lat.basis, seed=seed)
    uniq = verify_uniqueness(spec, lq_lat, lq_lat.basis, seed=seed)
    reporting.write_json(
        path("lq_report.json"),
        {
            "J": sol.cost,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "stationarity": {"passed": station.passed, "worst_violation": station.worst_violation},
            "sufficiency": {"passed": suff.passed, "min_cost_gap": suff.min_cost_gap},
            "uniqueness": {"passed": uniq.passed, "max_control_spread": uniq.max_control_spread},
        },
    )
    classification = [
        (ok, viol)
        for viol, ok in (
            classify_nodes(res[n].values, sol.control[n].values, model.control_set, 1e-8)
            for n in range(2)
        )
    ]
    reporting.write_residual_csv(path("residual.csv"), res, sol.control, classification)

    opt_model = sin_drift_model(2, initial_state=1.0)
    result = optimize(
        opt_model, constant_control(lq_lat, 2, 0.0), lq_lat, lq_lat.basis,
        tol=1e-6, max_iter=2000,
    )
    reporting.write_optimize_trace_csv(path("optimize_trace.csv"), result.trace)
    reporting.write_control_csv(path("optimize_control.csv"), lq_lat, result.control)
    reporting.write_json(
        path("optimize_report.json"),
        {
            "converged": result.converged,
            "iterations": result.iterations,
            "J": result.cost,
            "worst_residual": result.trace[-1].worst_residual,
        },
    )
    return files


def criterion_determinism(seed: int) -> CriterionResult:
    """Two artifact runs with one seed are byte-identical, file by file."""
    with tempfile.TemporaryDirectory() as tmp:
        dir_a, dir_b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        files_a = write_artifacts(seed, dir_a)
        files_b = write_artifacts(seed, dir_b)
        same = files_a == files_b
        mismatched = []
        for name in files_a:
            if not filecmp.cmp(os.path.join(dir_a, name), os.path.join(dir_b, name), shallow=False):
                mismatched.append(name)
        passed = same and not mismatched
        detail = (
            f"{len(files_a)} files byte-identical"
            if passed
            else f"differing files: {mismatched or 'list mismatch'}"
        )
    return CriterionResult(12, "artifact-determinism", passed, detail)


CRITERIA = (
    criterion_whitening_roundtrip,
    criterion_white_noise_reduction,
    criterion_sample_covariance,
    criterion_bsde_oracle,
    criterion_orthogonality,
    criterion_duality,
    criterion_gradient_check,
    criterion_variation_rate,
    criterion_lq_closed_form,
    criterion_lq_certificates,
    criterion_cross_solver,
    criterion_determinism,
)


def run_all(seed: int = 0, out_dir: str | None = None) -> list[CriterionResult]:
    """Run the twelve criteria; optionally write artifacts and a report."""
    results = [criterion(seed) for criterion in CRITERIA]
    if out_dir is not None:
        write_artifacts(seed, out_dir)
        reporting.write_json(
            os.path.join(out_dir, "selftest_report.json"),
            {
                "seed": seed,
                "passed": all(r.passed for r in results),
                "criteria": [
                    {"number": r.number, "name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            },
        )
    return results
