"""Independent oracles at benchmark-like depth, (q, N) = (3, 9) and (4, 7).

Each oracle builds its own Gauss-Hermite rule, its own Cholesky factor
of the fractional-increment covariance and a plain-numpy recursion,
over all q^N leaf paths (node (i_0, ..., i_{N-1}) at big-endian index)
or level by level over child blocks.  None of it goes through
fgncontrol, so a slip in the lattice tables, the stage lift or the
contraction that only shows at depth fails here.  The smp_residual
check compares the shortened state roll with the full one, and the LQ
checks compare the LQ solve, one DDP Newton step from the zero control,
with a per-node Riccati pass over leaf-sized child blocks, also on the
one-node rule (q = 1, eta = 0), whose E[eta^2] reads 0.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from fgncontrol import smp
from fgncontrol.bsde import DriverSpec, adjoint_driver, solve_bsde
from fgncontrol.dynamics import cost, forward, random_control, sin_drift_model
from fgncontrol.lattice import lattice_for_hurst
from fgncontrol.lq import as_model, lq_fixed_point
from fgncontrol.selftest import _random_lq_spec
from fgncontrol.smp import _gradient, smp_residual
from test_smp import quadratic_noise_model

CASES = [(3, 9, 0.7), (4, 7, 0.3)]
CASES_H07 = [(3, 9, 0.7), (4, 7, 0.7)]
CASES_LQ = [(q, depth, hurst) for q, depth in ((3, 9), (4, 7)) for hurst in (0.3, 0.7)]


def rule(q: int):
    nodes, weights = hermegauss(q)
    return nodes, weights / weights.sum()


def fgn_cholesky(size: int, hurst: float) -> np.ndarray:
    """Lower Cholesky factor of the covariance of `size` unit fGn increments."""
    lag = np.arange(size, dtype=np.float64)
    acov = 0.5 * (
        (lag + 1.0) ** (2 * hurst) + np.abs(lag - 1.0) ** (2 * hurst) - 2.0 * lag ** (2 * hurst)
    )
    return np.linalg.cholesky(acov[np.abs(np.subtract.outer(lag, lag)).astype(int)])


class LeafOracle:
    """Every leaf path of a depth-N, order-q tree with its noises."""

    def __init__(self, q: int, depth: int, hurst: float):
        nodes, weights = rule(q)
        chol = fgn_cholesky(depth + 1, hurst)
        self.q, self.depth = q, depth
        self.digits = np.array(list(np.ndindex(*(q,) * depth)))  # big-endian leaf order
        self.prob = np.prod(weights[self.digits], axis=1)
        # eta_N is off the tree; its mean 0 turns xi_N into E[xi_N | level N]
        eta = np.hstack([nodes[self.digits], np.zeros((self.prob.size, 1))])
        self.eta = eta[:, :depth]
        self.xi = eta @ chol.T

    def prefix(self, n: int) -> np.ndarray:
        """Index of each leaf's level-n ancestor."""
        return self.digits[:, :n] @ (self.q ** np.arange(n - 1, -1, -1))

    def condexp(self, values: np.ndarray, n: int) -> np.ndarray:
        """E[values | level n] on the leaves, by summing over whole subtrees."""
        rows = self.q**n
        num = (values * self.prob).reshape(rows, -1).sum(axis=1)
        mean = num / self.prob.reshape(rows, -1).sum(axis=1)
        return np.repeat(mean, self.prob.size // rows)


@pytest.mark.parametrize("q,depth,hurst", CASES)
def test_sin_drift_cost_matches_leaf_oracle(q, depth, hurst):
    lat = lattice_for_hurst(hurst, depth, q)
    model = sin_drift_model(depth, initial_state=0.8, noise_gain=0.6)
    u = random_control(lat, depth, np.random.default_rng(11), scale=0.7)
    got = cost(model, u, forward(model, u, lat), lat)

    oracle = LeafOracle(q, depth, hurst)
    x = np.full(oracle.prob.size, 0.8)
    running = np.zeros_like(x)
    for n in range(depth):
        un = u[n].values[oracle.prefix(n)]
        running += 0.5 * un**2
        x = x + np.sin(x) + un + 0.6 * un * oracle.xi[:, n]
    want = float(np.sum(oracle.prob * (running + 0.5 * x**2)))
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("q,depth,hurst", CASES)
def test_affine_bsde_start_matches_leaf_oracle(q, depth, hurst):
    rng = np.random.default_rng(5)
    a, c, d, e, h, k = (0.4 * rng.standard_normal(depth + 1) for _ in range(6))
    c[depth] = h[depth] = 0.0  # the last stage sees Z_N = 0

    oracle = LeafOracle(q, depth, hurst)
    terminal = np.sin(oracle.xi[:, :depth].sum(axis=1)) + 0.3 * oracle.xi[:, depth - 1] ** 2
    y, z = terminal, np.zeros_like(terminal)
    for n in reversed(range(depth)):
        s = n + 1
        rhs = y + (a[s] * y + c[s] * z + d[s]) + (e[s] * y + h[s] * z + k[s]) * oracle.xi[:, s]
        y, z = oracle.condexp(rhs, n), oracle.condexp(oracle.eta[:, n] * rhs, n)

    lat = lattice_for_hurst(hurst, depth, q)
    driver = DriverSpec(
        horizon=depth,
        terminal=lat.from_values(depth, terminal),
        f=lambda s, yv, zv: a[s] * yv + c[s] * zv + d[s],
        g=lambda s, yv, zv: e[s] * yv + h[s] * zv + k[s],
    )
    sol = solve_bsde(driver, lat)
    for got, want in ((sol.y[0].values[0], y[0]), (sol.z[0].values[0], z[0])):
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("q,depth,hurst", CASES_H07)
def test_smp_residual_equals_gradient_on_the_full_roll(q, depth, hurst):
    # smp_residual stops the roll at X_{N-1}; the full forward roll gives the same rho
    lat = lattice_for_hurst(hurst, depth, q)
    model = sin_drift_model(depth, initial_state=0.8, noise_gain=0.6)
    u = random_control(lat, depth, np.random.default_rng(12), scale=0.7)
    x = forward(model, u, lat)
    adj = solve_bsde(adjoint_driver(model, u, x), lat)
    want = _gradient(model, u, [s.values for s in x], adj, lat)
    got = smp_residual(model, u, adj, lat, lat.basis)
    assert len(got) == depth
    for n in range(depth):
        assert got[n].values.tobytes() == want[n].values.tobytes()


@pytest.mark.parametrize("q,depth,hurst", CASES)
@pytest.mark.parametrize("make_model", [
    lambda depth: sin_drift_model(depth, initial_state=0.8, noise_gain=0.6),
    lambda depth: quadratic_noise_model(depth, initial_state=0.8),
], ids=["sin-drift", "quadratic-noise"])
def test_rho_matches_leaf_oracle(q, depth, hurst, make_model):
    # rho_n = l_u + E[(p_n + q_n eta_n)(b_u + sigma_u xi_n) | n]: the library's
    # (p, q) lifted to the leaves, with the oracle's own xi, eta and contraction
    lat = lattice_for_hurst(hurst, depth, q)
    model = make_model(depth)
    u = random_control(lat, depth, np.random.default_rng(13), scale=0.7)
    x, adj = smp.solve_adjoint(model, u, lat, lat.basis)
    rho = smp_residual(model, u, adj, lat, lat.basis)

    oracle = LeafOracle(q, depth, hurst)
    for n in range(depth):
        at = oracle.prefix(n)
        xn, un = x[n].values[at], u[n].values[at]
        b_u, sigma_u, l_u = (np.broadcast_to(getattr(model, name)(n, xn, un), un.shape)
                             for name in ("b_u", "sigma_u", "l_u"))
        pq = adj.y[n].values[at] + adj.z[n].values[at] * oracle.eta[:, n]
        terms = pq * (b_u + sigma_u * oracle.xi[:, n])
        want = oracle.condexp(terms, n) + l_u
        scale = max(1.0, float(np.max(np.abs(terms))), float(np.max(np.abs(l_u))))
        np.testing.assert_allclose(rho[n].values[at], want, rtol=0.0, atol=1e-13 * scale)


@pytest.mark.parametrize("q,depth,hurst", CASES_H07)
def test_affine_bsde_every_stage_matches_block_reference(q, depth, hurst):
    # Y_n = sum_j w_j M_ij and Z_n = sum_j w_j eta_j M_ij over each child block i
    rng = np.random.default_rng(9)
    a, c, d, e, h, k = (0.4 * rng.standard_normal(depth + 1) for _ in range(6))
    c[depth] = h[depth] = 0.0  # the last stage sees Z_N = 0
    terminal = rng.standard_normal(q**depth)
    nodes, weights = rule(q)
    chol = fgn_cholesky(depth + 1, hurst)

    want_y, want_z = [terminal], []
    y, z = terminal, np.zeros_like(terminal)
    for n in reversed(range(depth)):
        s = n + 1
        mean = np.zeros(1)  # E[xi_s | level s] = sum_{k<s} chol[s, k] eta_k
        for j in range(s):
            mean = np.add.outer(mean, chol[s, j] * nodes).ravel()
        rhs = y + (a[s] * y + c[s] * z + d[s]) + (e[s] * y + h[s] * z + k[s]) * mean
        blocks = rhs.reshape(-1, q)
        y, z = blocks @ weights, (blocks * nodes) @ weights
        want_y.insert(0, y)
        want_z.insert(0, z)

    lat = lattice_for_hurst(hurst, depth, q)
    driver = DriverSpec(
        horizon=depth,
        terminal=lat.from_values(depth, terminal),
        f=lambda s, yv, zv: a[s] * yv + c[s] * zv + d[s],
        g=lambda s, yv, zv: e[s] * yv + h[s] * zv + k[s],
    )
    sol = solve_bsde(driver, lat)
    for got, want in [*zip(sol.y, want_y), *zip(sol.z, want_z)]:
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got.values, want, rtol=0.0, atol=1e-14 * scale)


def riccati(spec, q: int, hurst: float) -> tuple[float, list[np.ndarray]]:
    """(0.5 P_0 x^2, [K_n]) from a per-node Riccati pass over child blocks.

    alpha = 1 + A_n + C_n xi_n and gamma = B_n + D_n xi_n are built as
    (q^n, q) block tables of the increment, with no moment algebra.
    """
    nodes, weights = rule(q)
    chol = fgn_cholesky(spec.horizon, hurst)
    p, gains = np.full(q**spec.horizon, float(spec.G)), []
    for n in reversed(range(spec.horizon)):
        mean = np.zeros(1)  # E[xi_n | level n] = sum_{k<n} chol[n, k] eta_k
        for k in range(n):
            mean = np.add.outer(mean, chol[n, k] * nodes).ravel()
        xi = mean[:, None] + chol[n, n] * nodes
        alpha, gamma = 1.0 + spec.A[n] + spec.C[n] * xi, spec.B[n] + spec.D[n] * xi
        blocks = p.reshape(-1, q)
        s_aa, s_ag, s_gg = ((blocks * f * g) @ weights for f, g in
                            ((alpha, alpha), (alpha, gamma), (gamma, gamma)))
        gains.insert(0, s_ag / (spec.R[n] + s_gg))
        p = spec.Q[n] + s_aa - s_ag * gains[0]
    return 0.5 * float(p[0]) * spec.x**2, gains


@pytest.mark.parametrize("q,depth,hurst", CASES_LQ + [(1, 6, 0.3), (1, 6, 0.7)])
def test_lq_solve_matches_per_node_riccati(q, depth, hurst):
    # J = 0.5 P_0 x^2, u_n = -K_n X_n, and X is the forward roll of u bit for bit
    spec = _random_lq_spec(np.random.default_rng([0, q, depth, 0]), depth)
    lat = lattice_for_hurst(hurst, depth, q)
    sol = lq_fixed_point(spec, lat)
    want, gains = riccati(spec, q, hurst)
    assert abs(sol.cost - want) <= 1e-12 * abs(want)
    for n, k in enumerate(gains):
        u_n, x_n = sol.control[n].values, sol.state[n].values
        np.testing.assert_allclose(u_n, -k * x_n, rtol=0.0, atol=1e-12 * np.max(np.abs(u_n)))
    rolled = forward(as_model(spec), sol.control, lat)
    for got, ref in zip(sol.state, rolled, strict=True):
        assert got.values.tobytes() == ref.values.tobytes()


def test_lq_riccati_pass_stays_under_three_leaf_tables(monkeypatch):
    # traced peak from entry to the first state step of the closed-loop roll
    q, depth = 10, 5
    spec = _random_lq_spec(np.random.default_rng([0, q, depth, 0]), depth)
    lat = lattice_for_hurst(0.7, depth, q)
    peaks, step = [], smp._step

    def spy(*args):
        if not peaks:
            peaks.append(tracemalloc.get_traced_memory()[1])
        return step(*args)

    monkeypatch.setattr(smp, "_step", spy)
    tracemalloc.start()
    try:
        lq_fixed_point(spec, lat)
    finally:
        tracemalloc.stop()
    assert peaks[0] < 3 * 8 * q**depth
