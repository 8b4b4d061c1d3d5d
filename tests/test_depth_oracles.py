"""Independent oracles at benchmark-like depth, (q, N) = (3, 9) and (4, 7).

Each oracle builds its own Gauss-Hermite rule, its own Cholesky factor
of the fractional-increment covariance and a plain-numpy recursion over
all q^N leaf paths (node (i_0, ..., i_{N-1}) at big-endian index).  None
of it goes through fgncontrol, so a slip in the lattice tables, the
stage lift or the contraction that only shows at depth fails here.
"""

import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from fgncontrol.bsde import DriverSpec, solve_bsde
from fgncontrol.dynamics import cost, forward, random_control, sin_drift_model
from fgncontrol.lattice import lattice_for_hurst

CASES = [(3, 9, 0.7), (4, 7, 0.3)]


class LeafOracle:
    """Every leaf path of a depth-N, order-q tree with its noises."""

    def __init__(self, q: int, depth: int, hurst: float):
        nodes, weights = hermegauss(q)
        weights = weights / weights.sum()
        lag = np.arange(depth + 1, dtype=np.float64)
        acov = 0.5 * (
            (lag + 1.0) ** (2 * hurst) + np.abs(lag - 1.0) ** (2 * hurst) - 2.0 * lag ** (2 * hurst)
        )
        chol = np.linalg.cholesky(acov[np.abs(np.subtract.outer(lag, lag)).astype(int)])
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
