"""Backward equation solver against hand expansions and a path oracle.

The two-stage oracle enumerates the 9 nodes (i, j) of a q = 3 lattice
with plain Python loops and weighted sums; it shares nothing with the
contraction-based solver.
"""

import numpy as np
import pytest

from fgncontrol.bsde import (
    BsdeSolution,
    DriverSpec,
    adjoint_driver,
    residual_orthogonality,
    solve_bsde,
)
from fgncontrol.dynamics import ModelSpec, constant_control, forward, sin_drift_model
from fgncontrol.errors import DepthMismatch, LevelMismatch, TerminalConditionViolated
from fgncontrol.lattice import (
    NoiseLattice,
    _is_frozen,
    condexp,
    lattice_for_hurst,
    noise_value,
    white_value,
)
from fgncontrol.noise import fgn_covariance, whiten


@pytest.fixture(scope="module")
def lat():
    # depth 3 for the N = 2 drivers below: one stage to spare
    return lattice_for_hurst(0.7, depth=3, order=3)


def affine_driver(lat, coeffs, terminal_coeffs):
    """Two-stage affine driver.

    coeffs[s] = (alpha, beta, gamma, delta, eps, zeta) for stages s = 1, 2:
    f = alpha y + beta z + gamma, g = delta y + eps z + zeta.  Stage 2
    must not use z.  terminal y = c0 + c1 xi_0 + c2 xi_1.
    """
    c0, c1, c2 = terminal_coeffs

    def f(s, y, z):
        alpha, beta, gamma, *_ = coeffs[s]
        return alpha * y + beta * z + gamma

    def g(s, y, z):
        *_, delta, eps, zeta = coeffs[s]
        return delta * y + eps * z + zeta

    terminal = c0 + c1 * noise_value(lat, 0).at_level(2) + c2 * noise_value(lat, 1)
    return DriverSpec(horizon=2, terminal=terminal, f=f, g=g)


def oracle_two_stage(basis, rule, coeffs, terminal_coeffs):
    """Solve the same affine two-stage equation by explicit enumeration."""
    x_nodes, w = [float(v) for v in rule.nodes], [float(v) for v in rule.weights]
    b = basis.b_mat
    q = rule.q
    c0, c1, c2 = terminal_coeffs
    a2, _b2, g2 = coeffs[2][:3]
    a1, b1, g1, d1, e1, z1 = coeffs[1]

    y1 = [0.0] * q
    zz1 = [0.0] * q
    for i in range(q):
        for j in range(q):
            xi0 = b[0, 0] * x_nodes[i]
            xi1 = b[1, 0] * x_nodes[i] + b[1, 1] * x_nodes[j]
            y2 = c0 + c1 * xi0 + c2 * xi1
            rhs = y2 + a2 * y2 + g2
            y1[i] += w[j] * rhs
            zz1[i] += w[j] * x_nodes[j] * rhs

    y0 = 0.0
    z0 = 0.0
    for i in range(q):
        m1 = 0.0
        for j in range(q):
            xi1 = b[1, 0] * x_nodes[i] + b[1, 1] * x_nodes[j]
            rhs0 = (
                y1[i]
                + a1 * y1[i] + b1 * zz1[i] + g1
                + (d1 * y1[i] + e1 * zz1[i] + z1) * xi1
            )
            m1 += w[j] * rhs0
        y0 += w[i] * m1
        z0 += w[i] * x_nodes[i] * m1
    return y0, z0, np.array(y1), np.array(zz1)


def assert_orthogonal(sol: BsdeSolution, lattice, tol=1e-10):
    mean_err, eta_err = residual_orthogonality(sol, lattice)
    assert mean_err <= tol, f"E[R|F_n] violated: {mean_err}"
    assert eta_err <= tol, f"E[eta R|F_n] violated: {eta_err}"


class TestTrivialEquations:
    def test_constant_terminal_no_driver(self, lat):
        driver = DriverSpec(
            horizon=2,
            terminal=lat.constant(3.7, 2),
            f=lambda s, y, z: 0.0,
            g=lambda s, y, z: 0.0,
        )
        sol = solve_bsde(driver, lat)
        for n in range(3):
            assert np.allclose(sol.y[n].values, 3.7, atol=1e-14)
        for n in range(2):
            assert np.allclose(sol.z[n].values, 0.0, atol=1e-14)
            assert np.allclose(sol.r[n].values, 0.0, atol=1e-14)
        assert_orthogonal(sol, lat)

    def test_terminal_equal_last_white(self, lat):
        driver = DriverSpec(
            horizon=2,
            terminal=white_value(lat, 1),
            f=lambda s, y, z: 0.0,
            g=lambda s, y, z: 0.0,
        )
        sol = solve_bsde(driver, lat)
        assert np.allclose(sol.y[1].values, 0.0, atol=1e-14)
        assert np.allclose(sol.z[1].values, 1.0, atol=1e-13)
        assert np.allclose(sol.y[0].values, 0.0, atol=1e-14)
        assert np.allclose(sol.z[0].values, 0.0, atol=1e-14)
        assert_orthogonal(sol, lat)

    def test_terminal_equal_correlated_increment(self, lat):
        b = lat.basis.b_mat
        driver = DriverSpec(
            horizon=2,
            terminal=noise_value(lat, 1),
            f=lambda s, y, z: 0.0,
            g=lambda s, y, z: 0.0,
        )
        sol = solve_bsde(driver, lat)
        eta0 = white_value(lat, 0)
        assert np.allclose(sol.y[1].values, b[1, 0] * eta0.values, atol=1e-13)
        assert np.allclose(sol.z[1].values, b[1, 1], atol=1e-13)
        assert np.allclose(sol.y[0].values, 0.0, atol=1e-14)
        assert np.allclose(sol.z[0].values, b[1, 0], atol=1e-13)
        for n in range(2):
            assert np.allclose(sol.r[n].values, 0.0, atol=1e-13)


class TestBruteForceOracle:
    def test_twenty_random_affine_drivers(self, lat):
        rng = np.random.default_rng(404)
        for trial in range(20):
            raw = rng.uniform(-1.0, 1.0, size=9)
            coeffs = {
                1: tuple(raw[:6]),
                # stage 2: no z in f, no terminal noise
                2: (raw[6], 0.0, raw[7], 0.0, 0.0, 0.0),
            }
            terminal_coeffs = (raw[8], rng.uniform(-1, 1), rng.uniform(-1, 1))
            driver = affine_driver(lat, coeffs, terminal_coeffs)
            sol = solve_bsde(driver, lat)
            y0, z0, y1, z1 = oracle_two_stage(
                lat.basis, lat.rule, coeffs, terminal_coeffs
            )
            assert abs(sol.y[0].values[0] - y0) <= 1e-12, f"trial {trial}: Y_0"
            assert abs(sol.z[0].values[0] - z0) <= 1e-12, f"trial {trial}: Z_0"
            assert np.max(np.abs(sol.y[1].values - y1)) <= 1e-12, f"trial {trial}: Y_1"
            assert np.max(np.abs(sol.z[1].values - z1)) <= 1e-12, f"trial {trial}: Z_1"
            assert_orthogonal(sol, lat)

    def test_terminal_noise_solved_on_horizon_depth(self, lat):
        # a nonzero stage-N g reads basis row N, never lattice stage N + 1
        coeffs = {1: (0.1, 0.2, -0.1, 0.3, -0.2, 0.3), 2: (0.2, 0.0, 0.1, 0.5, 0.0, 1.0)}
        terminal_coeffs = (0.1, 0.4, -0.3)
        shallow = lattice_for_hurst(0.7, depth=2, order=3)
        sol = solve_bsde(affine_driver(shallow, coeffs, terminal_coeffs), shallow)
        deep = solve_bsde(affine_driver(lat, coeffs, terminal_coeffs), lat)
        for n in range(2):
            assert np.max(np.abs(sol.y[n].values - deep.y[n].values)) <= 1e-14
            assert np.max(np.abs(sol.z[n].values - deep.z[n].values)) <= 1e-14
        assert_orthogonal(sol, shallow)
        rowless = NoiseLattice(2, shallow.rule, whiten(fgn_covariance(0.7, 2)))
        with pytest.raises(DepthMismatch):
            solve_bsde(affine_driver(rowless, coeffs, terminal_coeffs), rowless)

    def test_terminal_stage_noise_hand_expansion(self, lat):
        # f = 0, g = 1 at stage 2 only, terminal 0:
        # Y_1 = E[xi_2 | F_1] = b(2,0) eta_0, Z_1 = b(2,1), Y_0 = 0, Z_0 = b(2,0)
        b = lat.basis.b_mat
        driver = DriverSpec(
            horizon=2,
            terminal=lat.constant(0.0, 2),
            f=lambda s, y, z: 0.0,
            g=lambda s, y, z: 1.0 if s == 2 else 0.0,
        )
        sol = solve_bsde(driver, lat)
        eta0 = white_value(lat, 0)
        assert np.allclose(sol.y[1].values, b[2, 0] * eta0.values, atol=1e-13)
        assert np.allclose(sol.z[1].values, b[2, 1], atol=1e-13)
        assert np.allclose(sol.y[0].values, 0.0, atol=1e-14)
        assert np.allclose(sol.z[0].values, b[2, 0], atol=1e-13)
        assert_orthogonal(sol, lat)


class TestSolutionStructure:
    def test_levels(self, lat):
        driver = DriverSpec(
            horizon=2,
            terminal=noise_value(lat, 1),
            f=lambda s, y, z: 0.1 * y,
            g=lambda s, y, z: 0.0,
        )
        sol = solve_bsde(driver, lat)
        assert [v.level for v in sol.y] == [0, 1, 2]
        assert [v.level for v in sol.z] == [0, 1]
        assert [v.level for v in sol.r] == [1, 2]

    def test_linearity_in_terminal_data(self, lat):
        rng = np.random.default_rng(31)

        def solve_with_terminal(values):
            driver = DriverSpec(
                horizon=2,
                terminal=lat.from_values(2, values),
                f=lambda s, y, z: 0.3 * y + (0.2 * z if s < 2 else 0.0),
                g=lambda s, y, z: (0.5 * y - 0.1 * z) if s < 2 else 0.0,
            )
            return solve_bsde(driver, lat)

        t1 = rng.standard_normal(9)
        t2 = rng.standard_normal(9)
        s1, s2 = solve_with_terminal(t1), solve_with_terminal(t2)
        s_mix = solve_with_terminal(2.0 * t1 - 0.5 * t2)
        for n in range(2):
            mix_y = 2.0 * s1.y[n].values - 0.5 * s2.y[n].values
            mix_z = 2.0 * s1.z[n].values - 0.5 * s2.z[n].values
            assert np.max(np.abs(s_mix.y[n].values - mix_y)) <= 1e-12
            assert np.max(np.abs(s_mix.z[n].values - mix_z)) <= 1e-12

    def test_repeat_solve_bit_identical(self, lat):
        driver = DriverSpec(
            horizon=2,
            terminal=noise_value(lat, 1),
            f=lambda s, y, z: 0.2 * y + 0.1,
            g=lambda s, y, z: 0.3 * y if s < 2 else 0.0,
        )
        a, b = solve_bsde(driver, lat), solve_bsde(driver, lat)
        for n in range(3):
            assert np.array_equal(a.y[n].values, b.y[n].values)

    def test_solution_tables_are_frozen(self, lat):
        driver = DriverSpec(
            horizon=2,
            terminal=noise_value(lat, 1),
            f=lambda s, y, z: 0.2 * y + (0.1 * z if s < 2 else 0.0),
            g=lambda s, y, z: 0.3 * y if s < 2 else 0.0,
        )
        sol = solve_bsde(driver, lat)
        for part in (sol.y, sol.z, sol.r):
            assert all(_is_frozen(v.values) for v in part)

    def test_adjoint_terminal_shares_the_final_state(self, lat):
        # phi = x^2 / 2, so phi_x(X_N) = X_N is wrapped without a copy
        model = sin_drift_model(3, initial_state=0.7)
        u = constant_control(lat, 3, 0.2)
        x = forward(model, u, lat)
        sol = solve_bsde(adjoint_driver(model, u, x, lat.basis), lat)
        assert np.shares_memory(sol.y[3].values, x[3].values)

    def test_driver_finer_than_its_stage_rejected(self, lat):
        # xi_s is not measurable at stage s; projecting it away would
        # silently give Y_0 = 0
        driver = DriverSpec(
            horizon=2,
            terminal=lat.constant(0.0, 2),
            f=lambda s, y, z: noise_value(lat, s),
            g=lambda s, y, z: 0.0,
        )
        with pytest.raises(LevelMismatch):
            solve_bsde(driver, lat)


class TestAdjointDriver:
    def test_insensitive_model_gives_unit_adjoint(self, lat):
        # b = u, sigma = 1, l = 0, phi = x: nothing depends on the state,
        # so p carries the terminal slope 1 and q vanishes.
        def active(n):
            return 1.0 if n < 2 else 0.0

        model = ModelSpec(
            horizon=2,
            initial_state=0.5,
            b=lambda n, x, u: active(n) * u,
            sigma=lambda n, x, u: active(n) * np.ones_like(x),
            l=lambda n, x, u: np.zeros_like(x),
            phi=lambda x: x,
            b_x=lambda n, x, u: np.zeros_like(x),
            b_u=lambda n, x, u: active(n) * np.ones_like(u),
            sigma_x=lambda n, x, u: np.zeros_like(x),
            sigma_u=lambda n, x, u: np.zeros_like(u),
            l_x=lambda n, x, u: np.zeros_like(x),
            l_u=lambda n, x, u: np.zeros_like(u),
            phi_x=lambda x: np.ones_like(x),
        )
        u = constant_control(lat, 2, 0.3)
        x = forward(model, u, lat)
        sol = solve_bsde(adjoint_driver(model, u, x, lat.basis), lat)
        for n in range(3):
            assert np.allclose(sol.y[n].values, 1.0, atol=1e-13)
        for n in range(2):
            assert np.allclose(sol.z[n].values, 0.0, atol=1e-13)
        assert_orthogonal(sol, lat)

    def test_one_step_lq_adjoint_hand_values(self):
        lat1 = lattice_for_hurst(0.7, depth=1, order=3)
        a0, b0, c0, d0, g = 0.4, 1.1, -0.3, 0.7, 1.6
        x0, u0 = 1.2, 0.5

        def active(n):
            return 1.0 if n < 1 else 0.0

        model = ModelSpec(
            horizon=1,
            initial_state=x0,
            b=lambda n, x, u: active(n) * (a0 * x + b0 * u),
            sigma=lambda n, x, u: active(n) * (c0 * x + d0 * u),
            l=lambda n, x, u: np.zeros_like(x),
            phi=lambda x: 0.5 * g * x**2,
            b_x=lambda n, x, u: active(n) * a0 * np.ones_like(x),
            b_u=lambda n, x, u: active(n) * b0 * np.ones_like(u),
            sigma_x=lambda n, x, u: active(n) * c0 * np.ones_like(x),
            sigma_u=lambda n, x, u: active(n) * d0 * np.ones_like(u),
            l_x=lambda n, x, u: np.zeros_like(x),
            l_u=lambda n, x, u: np.zeros_like(u),
            phi_x=lambda x: g * x,
        )
        u = constant_control(lat1, 1, u0)
        x = forward(model, u, lat1)
        sol = solve_bsde(adjoint_driver(model, u, x, lat1.basis), lat1)
        b00 = lat1.basis.b_mat[0, 0]
        # p_0 = E[G X_1] = G((1+a0)x + b0 u); q_0 = G(c0 x + d0 u) b(0,0)
        assert sol.y[0].values[0] == pytest.approx(
            g * ((1 + a0) * x0 + b0 * u0), abs=1e-12
        )
        assert sol.z[0].values[0] == pytest.approx(
            g * (c0 * x0 + d0 * u0) * b00, abs=1e-12
        )

    def test_nonvanishing_terminal_derivative_rejected(self, lat):
        # b vanishes at the final stage but the supplied b_x does not;
        # the adjoint must refuse rather than treat stage N as active.
        model = ModelSpec(
            horizon=2,
            initial_state=0.0,
            b=lambda n, x, u: (x if n < 2 else np.zeros_like(x)),
            sigma=lambda n, x, u: np.zeros_like(x),
            l=lambda n, x, u: np.zeros_like(x),
            phi=lambda x: x,
            b_x=lambda n, x, u: np.ones_like(x),
            b_u=lambda n, x, u: np.zeros_like(u),
            sigma_x=lambda n, x, u: np.zeros_like(x),
            sigma_u=lambda n, x, u: np.zeros_like(u),
            l_x=lambda n, x, u: np.zeros_like(x),
            l_u=lambda n, x, u: np.zeros_like(u),
            phi_x=lambda x: np.ones_like(x),
        )
        u = constant_control(lat, 2, 0.0)
        x = forward(model, u, lat)
        with pytest.raises(TerminalConditionViolated):
            adjoint_driver(model, u, x, lat.basis)

    def test_white_noise_reduction_matches_direct_recursion(self):
        # at h = 0.5 the adjoint collapses to the classical recursion
        # p_n = E[p_{n+1} + b_x p_{n+1} + sigma_x q_{n+1} + l_x | F_n]
        # coded here directly on the lattice
        lat5 = lattice_for_hurst(0.5, depth=3, order=3)
        model = sin_drift_model(3, initial_state=0.8)
        u = constant_control(lat5, 3, 0.25)
        x = forward(model, u, lat5)
        sol = solve_bsde(adjoint_driver(model, u, x, lat5.basis), lat5)

        p = [None] * 4
        q = [None] * 3
        p[3] = lat5.from_values(3, model.phi_x(x[3].values))
        for n in range(2, -1, -1):
            s = n + 1
            if s < 3:
                bx = lat5.from_values(s, model.b_x(s, x[s].values, u[s].values))
                lx = lat5.from_values(s, model.l_x(s, x[s].values, u[s].values))
                rhs = p[s] + bx * p[s] + lx  # sigma_x = 0 for this model
            else:
                rhs = p[s]
            p[n] = condexp(rhs, n)
            q[n] = condexp(white_value(lat5, n) * rhs, n)
        for n in range(4):
            assert np.max(np.abs(sol.y[n].values - p[n].values)) <= 1e-10
        for n in range(3):
            assert np.max(np.abs(sol.z[n].values - q[n].values)) <= 1e-10
        assert_orthogonal(sol, lat5)

    def test_sin_drift_adjoint_orthogonality(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        rng = np.random.default_rng(77)
        from fgncontrol.dynamics import random_control

        u = random_control(lat, 3, rng, scale=0.4)
        x = forward(model, u, lat)
        sol = solve_bsde(adjoint_driver(model, u, x, lat.basis), lat)
        assert_orthogonal(sol, lat)

    def test_fgn_covariance_consistency_of_z(self, lat):
        # terminal = xi_1 with zero driver: Z_0 must equal b(1,0) exactly,
        # tying the backward solution to the whitening coefficients
        sigma = fgn_covariance(0.7, 2).sigma
        basis = whiten(fgn_covariance(0.7, 2))
        assert basis.b_mat[1, 0] == pytest.approx(sigma[0][1], abs=1e-12)
