"""Backward equation solver against hand expansions and a path oracle.

The two-stage oracle enumerates the 9 nodes (i, j) of a q = 3 lattice
with plain Python loops and weighted sums; it shares nothing with the
contraction-based solver.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from fgncontrol.bsde import (
    BsdeSolution,
    DriverSpec,
    adjoint_driver,
    residual_orthogonality,
    solve_bsde,
)
from fgncontrol.dynamics import (
    ModelSpec,
    constant_control,
    cost,
    forward,
    random_control,
    sin_drift_model,
    variation,
)
from fgncontrol.configs import _STAGE_KEYS, _build_driver
from fgncontrol.errors import DepthMismatch, LevelMismatch
from fgncontrol.lattice import (
    AdaptedValue,
    NoiseLattice,
    _is_frozen,
    _mean,
    _moments,
    condexp,
    lattice_for_hurst,
    noise_value,
    white_value,
)
from fgncontrol.lq import as_model
from fgncontrol.noise import fgn_covariance, whiten
from fgncontrol.reporting import write_bsde_csv
from fgncontrol.selftest import _random_lq_spec
from fgncontrol.smp import directional_derivative, optimize, smp_residual, solve_adjoint
from test_dynamics import one_step_lq_model


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
        sol = solve_bsde(adjoint_driver(model, u, x), lat)
        assert np.shares_memory(sol.y[3].values, x[3].values)

    def test_stage_n_residual_needs_no_leaf_sized_temporary(self):
        # stage N must allocate M, Y_{N-1} and Z_{N-1}; the solve takes Y and
        # Z from M and drops it, and builds no R, whose column-by-column
        # subtraction, when R is read, adds only level-(N-1) temporaries
        q, n_stages = 5, 7
        lat5 = lattice_for_hurst(0.7, depth=n_stages, order=q)
        leaf = 8 * lat5.level_size(n_stages)
        marks = {}

        def f(s, y, z):
            # called at the start of stage s, before M is built
            marks[s] = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            return 0.0

        terminal = lat5.from_values(n_stages, np.cos(np.arange(lat5.level_size(n_stages))))
        driver = DriverSpec(horizon=n_stages, terminal=terminal, f=f, g=lambda s, y, z: 0.0)
        solve_bsde(driver, lat5)  # builds the lattice's cached weights
        tracemalloc.start()
        try:
            solve_bsde(driver, lat5)
        finally:
            tracemalloc.stop()
        before, _ = marks[n_stages]
        _, peak = marks[n_stages - 1]
        kept = leaf + 2 * leaf // q
        assert peak - before - kept < leaf / 2

    @pytest.mark.parametrize("g_final, leaf_tables", [(False, 2.5), (True, 4.5)])
    def test_affine_config_solve_peak(self, g_final, leaf_tables):
        # above its inputs the solve builds M and the stage-N f (two leaf tables)
        # and reads Z_N = 0 as a level-0 value; a leaf-sized zero Z_N made the
        # peak 3.0 and 5.0.  A stage-N g also builds E[xi_N | level N], not
        # cached at the lattice's depth, and g times it: two more
        q, n_stages = 3, 11
        lat3 = lattice_for_hurst(0.7, depth=n_stages, order=q)
        rng = np.random.default_rng([q, n_stages])
        stages = [dict(zip(_STAGE_KEYS, rng.uniform(-0.5, 0.5, 6))) for _ in range(n_stages)]
        stages[-1].update(f_z=0.0, g_z=0.0)
        if not g_final:
            stages[-1].update(g_constant=0.0, g_y=0.0)
        driver = _build_driver(lat3, 0.5, rng.uniform(-1.0, 1.0, n_stages), tuple(stages))
        solve_bsde(driver, lat3)  # builds the lattice's cached noise means and weights
        tracemalloc.start()
        try:
            solve_bsde(driver, lat3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= leaf_tables * 8 * lat3.level_size(n_stages)

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


def refuse(n, x, u):
    raise AssertionError(f"stage coefficient called at stage {n}")


# Every stage coefficient of a ModelSpec: b, sigma, l and their derivatives.
STAGE_COEFFICIENTS = tuple(
    f"{value}{wrt}" for value in ("b", "sigma", "l") for wrt in ("", "_x", "_u", "_xx", "_uu", "_xu")
)


def past_horizon(model, coefficient):
    """`model` with every stage coefficient replaced by `coefficient` at n >= horizon."""
    def wrap(own):
        return lambda n, x, u: own(n, x, u) if n < model.horizon else coefficient(n, x, u)

    return dataclasses.replace(
        model, **{name: wrap(getattr(model, name)) for name in STAGE_COEFFICIENTS}
    )


def adjoint_tables(model, u, lat):
    """Y, Z and every R_n of the adjoint at u, from `solve_adjoint` and from a
    plain `solve_bsde` of `adjoint_driver`, and the residual rho of each."""
    x, cached = solve_adjoint(model, u, lat, lat.basis)
    plain = solve_bsde(adjoint_driver(model, u, x), lat)
    return [
        s.values
        for sol in (cached, plain)
        for s in (*sol.y, *sol.z, *sol.r, *smp_residual(model, u, sol, lat, lat.basis))
    ]


def assert_same_bytes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestAdjointDriver:
    def test_insensitive_model_gives_unit_adjoint(self, lat):
        # b = u, sigma = 1, l = 0, phi = x: nothing depends on the state,
        # so p carries the terminal slope 1 and q vanishes.
        model = ModelSpec(
            horizon=2,
            initial_state=0.5,
            b=lambda n, x, u: u,
            sigma=lambda n, x, u: 1.0,
            l=lambda n, x, u: 0.0,
            phi=lambda x: x,
            b_x=lambda n, x, u: 0.0,
            b_u=lambda n, x, u: 1.0,
            sigma_x=lambda n, x, u: 0.0,
            sigma_u=lambda n, x, u: 0.0,
            l_x=lambda n, x, u: 0.0,
            l_u=lambda n, x, u: 0.0,
            phi_x=lambda x: 1.0,
        )
        u = constant_control(lat, 2, 0.3)
        x = forward(model, u, lat)
        sol = solve_bsde(adjoint_driver(model, u, x), lat)
        for n in range(3):
            assert np.allclose(sol.y[n].values, 1.0, atol=1e-13)
        for n in range(2):
            assert np.allclose(sol.z[n].values, 0.0, atol=1e-13)
        assert_orthogonal(sol, lat)

    def test_one_step_lq_adjoint_hand_values(self):
        lat1 = lattice_for_hurst(0.7, depth=1, order=3)
        a0, b0, c0, d0, g = 0.4, 1.1, -0.3, 0.7, 1.6
        x0, u0 = 1.2, 0.5
        model = one_step_lq_model(a0, b0, c0, d0, 0.0, 0.0, g, x0)
        u = constant_control(lat1, 1, u0)
        x = forward(model, u, lat1)
        sol = solve_bsde(adjoint_driver(model, u, x), lat1)
        b00 = lat1.basis.b_mat[0, 0]
        # p_0 = E[G X_1] = G((1+a0)x + b0 u); q_0 = G(c0 x + d0 u) b(0,0)
        assert sol.y[0].values[0] == pytest.approx(
            g * ((1 + a0) * x0 + b0 * u0), abs=1e-12
        )
        assert sol.z[0].values[0] == pytest.approx(
            g * (c0 * x0 + d0 * u0) * b00, abs=1e-12
        )

    def test_nonvanishing_terminal_derivative_is_not_read(self, lat):
        # b vanishes at the final stage but the supplied b_x does not; the
        # system does not act at stage N, so the adjoint is that of the model
        # whose b_x vanishes there, byte for byte.  The stage-N b_x is a table
        # on purpose: a table is what a route that read it would multiply in
        def model(b_x_at_final):
            return ModelSpec(
                horizon=2,
                initial_state=0.5,
                b=lambda n, x, u: x if n < 2 else 0.0,
                sigma=lambda n, x, u: u,
                l=lambda n, x, u: 0.0,
                phi=lambda x: 0.5 * x**2,
                b_x=lambda n, x, u: 1.0 if n < 2 else b_x_at_final(x),
                b_u=lambda n, x, u: 0.0,
                sigma_x=lambda n, x, u: 0.0,
                sigma_u=lambda n, x, u: 1.0,
                l_x=lambda n, x, u: 0.0,
                l_u=lambda n, x, u: 0.0,
                phi_x=lambda x: x,
                phi_xx=lambda x: 1.0,
            )

        u = random_control(lat, 2, np.random.default_rng(40))
        nonvanishing, vanishing = model(np.ones_like), model(np.zeros_like)
        assert_same_bytes(
            adjoint_tables(nonvanishing, u, lat), adjoint_tables(vanishing, u, lat)
        )
        # an LQ model whose every stage coefficient is a table of ones past the horizon
        lq = as_model(_random_lq_spec(np.random.default_rng(41), 2))
        assert_same_bytes(
            adjoint_tables(past_horizon(lq, lambda n, x, u: np.ones_like(x)), u, lat),
            adjoint_tables(lq, u, lat),
        )

    @pytest.mark.parametrize("depth", [3, 4])
    def test_model_is_never_called_at_the_final_stage(self, depth):
        # every stage coefficient of sin drift raises at n >= N; the model
        # builds, and each route returns the unwrapped model's bytes
        n_stages = 3
        lat = lattice_for_hurst(0.7, depth=depth, order=3)
        plain = sin_drift_model(n_stages)
        guarded = past_horizon(plain, refuse)
        u = random_control(lat, n_stages, np.random.default_rng(42))
        v = random_control(lat, n_stages, np.random.default_rng(43))
        results = []
        for model in (plain, guarded):
            x = forward(model, u, lat)
            found = optimize(model, u, lat)
            results.append([
                *adjoint_tables(model, u, lat),
                *(s.values for s in x),
                *(s.values for s in variation(model, u, x, v, lat)),
                *(s.values for s in found.control),
                *(s.values for s in found.adjoint.y),
                np.array([
                    cost(model, u, x, lat),
                    directional_derivative(model, u, v, lat),
                    found.cost,
                    found.iterations,
                ]),
            ])
        assert_same_bytes(*results)

    def test_white_noise_reduction_matches_direct_recursion(self):
        # at h = 0.5 the adjoint collapses to the classical recursion
        # p_n = E[p_{n+1} + b_x p_{n+1} + sigma_x q_{n+1} + l_x | F_n]
        # coded here directly on the lattice
        lat5 = lattice_for_hurst(0.5, depth=3, order=3)
        model = sin_drift_model(3, initial_state=0.8)
        u = constant_control(lat5, 3, 0.25)
        x = forward(model, u, lat5)
        sol = solve_bsde(adjoint_driver(model, u, x), lat5)

        p = [None] * 4
        q = [None] * 3
        p[3] = lat5.from_values(3, model.phi_x(x[3].values))
        for n in range(2, -1, -1):
            s = n + 1
            if s < 3:
                bx = lat5.from_values(s, model.b_x(s, x[s].values, u[s].values))
                lx = lat5.from_values(
                    s, np.broadcast_to(model.l_x(s, x[s].values, u[s].values), lat5.level_size(s))
                )
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
        sol = solve_bsde(adjoint_driver(model, u, x), lat)
        assert_orthogonal(sol, lat)

    def test_fgn_covariance_consistency_of_z(self, lat):
        # terminal = xi_1 with zero driver: Z_0 must equal b(1,0) exactly,
        # tying the backward solution to the whitening coefficients
        sigma = fgn_covariance(0.7, 2).sigma
        basis = whiten(fgn_covariance(0.7, 2))
        assert basis.b_mat[1, 0] == pytest.approx(sigma[0][1], abs=1e-12)


def eager_residuals(driver, sol, lat):
    """R_0..R_{N-1} as a solve that keeps them builds them: M = Y_s + f + g
    E[xi_s | level s] from (Y_s, Z_s), Z_N a zero table, then Y_n and Z_n eta_j
    subtracted from each child column j of M.  Y_n and Z_n are taken from M
    here and must be the solution's bytes too."""
    q, horizon, out = lat.rule.q, driver.horizon, []

    def table(raw, s):
        raw = raw.at_level(s).values if isinstance(raw, AdaptedValue) else raw
        return np.broadcast_to(np.asarray(raw, dtype=np.float64), (q**s,))

    for n in range(horizon):
        s = n + 1
        y = sol.y[s]
        z = sol.z[s] if s < horizon else lat.from_values(s, np.zeros(q**s))
        m = y.values + table(driver.f(s, y, z), s)
        raw_g = driver.g(s, y, z)
        if np.any(raw_g.values if isinstance(raw_g, AdaptedValue) else raw_g):
            m += table(raw_g, s) * _mean(lat, s)
        y_n, z_n = _moments(lat, m, 2)
        assert y_n.tobytes() == sol.y[n].values.tobytes()
        assert z_n.tobytes() == sol.z[n].values.tobytes()
        columns = m.reshape(-1, q)
        for j, eta_j in enumerate(lat.rule.nodes):
            columns[:, j] -= y_n
            columns[:, j] -= z_n * eta_j
        out.append(m)
    return out


def random_affine_driver(lat, horizon, rng):
    """f = a y + b z + c and g = d y + e z + h with every coefficient drawn,
    so g != 0 at every stage including N; no z term at stage N.  f returns
    an adapted value and g a table, the two forms a driver may take."""
    coeffs = rng.uniform(-0.5, 0.5, (horizon + 1, 6))
    coeffs[horizon, [1, 4]] = 0.0

    def f(s, y, z):
        a, b, c = coeffs[s, :3]
        return a * y + b * z + c

    def g(s, y, z):
        d, e, h = coeffs[s, 3:]
        return d * y.values + e * z.values + h

    terminal = lat.from_values(horizon, rng.standard_normal(lat.level_size(horizon)))
    return DriverSpec(horizon=horizon, terminal=terminal, f=f, g=g)


class TestDerivedResidual:
    """R is derived when read, with the bytes of the solve's own M."""

    @staticmethod
    def assert_residuals_equal(driver, lat):
        sol = solve_bsde(driver, lat)
        want = eager_residuals(driver, sol, lat)
        first = [r.values.tobytes() for r in sol.r]
        assert len(sol.r) == driver.horizon
        assert first == [m.tobytes() for m in want]
        assert [sol.r[n].values.tobytes() for n in range(driver.horizon)] == first
        assert [r.level for r in sol.r] == list(range(1, driver.horizon + 1))

    @pytest.mark.parametrize("q, horizon", [(3, 5), (5, 3), (2, 8)])
    def test_random_affine_drivers(self, q, horizon):
        # a depth-N lattice: the stage-N g reads basis row N
        lat = lattice_for_hurst(0.7, depth=horizon, order=q)
        rng = np.random.default_rng([q, horizon])
        for _ in range(3):
            self.assert_residuals_equal(random_affine_driver(lat, horizon, rng), lat)

    @pytest.mark.parametrize("kind", ["sin_drift", "lq"])
    def test_adjoint_drivers(self, kind):
        q, horizon = 3, 5
        lat = lattice_for_hurst(0.7, depth=horizon, order=q)
        if kind == "sin_drift":
            model = sin_drift_model(horizon, initial_state=1.0, noise_gain=0.5)
        else:
            model = as_model(_random_lq_spec(np.random.default_rng([1, q, horizon]), horizon))
        u = random_control(lat, horizon, np.random.default_rng([2, q, horizon]), scale=0.4)
        self.assert_residuals_equal(adjoint_driver(model, u, forward(model, u, lat)), lat)

    @pytest.mark.parametrize("kind", ["sin_drift", "lq"])
    def test_adjoint_residual_outlives_the_callers_pair(self, kind):
        # the driver rereads the coefficients from the tables X*_0..X*_{N-1}
        # and u* it holds; it holds no X*_N, so the LQ one (phi_x = G x, a new
        # table) is freed with the caller's state
        q, horizon = 3, 5
        lat3 = lattice_for_hurst(0.7, depth=horizon, order=q)
        if kind == "sin_drift":
            model = sin_drift_model(horizon, initial_state=1.0, noise_gain=0.5)
        else:
            model = as_model(_random_lq_spec(np.random.default_rng([1, q, horizon]), horizon))
        u = random_control(lat3, horizon, np.random.default_rng([2, q, horizon]), scale=0.4)
        x, adj = solve_adjoint(model, u, lat3, lat3.basis)
        first = [r.values.tobytes() for r in adj.r]
        final = weakref.ref(x[horizon].values.base)
        del x, u
        gc.collect()
        assert [r.values.tobytes() for r in adj.r] == first
        if kind == "lq":
            assert final() is None

    def test_sequence_reads(self, lat):
        driver = random_affine_driver(lat, 2, np.random.default_rng(3))
        sol = solve_bsde(driver, lat)
        assert sol.r[-1].values.tobytes() == sol.r[1].values.tobytes()
        assert [r.level for r in sol.r[::-1]] == [2, 1]
        with pytest.raises(IndexError):
            sol.r[2]
        with pytest.raises(TypeError):
            sol.r[0] = sol.r[1]

    def test_drivers_called_once_per_stage_and_once_more_by_the_reports(self, tmp_path):
        horizon = 4
        lat = lattice_for_hurst(0.7, depth=horizon, order=3)
        inner = random_affine_driver(lat, horizon, np.random.default_rng(4))
        calls = {"f": [], "g": []}

        def counted(name, fn):
            def driver(s, y, z):
                calls[name].append(s)
                return fn(s, y, z)
            return driver

        driver = DriverSpec(horizon, inner.terminal, counted("f", inner.f), counted("g", inner.g))
        sol = solve_bsde(driver, lat)
        stages = list(range(horizon, 0, -1))
        assert calls == {"f": stages, "g": stages}
        residual_orthogonality(sol, lat)
        write_bsde_csv(str(tmp_path / "solution.csv"), sol)
        again = list(range(1, horizon + 1))
        assert calls == {"f": stages + again, "g": stages + again}
