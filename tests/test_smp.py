"""Directional derivatives, stationarity residual, DDP optimizer.

The duality check is the load-bearing test: the variation route and the
adjoint route to dJ/deps are computed independently and must coincide to
1e-9 on nonlinear models and both Hurst regimes.
"""

import dataclasses

import numpy as np
import pytest

from fgncontrol.dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    Unconstrained,
    constant_control,
    cost,
    forward,
    random_control,
    sin_drift_model,
    variation,
)
from fgncontrol import dynamics, lattice, smp
from fgncontrol.errors import DualityMismatch, LevelMismatch, NoDescent, NonFiniteValue
from fgncontrol.lattice import (
    expectation,
    lattice_for_hurst,
    noise_conditional_mean,
    noise_value,
    white_value,
)
from fgncontrol.lq import LqSpec, as_model
from fgncontrol.smp import (
    ArmijoRule,
    SmpResidual,
    check_stationarity,
    directional_derivative,
    optimize,
    smp_residual,
    solve_adjoint,
)


def shift(u: ControlProcess, v: ControlProcess, t: float) -> ControlProcess:
    return ControlProcess(u[n] + t * v[n] for n in range(u.horizon))


def double_well_model(horizon: int, initial_state: float, noise_gain: float = 1.0) -> ModelSpec:
    """Sin drift dynamics with the double-well terminal cost (x^2 - 1)^2 / 4."""
    c = noise_gain

    def active(n):
        return 1.0 if n < horizon else 0.0

    return ModelSpec(
        horizon=horizon,
        initial_state=initial_state,
        b=lambda n, x, u: active(n) * (np.sin(x) + u),
        sigma=lambda n, x, u: active(n) * c * u,
        l=lambda n, x, u: active(n) * 0.5 * u**2,
        phi=lambda x: 0.25 * (x**2 - 1.0) ** 2,
        b_x=lambda n, x, u: active(n) * np.cos(x),
        b_u=lambda n, x, u: active(n) * np.ones_like(u),
        sigma_x=lambda n, x, u: np.zeros_like(x),
        sigma_u=lambda n, x, u: active(n) * c * np.ones_like(u),
        l_x=lambda n, x, u: np.zeros_like(x),
        l_u=lambda n, x, u: active(n) * u,
        phi_x=lambda x: x**3 - x,
    )


@pytest.fixture(scope="module")
def lat():
    return lattice_for_hurst(0.7, depth=3, order=3)


@pytest.fixture(scope="module")
def lq3():
    return LqSpec(
        horizon=3,
        A=[0.3, -0.2, 0.4],
        B=[1.0, 0.8, 1.2],
        C=[0.2, 0.3, -0.1],
        D=[0.5, 0.4, 0.6],
        Q=[0.6, 0.4, 0.8],
        R=[1.0, 1.2, 0.9],
        G=1.1,
        x=1.3,
    )


class TestDirectionalDerivative:
    def test_zero_direction(self, lat, lq3):
        model = as_model(lq3)
        rng = np.random.default_rng(1)
        u = random_control(lat, 3, rng)
        v = constant_control(lat, 3, 0.0)
        assert directional_derivative(model, u, v, lat, lat.basis) == 0.0

    def test_matches_central_difference_lq(self, lat, lq3):
        model = as_model(lq3)
        rng = np.random.default_rng(2)
        eps = 1e-4
        for _ in range(5):
            u = random_control(lat, 3, rng)
            v = random_control(lat, 3, rng)
            dd = directional_derivative(model, u, v, lat, lat.basis)
            j_plus = cost(model, shift(u, v, eps), forward(model, shift(u, v, eps), lat), lat)
            j_minus = cost(model, shift(u, v, -eps), forward(model, shift(u, v, -eps), lat), lat)
            fd = (j_plus - j_minus) / (2 * eps)
            assert abs(dd - fd) <= 1e-7

    def test_matches_central_difference_sin_drift(self, lat):
        model = sin_drift_model(3, initial_state=0.9)
        rng = np.random.default_rng(3)
        eps = 1e-4
        for _ in range(5):
            u = random_control(lat, 3, rng, scale=0.4)
            v = random_control(lat, 3, rng)
            dd = directional_derivative(model, u, v, lat, lat.basis)
            j_plus = cost(model, shift(u, v, eps), forward(model, shift(u, v, eps), lat), lat)
            j_minus = cost(model, shift(u, v, -eps), forward(model, shift(u, v, -eps), lat), lat)
            fd = (j_plus - j_minus) / (2 * eps)
            assert abs(dd - fd) <= 1e-5

    @pytest.mark.parametrize("h", [0.3, 0.7])
    def test_duality_both_routes_explicit(self, h):
        # recompute both sides of the derivative identity from scratch
        lattice = lattice_for_hurst(h, depth=3, order=3)
        basis = lattice.basis
        model = sin_drift_model(3, initial_state=1.1)
        rng = np.random.default_rng(4)
        for _ in range(5):
            u = random_control(lattice, 3, rng, scale=0.5)
            v = random_control(lattice, 3, rng)
            x = forward(model, u, lattice)
            _, adj = solve_adjoint(model, u, lattice, basis)
            var = variation(model, u, x, v, lattice)
            primal = 0.0
            for n in range(3):
                lx = lattice.from_values(n, np.zeros(lattice.level_size(n)))
                lu = lattice.from_values(n, u[n].values)  # l_u = u for this model
                primal += expectation(lx * var[n] + lu * v[n])
            primal += expectation(lattice.from_values(3, x[3].values) * var[3])

            dual = 0.0
            for n in range(3):
                xi, eta = noise_value(lattice, n), white_value(lattice, n)
                p_n, q_n = adj.y[n], adj.z[n]
                # b_u = 1, sigma_u = noise_gain, l_u = u
                su = 0.5
                integrand = p_n + su * p_n * xi + su * q_n * eta * xi + u[n]
                dual += expectation(integrand * v[n])
            assert abs(primal - dual) <= 1e-9
            # and the library's own computation agrees with the primal form
            dd = directional_derivative(model, u, v, lattice, basis)
            assert abs(dd - primal) <= 1e-12


class TestSmpResidual:
    def test_term_dropout_form(self, lat):
        # sigma_u = 0, b_u = 1, l_u = u gives rho = p + u
        spec = LqSpec(
            horizon=3,
            A=[0.2, 0.1, -0.3],
            B=[1.0, 1.0, 1.0],
            C=[0.4, -0.2, 0.3],
            D=[0.0, 0.0, 0.0],
            Q=[0.5, 0.5, 0.5],
            R=[1.0, 1.0, 1.0],
            G=0.8,
            x=1.0,
        )
        model = as_model(spec)
        rng = np.random.default_rng(5)
        u = random_control(lat, 3, rng)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        res = smp_residual(model, u, adj, lat, lat.basis)
        for n in range(3):
            expected = adj.y[n].values + u[n].values
            assert np.max(np.abs(res[n].values - expected)) <= 1e-12

    def test_white_noise_reduction(self, lq3):
        # h = 0.5: rho = b_u p + sigma_u q + l_u since c = 0, b(n,n) = 1
        lat5 = lattice_for_hurst(0.5, depth=3, order=3)
        model = as_model(lq3)
        rng = np.random.default_rng(6)
        u = random_control(lat5, 3, rng)
        _, adj = solve_adjoint(model, u, lat5, lat5.basis)
        res = smp_residual(model, u, adj, lat5, lat5.basis)
        for n in range(3):
            expected = (
                lq3.B[n] * adj.y[n].values
                + lq3.D[n] * adj.z[n].values
                + lq3.R[n] * u[n].values
            )
            assert np.max(np.abs(res[n].values - expected)) <= 1e-12

    def test_stagewise_moment_reductions(self, lat):
        # E[q eta xi] = E[b(n,n) q] and E[p xi] = E[p sum_k c(n,k) xi_k]
        model = sin_drift_model(3, initial_state=1.0)
        rng = np.random.default_rng(7)
        u = random_control(lat, 3, rng, scale=0.4)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        b_diag = np.diag(lat.basis.b_mat)
        for n in range(3):
            xi, eta = noise_value(lat, n), white_value(lat, n)
            p_n, q_n = adj.y[n], adj.z[n]
            lhs_q = expectation(q_n * eta * xi)
            rhs_q = expectation(q_n * b_diag[n])
            assert abs(lhs_q - rhs_q) <= 1e-10
            lhs_p = expectation(p_n * xi)
            rhs_p = expectation(p_n * noise_conditional_mean(lat, n))
            assert abs(lhs_p - rhs_p) <= 1e-10


    def test_rolls_the_state_only_to_the_last_stage_it_reads(self, lat, monkeypatch):
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        steps = []
        step = dynamics._step

        def counted(*args):
            steps.append(args[2])
            return step(*args)

        monkeypatch.setattr(dynamics, "_step", counted)
        smp_residual(model, u, adj, lat, lat.basis)
        assert steps == [0, 1]

    def test_adjoint_path_wraps_its_tables_without_copies(self, monkeypatch):
        # every table the solvers wrap is frozen first, so AdaptedValue
        # shares it; on a fresh lattice that includes the cached noise means
        lat = lattice_for_hurst(0.7, depth=3, order=3)
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        copied = []
        is_frozen = lattice._is_frozen

        def spy(values):
            shared = is_frozen(values)
            copied.extend([] if shared else [np.shape(values)])
            return shared

        monkeypatch.setattr(lattice, "_is_frozen", spy)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        smp_residual(model, u, adj, lat, lat.basis)
        assert copied == []

    def test_control_from_another_lattice_rejected(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        other = lattice_for_hurst(0.3, depth=3, order=3)
        moved = ControlProcess(other.from_values(n, u[n].values) for n in range(3))
        with pytest.raises(LevelMismatch):
            smp_residual(model, moved, adj, lat, lat.basis)
        with pytest.raises(LevelMismatch):
            solve_adjoint(model, moved, lat, lat.basis)


class TestCheckStationarity:
    def test_zero_residual_passes(self, lat):
        res = SmpResidual(tuple(lat.constant(0.0, n) for n in range(2)))
        u = constant_control(lat, 2, 0.0)
        report = check_stationarity(res, u, Box(-1.0, 1.0), tol=1e-8)
        assert report.passed and report.worst_violation == 0.0

    def test_lower_bound_positive_residual_passes(self, lat):
        res = SmpResidual(tuple(lat.constant(0.3, n) for n in range(2)))
        u = constant_control(lat, 2, -1.0)
        report = check_stationarity(res, u, Box(-1.0, 1.0), tol=1e-8)
        assert report.passed

    def test_lower_bound_negative_residual_fails(self, lat):
        res = SmpResidual(tuple(lat.constant(-0.3, n) for n in range(2)))
        u = constant_control(lat, 2, -1.0)
        report = check_stationarity(res, u, Box(-1.0, 1.0), tol=1e-8)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.3, abs=1e-15)

    def test_interior_uses_absolute_value(self, lat):
        res = SmpResidual(tuple(lat.constant(-0.2, n) for n in range(2)))
        u = constant_control(lat, 2, 0.0)
        report = check_stationarity(res, u, Box(-1.0, 1.0), tol=1e-8)
        assert not report.passed
        assert report.worst_violation == pytest.approx(0.2, abs=1e-15)
        assert check_stationarity(res, u, Unconstrained(), tol=0.25).passed

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12])
    def test_invalid_tol_rejected(self, lat, tol):
        res = SmpResidual(tuple(lat.constant(0.0, n) for n in range(2)))
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_stationarity(res, constant_control(lat, 2, 0.0), Unconstrained(), tol=tol)


class TestOptimize:
    def test_already_stationary_returns_immediately(self, lat):
        # B = D = 0: control only enters through R u^2, so u = 0 is optimal
        spec = LqSpec(
            horizon=2,
            A=[0.3, 0.1],
            B=[0.0, 0.0],
            C=[0.2, 0.4],
            D=[0.0, 0.0],
            Q=[0.5, 0.5],
            R=[1.0, 1.0],
            G=1.0,
            x=1.0,
        )
        model = as_model(spec)
        result = optimize(model, constant_control(lat, 2, 0.0), lat, lat.basis, tol=1e-8)
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.control[0].values == 0.0)

    def test_sin_drift_descends_to_stationarity(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u0 = constant_control(lat, 3, 0.0)
        j0 = cost(model, u0, forward(model, u0, lat), lat)
        result = optimize(model, u0, lat, lat.basis, tol=1e-6, max_iter=1500)
        assert result.converged
        assert result.cost < j0
        # J non-increasing along the trace
        costs = [pt.cost for pt in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    def test_stationary_point_passes_necessity(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u0 = constant_control(lat, 3, 0.0)
        result = optimize(model, u0, lat, lat.basis, tol=1e-8, max_iter=2000)
        assert result.converged
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_control(lat, 3, rng)
            dd = directional_derivative(model, result.control, v, lat, lat.basis)
            assert dd >= -1e-7

    @pytest.mark.parametrize("depth", [3, 5])
    def test_box_constrained_descent(self, depth):
        lat = lattice_for_hurst(0.7, depth=depth, order=3)
        box = Box(-0.15, 0.15)
        model = sin_drift_model(depth, initial_state=1.0, control_set=box)
        u0 = constant_control(lat, depth, 0.0)
        result = optimize(model, u0, lat, lat.basis, tol=1e-8, max_iter=2000)
        assert result.converged
        # one Newton step with clamped nodes lands on the box optimum; a
        # clamped node keeping its feedback gain, or curvature damped at
        # every node on account of one, needs several more
        assert result.iterations <= 2
        for n in range(depth):
            assert box.contains(result.control[n].values)
        # directions pointing inward from the iterate never improve J
        rng = np.random.default_rng(9)
        for _ in range(20):
            target = random_control(lat, depth, rng, scale=5.0, control_set=box)
            v = ControlProcess(target[n] - result.control[n] for n in range(depth))
            dd = directional_derivative(model, result.control, v, lat, lat.basis)
            assert dd >= -1e-7

    @pytest.mark.parametrize("horizon, max_iterations", [(3, 10), (4, 30), (6, 30), (7, 30)])
    def test_sin_drift_newton_steps_reach_tolerance(self, horizon, max_iterations):
        # E[cost] cannot resolve a residual at a node of probability ~3^-N:
        # first-order descent stalled at N = 4, 6, 7 and took 702 steps at N = 3;
        # at N = 3 some nodes have Q_uu <= 0, and damping every node on
        # their account took 23 Newton iterations
        lat = lattice_for_hurst(0.7, depth=horizon, order=3)
        model = sin_drift_model(horizon, initial_state=1.0)
        u0 = constant_control(lat, horizon, 0.0)
        result = optimize(model, u0, lat, lat.basis, tol=1e-8)
        assert result.converged
        assert result.iterations <= max_iterations
        _, adj = solve_adjoint(model, result.control, lat, lat.basis)
        res = smp_residual(model, result.control, adj, lat, lat.basis)
        assert check_stationarity(res, result.control, model.control_set, tol=1e-8).passed

    def test_sin_drift_depth4_reference_cost(self):
        lat = lattice_for_hurst(0.7, depth=4, order=3)
        model = sin_drift_model(4, initial_state=1.0)
        result = optimize(model, constant_control(lat, 4, 0.0), lat, lat.basis, tol=1e-8)
        assert result.converged
        # the cost first-order descent stalled at, 4e-7 from stationary
        assert result.cost == pytest.approx(2.739681754239858, rel=1e-10)

    @pytest.mark.parametrize("initial_state", [0.3, 0.05])
    def test_double_well_reaches_stationarity(self, initial_state):
        # non-convex terminal cost (x^2 - 1)^2 / 4: from x0 = 0.05 many node
        # visits have Q_uu <= 0 and take the curvature floor
        lat = lattice_for_hurst(0.7, depth=6, order=3)
        model = double_well_model(6, initial_state)
        u0 = constant_control(lat, 6, 0.0)
        j0 = cost(model, u0, forward(model, u0, lat), lat)
        result = optimize(model, u0, lat, lat.basis, tol=1e-8, max_iter=100)
        assert result.converged
        assert result.cost < j0
        _, adj = solve_adjoint(model, result.control, lat, lat.basis)
        res = smp_residual(model, result.control, adj, lat, lat.basis)
        assert check_stationarity(res, result.control, model.control_set, tol=1e-8).passed

    @pytest.mark.parametrize("horizon", [10, 11])
    def test_double_well_converges_at_depth(self, horizon):
        # a decrease carried by nodes of probability ~1e-7 sits below the
        # rounding of J; the nodewise decrease still resolves it
        lat = lattice_for_hurst(0.7, depth=horizon, order=3)
        model = double_well_model(horizon, 0.3)
        u0 = constant_control(lat, horizon, 0.0)
        result = optimize(model, u0, lat, lat.basis, tol=1e-8, max_iter=30)
        assert result.converged
        assert result.iterations <= 10
        _, adj = solve_adjoint(model, result.control, lat, lat.basis)
        res = smp_residual(model, result.control, adj, lat, lat.basis)
        assert check_stationarity(res, result.control, model.control_set, tol=1e-8).passed

    @pytest.mark.parametrize("horizon, tol", [(3, 1e-13), (6, 1e-12)])
    def test_tolerance_below_the_armijo_resolution_is_reached(self, horizon, tol):
        # near u* the decrease of a Newton step is far below the rounding
        # of the node costs; the step is taken, not backtracked to NoDescent
        lat = lattice_for_hurst(0.7, depth=horizon, order=3)
        model = sin_drift_model(horizon, initial_state=1.0)
        result = optimize(model, constant_control(lat, horizon, 0.0), lat, lat.basis, tol=tol)
        assert result.converged
        assert result.trace[-1].worst_residual <= tol

    @pytest.mark.parametrize("tol, max_iter", [(1e-8, 1000), (1e-12, 1)])
    def test_one_adjoint_solve_per_call(self, lat, monkeypatch, tol, max_iter):
        # rho comes from the backward pass; the BSDE route certifies it once,
        # and every trial is rolled out by _rollout alone
        calls = {}

        def count(module, name):
            real = getattr(module, name)

            def counted(*args, **kwargs):
                key = f"{module.__name__}.{name}"
                calls[key] = calls.get(key, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        for name in ("solve_bsde", "adjoint_driver", "_gradient", "forward", "_rollout"):
            count(smp, name)
        count(dynamics, "forward")
        model = sin_drift_model(3, initial_state=1.0)
        result = optimize(model, constant_control(lat, 3, 0.0), lat, lat.basis,
                          tol=tol, max_iter=max_iter)
        assert result.converged == (max_iter > 1)
        for name in ("solve_bsde", "adjoint_driver", "_gradient"):
            assert calls[f"fgncontrol.smp.{name}"] == 1
        assert "fgncontrol.smp.forward" not in calls
        assert "fgncontrol.dynamics.forward" not in calls
        assert calls["fgncontrol.smp._rollout"] >= result.iterations >= 1

    def test_adjoint_route_decides_convergence(self, lat, monkeypatch):
        # a backward pass whose rho passes at 1e-11 once the true rho is
        # below 1e-9 (inside DUALITY_TOL of it): the adjoint route still
        # fails there, so the iterations go on
        backward_pass = smp._backward_pass
        faked = []

        def optimistic(*args):
            gains, rho = backward_pass(*args)
            if max(np.max(np.abs(r)) for r in rho) < 1e-9:
                faked.append(1)
                rho = [1e-3 * r for r in rho]
            return gains, rho

        monkeypatch.setattr(smp, "_backward_pass", optimistic)
        model = sin_drift_model(3, initial_state=1.0)
        result = optimize(model, constant_control(lat, 3, 0.0), lat, lat.basis, tol=1e-11)
        early = [pt for pt in result.trace[:-1] if pt.worst_residual < 1e-9]
        assert faked and early
        assert all(pt.worst_residual > 1e-11 for pt in early)
        assert result.converged and result.trace[-1].worst_residual <= 1e-11

    def test_corrupted_backward_adjoint_fails_the_final_check(self, lat, lq3, monkeypatch):
        # the tolerance passes at u0 on either route, so the first
        # iteration reaches the final check; dropping l_x from lambda
        # moves rho there
        model = as_model(lq3)
        u0 = constant_control(lat, 3, 0.0)
        clean = optimize(model, u0, lat, lat.basis, tol=10.0)
        assert clean.converged and clean.iterations == 0
        stage_derivatives = smp._stage_derivatives

        def without_lx(*args):
            table = stage_derivatives(*args)
            table[10] = 0.0  # rows b, sigma, l, five each; l_x is row 10
            return table

        monkeypatch.setattr(smp, "_stage_derivatives", without_lx)
        with pytest.raises(DualityMismatch, match="backward pass and adjoint disagree on rho_"):
            optimize(model, u0, lat, lat.basis, tol=10.0)

    def test_non_finite_derivative_table_rejected(self, lat):
        # b_x is inf beyond |x| = 100, outside the constructor's spot checks
        base = sin_drift_model(3, initial_state=1000.0)
        model = dataclasses.replace(
            base, b_x=lambda n, x, u: np.where(np.abs(x) > 100.0, np.inf, base.b_x(n, x, u))
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteValue, match="coefficient produced non-finite"):
                optimize(model, constant_control(lat, 3, 0.0), lat, lat.basis)

    def test_no_descent_raised_when_backtracking_disabled(self, lat):
        model = sin_drift_model(2, initial_state=1.0)
        u0 = constant_control(lat, 2, 0.0)
        rule = ArmijoRule(initial_step=1e6, max_halvings=0)
        with pytest.raises(NoDescent, match="after 0 halvings at iteration 0: J="):
            optimize(model, u0, lat, lat.basis, step_rule=rule, tol=1e-10)

    def test_no_descent_message_names_the_iterate(self, lat):
        model = sin_drift_model(2, initial_state=1.0)
        rule = ArmijoRule(initial_step=1e6, max_halvings=0)
        message = (
            "no sufficient decrease after 0 halvings at iteration 0: J=3.934185596630014, "
            "worst residual 3.581e+00 at stage 1 node 2"
        )
        with pytest.raises(NoDescent) as err:
            optimize(model, constant_control(lat, 2, 0.0), lat, lat.basis,
                     step_rule=rule, tol=1e-10)
        assert str(err.value) == message

    def test_max_iter_returns_unconverged(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u0 = constant_control(lat, 3, 0.5)
        result = optimize(model, u0, lat, lat.basis, tol=1e-12, max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    def test_negative_max_iter_rejected(self, lat):
        model = sin_drift_model(2, initial_state=1.0)
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            optimize(model, constant_control(lat, 2, 0.0), lat, lat.basis, max_iter=-1)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_invalid_tol_rejected(self, lat, tol):
        model = sin_drift_model(2, initial_state=1.0)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            optimize(model, constant_control(lat, 2, 0.0), lat, lat.basis, tol=tol)
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
            optimize(model, constant_control(lat, 2, 0.0), lat, lat.basis, tol=tol, max_iter=0)
