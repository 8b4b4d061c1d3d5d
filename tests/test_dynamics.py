"""Forward dynamics, cost, first variation, perturbations.

Expected values come from hand expansions of the recursions (one or two
stages with explicit xi algebra), not from the code under test.
"""

import numpy as np
import pytest

from fgncontrol.dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    Unconstrained,
    _batch_costs,
    constant_control,
    cost,
    forward,
    perturb,
    random_control,
    sin_drift_model,
    variation,
)
from fgncontrol.errors import (
    DepthMismatch,
    DerivativeMismatch,
    NonFiniteValue,
    OutOfControlSet,
    TerminalConditionViolated,
)
from fgncontrol.lattice import (
    AdaptedValue,
    expectation,
    lattice_for_hurst,
    noise_conditional_mean,
    noise_value,
)
from fgncontrol.noise import fgn_covariance


def drift_only_model(horizon, x0, drift_fn, drift_x, drift_u):
    """Pure-drift model with zero running cost and identity terminal cost."""

    def active(n):
        return 1.0 if n < horizon else 0.0

    return ModelSpec(
        horizon=horizon,
        initial_state=x0,
        b=lambda n, x, u: active(n) * drift_fn(x, u),
        sigma=lambda n, x, u: np.zeros_like(x),
        l=lambda n, x, u: np.zeros_like(x),
        phi=lambda x: x,
        b_x=lambda n, x, u: active(n) * drift_x(x, u),
        b_u=lambda n, x, u: active(n) * drift_u(x, u),
        sigma_x=lambda n, x, u: np.zeros_like(x),
        sigma_u=lambda n, x, u: np.zeros_like(x),
        l_x=lambda n, x, u: np.zeros_like(x),
        l_u=lambda n, x, u: np.zeros_like(x),
        phi_x=lambda x: np.ones_like(x),
    )


def additive_noise_model(horizon, x0, phi, phi_x):
    """b = 0, sigma = 1: the state is x0 plus the running noise sum."""

    def active(n):
        return 1.0 if n < horizon else 0.0

    return ModelSpec(
        horizon=horizon,
        initial_state=x0,
        b=lambda n, x, u: np.zeros_like(x),
        sigma=lambda n, x, u: active(n) * np.ones_like(x),
        l=lambda n, x, u: np.zeros_like(x),
        phi=phi,
        b_x=lambda n, x, u: np.zeros_like(x),
        b_u=lambda n, x, u: np.zeros_like(x),
        sigma_x=lambda n, x, u: np.zeros_like(x),
        sigma_u=lambda n, x, u: np.zeros_like(x),
        l_x=lambda n, x, u: np.zeros_like(x),
        l_u=lambda n, x, u: np.zeros_like(x),
        phi_x=phi_x,
    )


def one_step_lq_model(a0, b0, c0, d0, q0, r0, g, x0):
    def active(n):
        return 1.0 if n < 1 else 0.0

    return ModelSpec(
        horizon=1,
        initial_state=x0,
        b=lambda n, x, u: active(n) * (a0 * x + b0 * u),
        sigma=lambda n, x, u: active(n) * (c0 * x + d0 * u),
        l=lambda n, x, u: active(n) * 0.5 * (q0 * x**2 + r0 * u**2),
        phi=lambda x: 0.5 * g * x**2,
        b_x=lambda n, x, u: active(n) * a0 * np.ones_like(x),
        b_u=lambda n, x, u: active(n) * b0 * np.ones_like(u),
        sigma_x=lambda n, x, u: active(n) * c0 * np.ones_like(x),
        sigma_u=lambda n, x, u: active(n) * d0 * np.ones_like(u),
        l_x=lambda n, x, u: active(n) * q0 * x,
        l_u=lambda n, x, u: active(n) * r0 * u,
        phi_x=lambda x: g * x,
    )


@pytest.fixture(scope="module")
def lat():
    return lattice_for_hurst(0.7, depth=3, order=3)


class TestControlSets:
    def test_box_project_and_contains(self):
        box = Box(-1.0, 1.0)
        assert np.array_equal(box.project(np.array([-3.0, 0.2, 2.0])), [-1.0, 0.2, 1.0])
        assert box.contains(np.array([-1.0, 1.0]))
        assert not box.contains(np.array([1.1]))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            Box(1.0, 1.0)
        with pytest.raises(ValueError):
            Box(0.0, float("inf"))

    def test_unconstrained_contains_everything_finite(self):
        u = Unconstrained()
        assert u.contains(np.array([1e12, -1e12]))
        assert not u.contains(np.array([np.nan]))


class TestModelSpecValidation:
    def test_sin_drift_constructs(self):
        sin_drift_model(3)

    def test_nonzero_terminal_drift_rejected(self):
        with pytest.raises(TerminalConditionViolated):
            ModelSpec(
                horizon=1,
                initial_state=0.0,
                b=lambda n, x, u: x,  # does not vanish at n = 1
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

    def test_wrong_derivative_rejected(self):
        def active(n):
            return 1.0 if n < 1 else 0.0

        with pytest.raises(DerivativeMismatch):
            ModelSpec(
                horizon=1,
                initial_state=0.0,
                b=lambda n, x, u: active(n) * x**2,
                sigma=lambda n, x, u: np.zeros_like(x),
                l=lambda n, x, u: np.zeros_like(x),
                phi=lambda x: x,
                b_x=lambda n, x, u: active(n) * np.ones_like(x),  # should be 2x
                b_u=lambda n, x, u: np.zeros_like(u),
                sigma_x=lambda n, x, u: np.zeros_like(x),
                sigma_u=lambda n, x, u: np.zeros_like(u),
                l_x=lambda n, x, u: np.zeros_like(x),
                l_u=lambda n, x, u: np.zeros_like(u),
                phi_x=lambda x: np.ones_like(x),
            )

    def test_wrong_phi_derivative_rejected(self):
        with pytest.raises(DerivativeMismatch):
            additive_noise_model(1, 0.0, phi=lambda x: x**2, phi_x=lambda x: x)


class TestForward:
    def test_no_dynamics_keeps_state(self, lat):
        model = drift_only_model(
            3, 1.5,
            drift_fn=lambda x, u: np.zeros_like(x),
            drift_x=lambda x, u: np.zeros_like(x),
            drift_u=lambda x, u: np.zeros_like(x),
        )
        u = constant_control(lat, 3, 0.0)
        x = forward(model, u, lat)
        for n in range(4):
            assert np.all(x[n].values == 1.5)

    def test_additive_noise_is_partial_sum(self, lat):
        model = additive_noise_model(3, 2.0, phi=lambda x: x, phi_x=lambda x: np.ones_like(x))
        u = constant_control(lat, 3, 0.0)
        x = forward(model, u, lat)
        acc = lat.constant(2.0, 0)
        for n in range(3):
            acc = acc + noise_value(lat, n)
            assert np.max(np.abs(x[n + 1].values - acc.values)) <= 1e-13

    def test_one_step_lq_nodewise(self, lat):
        a0, b0, c0, d0, x0, uc = 0.3, 1.2, -0.4, 0.8, 1.5, 0.7
        model = one_step_lq_model(a0, b0, c0, d0, 0.0, 1.0, 1.0, x0)
        u = constant_control(lat, 1, uc)
        x = forward(model, u, lat)
        xi0 = noise_value(lat, 0)
        expected = (1 + a0) * x0 + b0 * uc + (c0 * x0 + d0 * uc) * xi0.values
        assert np.max(np.abs(x[1].values - expected)) <= 1e-13

    def test_depth_mismatch(self):
        shallow = lattice_for_hurst(0.7, depth=2, order=3)
        model = sin_drift_model(3)
        with pytest.raises(DepthMismatch):
            forward(model, constant_control(shallow, 3, 0.0), shallow)

    def test_control_outside_box_rejected(self, lat):
        model = sin_drift_model(3, control_set=Box(-0.5, 0.5))
        with pytest.raises(OutOfControlSet):
            forward(model, constant_control(lat, 3, 0.9), lat)

    def test_non_finite_state_raises(self, lat):
        # drift scale 1e200 with x0 = 1e200 overflows at the first step
        def active(n):
            return 1.0 if n < 2 else 0.0

        model = ModelSpec(
            horizon=2,
            initial_state=1e200,
            b=lambda n, x, u: active(n) * x * 1e200,
            sigma=lambda n, x, u: np.zeros_like(x),
            l=lambda n, x, u: np.zeros_like(x),
            phi=lambda x: x,
            b_x=lambda n, x, u: active(n) * np.full_like(x, 1e200),
            b_u=lambda n, x, u: np.zeros_like(u),
            sigma_x=lambda n, x, u: np.zeros_like(x),
            sigma_u=lambda n, x, u: np.zeros_like(u),
            l_x=lambda n, x, u: np.zeros_like(x),
            l_u=lambda n, x, u: np.zeros_like(u),
            phi_x=lambda x: np.ones_like(x),
        )
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            forward(model, constant_control(lat, 2, 0.0), lat)


class TestCost:
    def test_identity_terminal_cost(self, lat):
        model = additive_noise_model(2, 3.25, phi=lambda x: x, phi_x=lambda x: np.ones_like(x))
        u = constant_control(lat, 2, 0.0)
        x = forward(model, u, lat)
        # E[X_2] = x0 since every xi has mean zero
        assert cost(model, u, x, lat) == pytest.approx(3.25, abs=1e-13)

    def test_quadratic_terminal_cost_two_stages(self, lat):
        x0 = 1.1
        model = additive_noise_model(2, x0, phi=lambda x: x**2, phi_x=lambda x: 2 * x)
        u = constant_control(lat, 2, 0.0)
        x = forward(model, u, lat)
        sigma = fgn_covariance(0.7, 3).sigma
        expected = x0**2 + sigma[0][0] + sigma[1][1] + 2 * sigma[0][1]
        assert cost(model, u, x, lat) == pytest.approx(expected, abs=1e-12)

    def test_one_step_lq_zero_control(self, lat):
        a0, c0, q0, g, x0 = 0.4, -0.3, 0.8, 1.7, 1.2
        model = one_step_lq_model(a0, 0.9, c0, 0.5, q0, 1.0, g, x0)
        u = constant_control(lat, 1, 0.0)
        x = forward(model, u, lat)
        # E X_1^2 = ((1+a0)^2 + c0^2) x0^2 using E xi = 0, E xi^2 = 1
        expected = 0.5 * (q0 * x0**2 + g * ((1 + a0) ** 2 + c0**2) * x0**2)
        assert cost(model, u, x, lat) == pytest.approx(expected, abs=1e-12)


def test_adapted_values_built_only_at_the_boundary(monkeypatch):
    # forward wraps each final stage once; cost reads tables and wraps none
    lat = lattice_for_hurst(0.7, depth=4, order=3)
    model = sin_drift_model(4)
    u = random_control(lat, 4, np.random.default_rng(3))
    noise_conditional_mean(lat, 0)  # builds the lattice's cached means
    created = []
    init = AdaptedValue.__init__

    def counted(self, *args, **kwargs):
        created.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(AdaptedValue, "__init__", counted)
    x = forward(model, u, lat)
    assert len(created) == model.horizon + 1
    cost(model, u, x, lat)
    assert len(created) == model.horizon + 1


def test_batch_costs_match_per_row_rollouts():
    # stacked rows through the nonlinear sin drift: each row is its own J
    lat = lattice_for_hurst(0.7, depth=4, order=3)
    model = sin_drift_model(4, initial_state=0.8, noise_gain=0.7)
    rng = np.random.default_rng(5)
    controls = [random_control(lat, 4, rng, scale=1.5) for _ in range(6)]
    stacked = [np.stack([u[n].values for u in controls]) for n in range(4)]
    got = _batch_costs(model, lat, stacked)
    expected = [cost(model, u, forward(model, u, lat), lat) for u in controls]
    assert got.shape == (6,)
    np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)
    with pytest.raises(DepthMismatch):
        _batch_costs(model, lat, stacked[:3])


class TestVariation:
    def test_zero_direction_gives_zero(self, lat):
        model = sin_drift_model(3)
        u = constant_control(lat, 3, 0.2)
        x = forward(model, u, lat)
        v = constant_control(lat, 3, 0.0)
        var = variation(model, u, x, v, lat)
        for n in range(4):
            assert np.all(var[n].values == 0.0)

    def _normalized_error(self, model, u, x, v, lat, eps):
        """sum_n E[((X^eps_n - X_n)/eps - V_n)^2]."""
        var = variation(model, u, x, v, lat)
        u_eps = perturb(u, v, eps)
        x_eps = forward(model, u_eps, lat)
        total = 0.0
        for n in range(model.horizon + 1):
            diff = (x_eps[n] - x[n]) / eps - var[n]
            total += expectation(diff * diff)
        return total

    def test_linear_model_is_exact(self, lat):
        model = one_step_lq_model(0.3, 1.1, -0.2, 0.6, 0.5, 1.0, 1.0, 1.4)
        rng = np.random.default_rng(3)
        u = random_control(lat, 1, rng)
        x = forward(model, u, lat)
        v = random_control(lat, 1, rng)
        assert self._normalized_error(model, u, x, v, lat, 1e-2) <= 1e-20

    def test_quadratic_rate_on_smooth_model(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        rng = np.random.default_rng(5)
        u = random_control(lat, 3, rng, scale=0.3)
        x = forward(model, u, lat)
        v = random_control(lat, 3, rng)
        errors = {
            eps: self._normalized_error(model, u, x, v, lat, eps)
            for eps in (1e-1, 5e-2, 1e-2, 5e-3, 1e-3, 5e-4)
        }
        assert errors[1e-1] > errors[1e-2] > errors[1e-3]
        for eps in (1e-2, 1e-3):
            ratio = errors[eps / 2] / errors[eps]
            assert 0.15 <= ratio <= 0.35, f"eps={eps}, ratio={ratio}"

    def test_state_difference_shrinks_quadratically(self, lat):
        # E|X^eps - X|^2 scales like eps^2: halving eps quarters it
        model = sin_drift_model(3, initial_state=1.0)
        rng = np.random.default_rng(9)
        u = random_control(lat, 3, rng, scale=0.3)
        x = forward(model, u, lat)
        v = random_control(lat, 3, rng)

        def gap(eps):
            x_eps = forward(model, perturb(u, v, eps), lat)
            return sum(
                expectation((x_eps[n] - x[n]) * (x_eps[n] - x[n]))
                for n in range(4)
            )

        for eps in (1e-2, 1e-3):
            ratio = gap(eps) / gap(eps / 2)
            assert 3.5 <= ratio <= 4.5, f"eps={eps}, ratio={ratio}"


class TestPerturb:
    def test_zero_eps_returns_same_values(self, lat):
        u = constant_control(lat, 2, 0.4)
        v = constant_control(lat, 2, 1.0)
        out = perturb(u, v, 0.0)
        for n in range(2):
            assert np.array_equal(out[n].values, u[n].values)

    def test_full_eps_adds_direction(self, lat):
        u = constant_control(lat, 2, 0.4)
        v = constant_control(lat, 2, -0.15)
        out = perturb(u, v, 1.0)
        for n in range(2):
            assert np.allclose(out[n].values, 0.25, atol=1e-15)

    def test_eps_out_of_range(self, lat):
        u = constant_control(lat, 2, 0.0)
        with pytest.raises(ValueError):
            perturb(u, u, 1.5)
        with pytest.raises(ValueError):
            perturb(u, u, -0.1)

    def test_box_violation_detected(self, lat):
        u = constant_control(lat, 2, 0.9)
        v = constant_control(lat, 2, 0.5)
        with pytest.raises(OutOfControlSet):
            perturb(u, v, 1.0, control_set=Box(-1.0, 1.0))
        # staying inside is fine
        perturb(u, v, 0.1, control_set=Box(-1.0, 1.0))


class TestProcessContainers:
    def test_control_levels_enforced(self, lat):
        with pytest.raises(ValueError):
            ControlProcess([lat.constant(0.0, 1), lat.constant(0.0, 1)])

    def test_random_control_is_adapted_and_seeded(self, lat):
        rng = np.random.default_rng(21)
        u = random_control(lat, 3, rng)
        assert [u[n].level for n in range(3)] == [0, 1, 2]
        rng2 = np.random.default_rng(21)
        u2 = random_control(lat, 3, rng2)
        for n in range(3):
            assert np.array_equal(u[n].values, u2[n].values)

    def test_random_control_respects_box(self, lat):
        rng = np.random.default_rng(23)
        box = Box(-0.25, 0.25)
        u = random_control(lat, 3, rng, scale=5.0, control_set=box)
        u.validate_in(box)
