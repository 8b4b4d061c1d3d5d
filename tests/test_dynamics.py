"""Forward dynamics, cost, first variation, perturbations.

Expected values come from hand expansions of the recursions (one or two
stages with explicit xi algebra), not from the code under test.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fgncontrol.bsde import DriverSpec, solve_bsde
from fgncontrol.dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    Unconstrained,
    _stage_value,
    _step,
    constant_control,
    cost,
    double_well_model,
    forward,
    perturb,
    random_control,
    sin_drift_model,
    variation,
)
from fgncontrol.errors import (
    DepthMismatch,
    DerivativeMismatch,
    InvalidSpec,
    LevelMismatch,
    NonFiniteValue,
    OutOfControlSet,
)
from fgncontrol import lattice
from fgncontrol.lattice import (
    AdaptedValue,
    _children,
    _is_frozen,
    expectation,
    lattice_for_hurst,
    noise_conditional_mean,
    noise_value,
)
from fgncontrol.lq import as_model
from fgncontrol.noise import fgn_covariance
from fgncontrol.selftest import _random_lq_spec


def additive_noise_model(horizon, x0, phi, phi_x, phi_xx=lambda x: 0.0, noise=1.0):
    """b = 0, sigma = noise: the state is x0 plus `noise` times the running noise sum."""
    return ModelSpec(
        horizon=horizon,
        initial_state=x0,
        b=lambda n, x, u: 0.0,
        sigma=lambda n, x, u: noise,
        l=lambda n, x, u: 0.0,
        phi=phi,
        b_x=lambda n, x, u: 0.0,
        b_u=lambda n, x, u: 0.0,
        sigma_x=lambda n, x, u: 0.0,
        sigma_u=lambda n, x, u: 0.0,
        l_x=lambda n, x, u: 0.0,
        l_u=lambda n, x, u: 0.0,
        phi_x=phi_x,
        phi_xx=phi_xx,
    )


def one_step_lq_model(a0, b0, c0, d0, q0, r0, g, x0):
    return ModelSpec(
        horizon=1,
        initial_state=x0,
        b=lambda n, x, u: a0 * x + b0 * u,
        sigma=lambda n, x, u: c0 * x + d0 * u,
        l=lambda n, x, u: 0.5 * (q0 * x**2 + r0 * u**2),
        phi=lambda x: 0.5 * g * x**2,
        b_x=lambda n, x, u: a0,
        b_u=lambda n, x, u: b0,
        sigma_x=lambda n, x, u: c0,
        sigma_u=lambda n, x, u: d0,
        l_x=lambda n, x, u: q0 * x,
        l_u=lambda n, x, u: r0 * u,
        phi_x=lambda x: g * x,
        l_xx=lambda n, x, u: q0,
        l_uu=lambda n, x, u: r0,
        phi_xx=lambda x: g,
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

    def test_wrong_derivative_rejected(self):
        with pytest.raises(DerivativeMismatch):
            dataclasses.replace(
                additive_noise_model(1, 0.0, phi=lambda x: x, phi_x=lambda x: 1.0),
                b=lambda n, x, u: x**2,
                b_x=lambda n, x, u: 1.0,  # should be 2x
            )

    def test_wrong_phi_derivative_rejected(self):
        with pytest.raises(DerivativeMismatch, match="phi_x disagrees with finite differences"):
            additive_noise_model(1, 0.0, phi=lambda x: x**2, phi_x=lambda x: x)

    @pytest.mark.parametrize("name, bad", [("b_x", np.nan), ("b", np.nan), ("b_x", np.inf)])
    def test_non_finite_derivative_or_difference_rejected(self, name, bad):
        # bad for x > 0 at every stage, in b_x or in b itself; a non-finite
        # value is named as such, before any difference is taken
        model = sin_drift_model(3)
        fn = getattr(model, name)
        changed = {name: lambda n, x, u: np.where(x > 0, bad, fn(n, x, u))}
        if name == "b":
            error, message = InvalidSpec, "^b is not finite at a spot point of stage 0$"
        else:
            error, message = DerivativeMismatch, "b_x disagrees with finite differences at stage 0"
        with pytest.raises(error, match=message) as err:
            dataclasses.replace(model, **changed)
        assert err.type is error

    def test_first_failing_pair_is_reported(self):
        # wrong l_u at stage 2 and wrong sigma_x at stage 0: stages come first
        model = sin_drift_model(3)
        with pytest.raises(DerivativeMismatch, match="sigma_x disagrees with finite differences at stage 0"):
            dataclasses.replace(
                model,
                l_u=lambda n, x, u: 2.0 * model.l_u(n, x, u) if n == 2 else model.l_u(n, x, u),
                sigma_x=lambda n, x, u: 1.0 if n == 0 else model.sigma_x(n, x, u),
            )

    @pytest.mark.parametrize("make_model", [
        sin_drift_model,
        double_well_model,
        lambda horizon: as_model(_random_lq_spec(np.random.default_rng([0, 3, horizon]), horizon)),
    ], ids=["sin_drift", "double_well", "lq"])
    def test_package_model_constants_are_scalars(self, make_model):
        # a coefficient that returns equal values on two different random level
        # tables is a constant, and returns it 0-d, so that `_factor` keeps it
        # a scalar and a scalar zero drops its term
        model = make_model(3)
        rng = np.random.default_rng(6)
        stage = [f"{value}{wrt}" for value in ("b", "sigma", "l")
                 for wrt in ("", "_x", "_u", "_xx", "_uu", "_xu")]
        for n in range(3):
            x, u, x2, u2 = rng.standard_normal((4, 3**n))
            calls = [(name, getattr(model, name)(n, x, u), getattr(model, name)(n, x2, u2))
                     for name in stage]
            calls += [(name, getattr(model, name)(x), getattr(model, name)(x2))
                      for name in ("phi", "phi_x", "phi_xx")]
            for name, first, second in calls:
                if np.array_equal(first, second):
                    assert np.ndim(first) == np.ndim(second) == 0, (name, n)


class TestForward:
    def test_no_dynamics_keeps_state(self, lat):
        model = additive_noise_model(3, 1.5, phi=lambda x: x, phi_x=lambda x: 1.0, noise=0.0)
        u = constant_control(lat, 3, 0.0)
        x = forward(model, u, lat)
        for n in range(4):
            assert np.all(x[n].values == 1.5)

    def test_additive_noise_is_partial_sum(self, lat):
        model = additive_noise_model(3, 2.0, phi=lambda x: x, phi_x=lambda x: 1.0)
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

    def test_control_from_lattice_of_other_hurst_rejected(self):
        # same q and depth, so the tables fit, but the noise is another one
        other = lattice_for_hurst(0.3, depth=3, order=3)
        u = random_control(other, 3, np.random.default_rng(2))
        with pytest.raises(LevelMismatch):
            forward(sin_drift_model(3), u, lattice_for_hurst(0.7, depth=3, order=3))

    def test_control_of_other_order_rejected(self, lat):
        u = random_control(lattice_for_hurst(0.7, depth=3, order=4), 3, np.random.default_rng(2))
        with pytest.raises(LevelMismatch):
            forward(sin_drift_model(3), u, lat)

    def test_stage_tables_are_frozen(self, lat):
        u = random_control(lat, 3, np.random.default_rng(4))
        x = forward(sin_drift_model(3), u, lat)
        assert all(_is_frozen(x[n].values) for n in range(4))

    def test_non_finite_state_raises(self, lat):
        # drift scale 1e200 with x0 = 1e200 overflows at the first step
        model = dataclasses.replace(
            additive_noise_model(2, 1e200, phi=lambda x: x, phi_x=lambda x: 1.0, noise=0.0),
            b=lambda n, x, u: x * 1e200,
            b_x=lambda n, x, u: 1e200,
        )
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
            forward(model, constant_control(lat, 2, 0.0), lat)


class TestCost:
    def test_identity_terminal_cost(self, lat):
        model = additive_noise_model(2, 3.25, phi=lambda x: x, phi_x=lambda x: 1.0)
        u = constant_control(lat, 2, 0.0)
        x = forward(model, u, lat)
        # E[X_2] = x0 since every xi has mean zero
        assert cost(model, u, x, lat) == pytest.approx(3.25, abs=1e-13)

    def test_quadratic_terminal_cost_two_stages(self, lat):
        x0 = 1.1
        model = additive_noise_model(
            2, x0, phi=lambda x: x**2, phi_x=lambda x: 2 * x, phi_xx=lambda x: 2.0
        )
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

    def test_state_of_another_horizon_rejected(self, lat):
        # it indexed past the state's last stage (IndexError)
        model = sin_drift_model(3)
        u = constant_control(lat, 3, 0.2)
        short = forward(sin_drift_model(2), constant_control(lat, 2, 0.2), lat)
        with pytest.raises(DepthMismatch, match="state has 2 stages"):
            cost(model, u, short, lat)

    def test_pair_from_another_order_rejected(self, lat):
        # its tables do not fit the order-3 weights (numpy's broadcast error)
        other = lattice_for_hurst(0.7, depth=3, order=5)
        model = sin_drift_model(3)
        u = constant_control(other, 3, 0.2)
        with pytest.raises(LevelMismatch, match="different lattice"):
            cost(model, u, forward(model, u, other), lat)

    def test_pair_from_another_hurst_rejected(self, lat):
        # same q and depth, so the tables fit and it returned a number
        other = lattice_for_hurst(0.3, depth=3, order=3)
        model = sin_drift_model(3)
        u = random_control(other, 3, np.random.default_rng(5))
        with pytest.raises(LevelMismatch, match="different lattice"):
            cost(model, u, forward(model, u, other), lat)


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


class TestChildTablesAcrossNodeBlocks:
    """Child tables built block by block against the broadcast formulas.

    At (3, 11) level 10 has 59 049 nodes: several node blocks of the
    child-table kernel, the last one ragged, and more of them with a row
    axis.
    """

    Q, DEPTH = 3, 11

    @pytest.fixture(scope="class")
    def big(self):
        return lattice_for_hurst(0.7, depth=self.DEPTH, order=self.Q)

    def _noise(self, lat, n):
        """xi_n as (q^n, q) child blocks, broadcast from its conditional mean."""
        mean = noise_conditional_mean(lat, n).values
        return mean[:, None] + lat.basis.b_mat[n, n] * lat.rule.nodes

    @pytest.mark.parametrize("rows", [(), (2,)], ids=["one_table", "row_axis"])
    def test_step_equals_the_broadcast_lift(self, big, rows):
        # one table through the model's state step; with a row axis through
        # `_children` itself, which keeps the axis for the LQ certificates
        n = self.DEPTH - 1
        model = sin_drift_model(self.DEPTH, noise_gain=0.6)
        rng = np.random.default_rng(11)
        xn = rng.standard_normal((*rows, big.level_size(n)))
        un = rng.standard_normal((*rows, big.level_size(n)))
        drift, vol = model.b(n, xn, un), model.sigma(n, xn, un)
        want = vol[..., None] * self._noise(big, n)
        want += (xn + drift)[..., None]
        if rows:
            got = _children(big, n, xn + drift, vol, "state").reshape(*rows, -1)
        else:
            got = _step(model, big, n, xn, un)
        assert got.shape == (*rows, big.level_size(n + 1))
        assert got.tobytes() == want.tobytes()

    def test_variation_equals_the_broadcast_lift(self, big):
        model = sin_drift_model(self.DEPTH, initial_state=0.8, noise_gain=0.6)
        rng = np.random.default_rng(12)
        u, v = random_control(big, self.DEPTH, rng, scale=0.7), random_control(big, self.DEPTH, rng)
        x = forward(model, u, big)
        var = variation(model, u, x, v, big)
        want = np.zeros(1)
        for n in range(self.DEPTH):
            xn, un, vn = x[n].values, u[n].values, v[n].values
            level = want + model.b_x(n, xn, un) * want + model.b_u(n, xn, un) * vn
            vol = model.sigma_x(n, xn, un) * want + model.sigma_u(n, xn, un) * vn
            want = (vol[:, None] * self._noise(big, n) + level[:, None]).reshape(-1)
            assert var[n + 1].values.tobytes() == want.tobytes()

    def test_bsde_residual_equals_the_broadcast_form(self, big):
        # with f = g = 0 the projection M of stage n is Y_{n+1}
        terminal = big.from_values(self.DEPTH, np.cos(np.arange(big.level_size(self.DEPTH))))
        driver = DriverSpec(self.DEPTH, terminal, f=lambda s, y, z: 0.0, g=lambda s, y, z: 0.0)
        sol = solve_bsde(driver, big)
        for n in range(self.DEPTH):
            y_n, z_n = sol.y[n].values, sol.z[n].values
            want = sol.y[n + 1].values.reshape(-1, self.Q) - y_n[:, None]
            want -= z_n[:, None] * big.rule.nodes
            assert sol.r[n].values.tobytes() == want.tobytes()

    def test_forward_rises_under_one_leaf_table_above_its_states(self, big):
        model = sin_drift_model(self.DEPTH, noise_gain=0.5)
        u = random_control(big, self.DEPTH, np.random.default_rng(13))
        forward(model, u, big)  # builds the lattice's cached noise means
        tracemalloc.start()
        try:
            x = forward(model, u, big)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(x) == self.DEPTH + 1
        assert peak - kept <= 1.1 * 8 * big.level_size(self.DEPTH)

    @pytest.mark.parametrize("rows", [(), (2,)], ids=["one_table", "row_axis"])
    def test_scalar_scale_writes_the_bytes_of_its_full_table(self, big, rows):
        # a scalar scale is broadcast, a table of the base's shape is read as it is
        n = self.DEPTH - 1
        base = np.random.default_rng(14).standard_normal((*rows, big.level_size(n)))
        scalar = _children(big, n, base, 0.37, "state")
        full = _children(big, n, base, np.full(base.shape, 0.37), "state")
        assert scalar.tobytes() == full.tobytes()


class TestStageValue:
    """`_stage_value` shares a contiguous float64 level table and broadcasts or
    copies anything else; every path returns a read-only table, checked finite."""

    N = 2

    def test_level_table_is_shared_read_only(self, lat):
        raw = np.random.default_rng(15).standard_normal(lat.level_size(self.N))
        out = _stage_value(lat, self.N, raw)
        assert np.shares_memory(out, raw) and out.tobytes() == raw.tobytes()
        assert not out.flags.writeable and raw.flags.writeable

    @pytest.mark.parametrize("raw", [2.5, np.float64(2.5), np.array([2.5])],
                             ids=["scalar", "numpy_scalar", "size_one"])
    def test_scalar_or_size_one_is_broadcast(self, lat, raw):
        out = _stage_value(lat, self.N, raw)
        assert out.shape == (lat.level_size(self.N),) and np.all(out == 2.5)
        assert out.flags.c_contiguous and not out.flags.writeable

    def test_non_contiguous_table_is_copied(self, lat):
        wide = np.random.default_rng(16).standard_normal(2 * lat.level_size(self.N))
        out = _stage_value(lat, self.N, wide[::2])
        assert not np.shares_memory(out, wide) and out.tobytes() == wide[::2].tobytes()
        assert out.flags.c_contiguous and not out.flags.writeable

    @pytest.mark.parametrize("path", ["scalar", "size_one", "table", "strided"])
    def test_nan_raises_one_message_on_every_path(self, lat, path):
        table = np.ones(2 * lat.level_size(self.N))
        table[4] = np.nan
        raw = {"scalar": np.nan, "size_one": np.array([np.nan]),
               "table": table[:lat.level_size(self.N)], "strided": table[::2]}[path]
        message = f"^coefficient produced non-finite values at level {self.N}$"
        with pytest.raises(NonFiniteValue, match=message):
            _stage_value(lat, self.N, raw)


class TestVariation:
    def test_zero_direction_gives_zero(self, lat):
        model = sin_drift_model(3)
        u = constant_control(lat, 3, 0.2)
        x = forward(model, u, lat)
        v = constant_control(lat, 3, 0.0)
        var = variation(model, u, x, v, lat)
        for n in range(4):
            assert np.all(var[n].values == 0.0)

    def test_direction_from_lattice_of_other_hurst_rejected(self, lat):
        # same q and depth, so the tables fit, but the noise is another one
        model = sin_drift_model(3)
        u = constant_control(lat, 3, 0.2)
        v = random_control(lattice_for_hurst(0.3, depth=3, order=3), 3, np.random.default_rng(5))
        with pytest.raises(LevelMismatch, match="direction"):
            variation(model, u, forward(model, u, lat), v, lat)

    @pytest.mark.parametrize("model", [
        sin_drift_model(4, initial_state=0.8, noise_gain=0.6),
        as_model(_random_lq_spec(np.random.default_rng([0, 3, 4, 0]), 4)),
    ], ids=["sin_drift", "lq"])
    def test_lifts_in_place_without_copies(self, model, monkeypatch):
        # every stage equals the broadcast lift bit for bit and is wrapped unchanged
        lat = lattice_for_hurst(0.7, depth=4, order=3)
        rng = np.random.default_rng(4)
        u, v = random_control(lat, 4, rng, scale=0.7), random_control(lat, 4, rng)
        x = forward(model, u, lat)
        copied = []
        is_frozen = lattice._is_frozen

        def spy(values):
            shared = is_frozen(values)
            copied.extend([] if shared else [np.shape(values)])
            return shared

        monkeypatch.setattr(lattice, "_is_frozen", spy)
        var = variation(model, u, x, v, lat)
        assert copied == []
        want = np.zeros(1)
        for n in range(4):
            xn, un, vn = x[n].values, u[n].values, v[n].values
            level = want + model.b_x(n, xn, un) * want + model.b_u(n, xn, un) * vn
            vol = model.sigma_x(n, xn, un) * want + model.sigma_u(n, xn, un) * vn
            noise = noise_value(lat, n).values.reshape(-1, 3)
            want = (level[:, None] + vol[:, None] * noise).reshape(-1)
            assert var[n + 1].values.tobytes() == want.tobytes()

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
