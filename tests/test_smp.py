"""Directional derivatives, stationarity residual, DDP optimizer.

The duality check is the load-bearing test: the variation route and the
adjoint route to dJ/deps are computed independently and must coincide to
1e-9 on nonlinear models and both Hurst regimes.
"""

import dataclasses
import importlib.util
import pathlib
import sys
import tracemalloc

import numpy as np
import pytest

from fgncontrol.bsde import adjoint_driver, solve_bsde
from fgncontrol.dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    Unconstrained,
    constant_control,
    cost,
    double_well_model,
    forward,
    random_control,
    sin_drift_model,
    variation,
)
from fgncontrol import dynamics, lattice, smp
from fgncontrol.errors import (
    DepthMismatch, DualityMismatch, LevelMismatch, NoDescent, NonFiniteValue,
)
from fgncontrol.lattice import (
    AdaptedValue,
    expectation,
    lattice_for_hurst,
    noise_conditional_mean,
    noise_value,
    white_value,
)
from fgncontrol.lq import LqSpec, as_model, lq_fixed_point
from fgncontrol.selftest import _random_lq_spec
from fgncontrol.smp import (
    SmpResidual,
    check_stationarity,
    directional_derivative,
    optimize,
    smp_residual,
    solve_adjoint,
)


def _load_bench_workloads():
    """`bench/workloads.py`, loaded by path once: the benchmark's reference values."""
    if "bench_workloads" not in sys.modules:
        path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        sys.modules["bench_workloads"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # its dataclasses look themselves up there
    return sys.modules["bench_workloads"]


def shift(u: ControlProcess, v: ControlProcess, t: float) -> ControlProcess:
    return ControlProcess(u[n] + t * v[n] for n in range(u.horizon))


def coupled_model(horizon: int, control_set=None) -> ModelSpec:
    """State and control in drift, noise and running cost, with nonzero
    f_xx, f_uu and f_ux and the double-well terminal cost."""
    return dataclasses.replace(
        double_well_model(horizon, initial_state=0.4, control_set=control_set),
        b=lambda n, x, u: np.sin(x) + u * (1.0 + 0.1 * x),
        sigma=lambda n, x, u: 0.2 * x + 0.4 * u + 0.1 * np.sin(x) * u + 0.1 * u**2,
        l=lambda n, x, u: 0.5 * u**2 + 0.1 * x**2 * u,
        b_x=lambda n, x, u: np.cos(x) + 0.1 * u,
        b_u=lambda n, x, u: 1.0 + 0.1 * x,
        sigma_x=lambda n, x, u: 0.2 + 0.1 * np.cos(x) * u,
        sigma_u=lambda n, x, u: 0.4 + 0.1 * np.sin(x) + 0.2 * u,
        l_x=lambda n, x, u: 0.2 * x * u,
        l_u=lambda n, x, u: u + 0.1 * x**2,
        b_xx=lambda n, x, u: -np.sin(x),
        b_xu=lambda n, x, u: 0.1,
        sigma_xx=lambda n, x, u: -0.1 * np.sin(x) * u,
        sigma_xu=lambda n, x, u: 0.1 * np.cos(x),
        sigma_uu=lambda n, x, u: 0.2,
        l_xx=lambda n, x, u: 0.2 * u,
        l_xu=lambda n, x, u: 0.2 * x,
        l_uu=lambda n, x, u: 1.0,
    )


def quadratic_noise_model(horizon: int, initial_state: float = 1.0) -> ModelSpec:
    """Sin drift with the noise 0.5 u + 0.1 u^2, so sigma_u = 0.5 + 0.2 u is a
    table and f_uu = 0.2 xi_n."""
    return dataclasses.replace(
        sin_drift_model(horizon, initial_state),
        sigma=lambda n, x, u: 0.5 * u + 0.1 * u**2,
        sigma_u=lambda n, x, u: 0.5 + 0.2 * u,
        sigma_uu=lambda n, x, u: 0.2,
    )


def leaf_form_backward_pass(model, u, x, lat):
    """`smp._backward_pass` with xi_n, f_x and f_u built as (q^n, q) child
    tables, every stated derivative read as a full table and every product
    contracted against the weights."""
    q, w = lat.rule.q, lat.rule.weights
    n_stages = model.horizon
    leaves = np.shape(x[n_stages])
    v_x = lam = np.broadcast_to(np.asarray(model.phi_x(x[n_stages]), float), leaves)
    v_xx = np.broadcast_to(np.asarray(model.phi_xx(x[n_stages]), float), leaves)
    gains, rho = [], []
    for n in reversed(range(n_stages)):
        nodes = np.broadcast_shapes(np.shape(x[n]), np.shape(u[n]))
        table = np.stack([
            np.broadcast_to(np.asarray(getattr(model, f"{value}_{wrt}")(n, x[n], u[n]), float),
                            nodes)
            for value in ("b", "sigma", "l") for wrt in ("x", "u", "xx", "uu", "xu")
        ])
        bx, bu, bxx, buu, bux, sx, su, sxx, suu, sux = table[:10, :, None]
        lx, lu, lxx, luu, lux = table[10:]
        xi = noise_value(lat, n).values.reshape(-1, q)
        v_x, v_xx, lam = (t.reshape(-1, q) for t in (v_x, v_xx, lam))
        f_x, f_u = 1.0 + bx + sx * xi, bu + su * xi
        q_x = lx + (v_x * f_x) @ w
        q_u = lu + (v_x * f_u) @ w
        q_xx = lxx + (v_xx * f_x * f_x + v_x * (bxx + sxx * xi)) @ w
        q_uu = luu + (v_xx * f_u * f_u + v_x * (buu + suu * xi)) @ w
        q_ux = lux + (v_xx * f_u * f_x + v_x * (bux + sux * xi)) @ w
        rho.append(lu + (lam * f_u) @ w)
        lam = lx + (lam * f_x) @ w
        curvature = np.where(q_uu > 0.0, q_uu, np.maximum(-q_uu, smp._CURVATURE_FLOOR))
        newton = u[n] - q_u / curvature
        target = model.control_set.project(newton)
        k = target - u[n]
        gain = np.where(target == newton, -q_ux / curvature, 0.0)
        v_x = q_x + gain * (q_uu * k + q_u) + q_ux * k
        v_xx = q_xx + gain * (q_uu * gain + q_ux * 2.0)
        gains.append((k, gain))
    return gains[::-1], rho[::-1]


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
        assert directional_derivative(model, u, v, lat) == 0.0

    def test_matches_central_difference_lq(self, lat, lq3):
        model = as_model(lq3)
        rng = np.random.default_rng(2)
        eps = 1e-4
        for _ in range(5):
            u = random_control(lat, 3, rng)
            v = random_control(lat, 3, rng)
            dd = directional_derivative(model, u, v, lat)
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
            dd = directional_derivative(model, u, v, lat)
            j_plus = cost(model, shift(u, v, eps), forward(model, shift(u, v, eps), lat), lat)
            j_minus = cost(model, shift(u, v, -eps), forward(model, shift(u, v, -eps), lat), lat)
            fd = (j_plus - j_minus) / (2 * eps)
            assert abs(dd - fd) <= 1e-5

    def test_direction_of_other_order_rejected(self, lat):
        model = sin_drift_model(3)
        u = random_control(lat, 3, np.random.default_rng(5), scale=0.5)
        v = random_control(lattice_for_hurst(0.7, depth=3, order=4), 3, np.random.default_rng(6))
        with pytest.raises(LevelMismatch, match="direction"):
            directional_derivative(model, u, v, lat)

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
            dd = directional_derivative(model, u, v, lattice)
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


    @staticmethod
    def _count_steps(monkeypatch) -> list[int]:
        """Stages n of every `dynamics._step` call from now on."""
        steps = []
        step = dynamics._step

        def counted(*args):
            steps.append(args[2])
            return step(*args)

        monkeypatch.setattr(dynamics, "_step", counted)
        return steps

    def test_rolls_the_state_only_to_the_last_stage_it_reads(self, lat, monkeypatch):
        # an adjoint solved outside `solve_adjoint` brings no state along
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        adj = solve_bsde(adjoint_driver(model, u, forward(model, u, lat)), lat)
        steps = self._count_steps(monkeypatch)
        smp_residual(model, u, adj, lat, lat.basis)
        assert steps == [0, 1]

    def test_reads_the_state_solve_adjoint_rolled(self, lat, monkeypatch):
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        steps = self._count_steps(monkeypatch)
        got = smp_residual(model, u, adj, lat, lat.basis)
        assert steps == []
        # an equal control or model as another object rolls the state again
        rolled = smp_residual(model, ControlProcess(u), adj, lat, lat.basis)
        assert steps == [0, 1]
        smp_residual(dataclasses.replace(model), u, adj, lat, lat.basis)
        assert steps == [0, 1, 0, 1]
        for reused, again in zip(got, rolled, strict=True):
            assert reused.values.tobytes() == again.values.tobytes()

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

    def test_basis_other_than_the_lattice_whitening_rejected(self, lat):
        # an h = 0.3 basis on the h = 0.7 lattice would shift rho in silence
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        foreign = lattice_for_hurst(0.3, depth=3, order=3).basis
        with pytest.raises(LevelMismatch, match="not the whitening basis of the lattice"):
            solve_adjoint(model, u, lat, foreign)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        with pytest.raises(LevelMismatch, match="not the whitening basis of the lattice"):
            smp_residual(model, u, adj, lat, foreign)
        # an equal basis built separately is the same whitening
        twin = lattice_for_hurst(0.7, depth=3, order=3).basis
        assert twin is not lat.basis
        got = smp_residual(model, u, solve_adjoint(model, u, lat, twin)[1], lat, twin)
        want = smp_residual(model, u, adj, lat, lat.basis)
        for n in range(3):
            assert np.array_equal(got[n].values, want[n].values)

    def test_adjoint_from_another_lattice_rejected(self, lat):
        # an h = 0.3 adjoint read on the h = 0.7 lattice would mix the two noises
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        other = lattice_for_hurst(0.3, depth=3, order=3)
        moved = ControlProcess(other.from_values(n, u[n].values) for n in range(3))
        _, adj = solve_adjoint(model, moved, other, other.basis)
        with pytest.raises(LevelMismatch, match="adjoint lives on a different lattice"):
            smp_residual(model, u, adj, lat, lat.basis)

    def test_adjoint_of_another_horizon_rejected(self, lat):
        short = sin_drift_model(2, initial_state=1.0)
        _, adj = solve_adjoint(short, constant_control(lat, 2, 0.0), lat, lat.basis)
        model = sin_drift_model(3, initial_state=1.0)
        with pytest.raises(DepthMismatch, match="adjoint has 2 stages, expected 3"):
            smp_residual(model, constant_control(lat, 3, 0.0), adj, lat, lat.basis)

    def test_solve_adjoint_pair_reads_rho_once(self, lat, monkeypatch):
        # smp_residual returns the rho that solve_adjoint read: no state
        # step and no second `_gradient`; a foreign control takes both
        model = sin_drift_model(3, initial_state=1.0)
        u = random_control(lat, 3, np.random.default_rng(8), scale=0.4)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        steps, gradients = self._count_steps(monkeypatch), []
        gradient = smp._gradient

        def counted(*args):
            gradients.append(1)
            return gradient(*args)

        monkeypatch.setattr(smp, "_gradient", counted)
        smp_residual(model, u, adj, lat, lat.basis)
        assert steps == [] and gradients == []
        smp_residual(model, ControlProcess(u), adj, lat, lat.basis)
        assert steps == [0, 1] and gradients == [1]


def _bytes(*processes) -> list[list[bytes]]:
    return [[stage.values.tobytes() for stage in process] for process in processes]


@pytest.mark.parametrize("q, horizon", [(3, 6), (5, 5), (3, 8)])
@pytest.mark.parametrize("draw", [0, 1, 2])
def test_one_certified_path_repeats_the_lq_certificate(q, horizon, draw):
    # solve_adjoint + smp_residual and optimize from u* read the adjoint
    # and rho of lq_fixed_point to the byte: all three certify by `_certify`
    spec = _random_lq_spec(np.random.default_rng([0, q, horizon, draw]), horizon)
    lat = lattice_for_hurst(0.7, depth=horizon, order=q)
    model = as_model(spec)
    sol = lq_fixed_point(spec, lat)
    want = _bytes(sol.state, sol.adjoint.y, sol.adjoint.z, sol.adjoint.r)
    x, adj = solve_adjoint(model, sol.control, lat, lat.basis)
    rho = smp_residual(model, sol.control, adj, lat, lat.basis)
    assert _bytes(x, adj.y, adj.z, adj.r) == want
    assert _bytes(rho) == _bytes(sol.rho)
    result = optimize(model, sol.control, lat)
    assert result.iterations == 0 and result.converged
    assert _bytes(result.state, result.adjoint.y, result.adjoint.z, result.adjoint.r) == want
    assert _bytes(result.control) == _bytes(sol.control)


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("stage", [0, 1])
    def test_non_finite_residual_raises(self, lat, stage, bad):
        # argmax lands on a NaN, and NaN > worst is False: it must not read as stationary
        values = [np.zeros(1), np.array([0.1, 0.0, 0.0])]
        values[stage][-1] = bad
        res = SmpResidual(tuple(lat.from_values(n, v) for n, v in enumerate(values)))
        node = len(values[stage]) - 1
        with pytest.raises(NonFiniteValue, match=f"at stage {stage}, node {node}"):
            check_stationarity(res, constant_control(lat, 2, 0.0), Unconstrained(), tol=1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-12])
    def test_invalid_tol_rejected(self, lat, tol):
        res = SmpResidual(tuple(lat.constant(0.0, n) for n in range(2)))
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check_stationarity(res, constant_control(lat, 2, 0.0), Unconstrained(), tol=tol)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_degenerate_box_node_never_violates(self, sign):
        # on Box(0, 1e-10) every u sits at both bounds within BOUNDARY_TOL
        box = Box(0.0, 1e-10)
        u = np.array([0.0, 5e-11, 1e-10])
        violation, passed = smp.classify_nodes(sign * np.array([0.3, 2.0, 1e-3]), u, box, 1e-8)
        assert np.array_equal(violation, np.zeros(3)) and passed.all()

    def test_residual_of_another_horizon_rejected(self, lat):
        # zipping the stages would drop stage 2, the only violation
        res = SmpResidual(tuple(lat.constant(1.0 if n == 2 else 0.0, n) for n in range(3)))
        with pytest.raises(DepthMismatch, match="residual has 3 stages, expected 2"):
            check_stationarity(res, constant_control(lat, 2, 0.0), Unconstrained(), tol=1e-8)

    def test_control_from_another_lattice_rejected(self, lat):
        # same q, so the tables fit: only the lattice tells them apart
        res = SmpResidual(tuple(lat.constant(0.0, n) for n in range(2)))
        other = lattice_for_hurst(0.3, depth=3, order=3)
        with pytest.raises(LevelMismatch, match="residual lives on a different lattice"):
            check_stationarity(res, constant_control(other, 2, -1.0), Box(-1.0, 1.0), tol=1e-8)


def tabled(model: ModelSpec, *names: str) -> ModelSpec:
    """A copy of `model` whose named derivatives return full np.full tables
    of the values the original returns as scalars."""
    def full(fn):
        return lambda n, x, u: np.full(np.broadcast_shapes(np.shape(x), np.shape(u)), fn(n, x, u))

    return dataclasses.replace(model, **{name: full(getattr(model, name)) for name in names})


def adjoint_route(model, lat, horizon, seed):
    """X, Y, Z, R, rho, J and a directional derivative on a random control,
    through the library route; exact zeros as +0.0, since a dropped zero term
    may flip their sign."""
    u = random_control(lat, horizon, np.random.default_rng([seed, 0]), scale=0.4)
    v = random_control(lat, horizon, np.random.default_rng([seed, 1]))
    x, adj = solve_adjoint(model, u, lat, lat.basis)
    rho = smp_residual(model, u, adj, lat, lat.basis)
    tables = [s.values for proc in (x, adj.y, adj.z, adj.r, rho) for s in proc]
    return [t + 0.0 for t in tables], cost(model, u, x, lat), directional_derivative(model, u, v, lat)


class TestScalarCoefficients:
    """A derivative returned as a scalar stays a scalar on the adjoint route
    (driver, gradient, variation and cost), with the bits of full tables."""

    @pytest.mark.parametrize("q, depth", [(3, 6), (3, 11)])
    @pytest.mark.parametrize("kind", ["sin_drift", "lq"])
    def test_scalars_and_tables_give_the_same_bits(self, q, depth, kind):
        # (3, 11): 3^10 parent nodes, several blocks of the terminal cost
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        if kind == "sin_drift":
            scalars = sin_drift_model(depth, initial_state=1.0)
            tables = tabled(scalars, "b_u", "sigma_x", "sigma_u", "l_x")
        else:
            scalars = as_model(_random_lq_spec(np.random.default_rng([0, q, depth, 0]), depth))
            tables = tabled(scalars, "b_x", "b_u", "sigma_x", "sigma_u")
        got, want = adjoint_route(scalars, lat, depth, 3), adjoint_route(tables, lat, depth, 3)
        assert len(got[0]) == len(want[0])
        assert all(np.array_equal(a, b) for a, b in zip(got[0], want[0]))
        assert got[1:] == want[1:]

    def test_adjoint_driver_and_cost_stay_below_leaf_tables(self):
        # at (3, 11) the driver reads no coefficient before a solve reaches its
        # stage, so it builds only the finiteness mask of phi_x(X_N) (an eighth of
        # a leaf table); cost holds level N-1 and one block of phi.  A driver that
        # froze b_x for every stage rose 0.63 leaf tables, and with the constants
        # as tables and phi(X_N) built whole the two rose 1.63 and 1.95
        q, depth = 3, 11
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        model = sin_drift_model(depth, initial_state=1.0)
        u = random_control(lat, depth, np.random.default_rng(11), scale=0.4)
        x = forward(model, u, lat)
        leaf = 8 * lat.level_size(depth)

        def rise(run):
            run()
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1] / leaf
            finally:
                tracemalloc.stop()

        assert rise(lambda: adjoint_driver(model, u, x)) <= 0.2
        assert rise(lambda: cost(model, u, x, lat)) <= 1.3

    def test_stationarity_results_hold_under_two_leaf_tables(self):
        # held: X_N, one leaf table (Y_N = phi_x(X_N) = X_N shares it), and the
        # level <= N-1 tables of X, Y, Z and rho, a ninth of a leaf table each at
        # q = 10 (1.45 in all); an adjoint driver that froze b_x per stage held
        # 1.56, and an adjoint that kept every R_n 2.56
        q, depth = 10, 6
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        model = sin_drift_model(depth, initial_state=1.0, noise_gain=0.5)
        u = random_control(lat, depth, np.random.default_rng([0, q, depth]))

        def route():
            x, adj = solve_adjoint(model, u, lat, lat.basis)
            return x, adj, smp_residual(model, u, adj, lat, lat.basis), cost(model, u, x, lat)

        route()  # builds the lattice's cached noise means and weights
        tracemalloc.start()
        try:
            results = route()
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(results[-1])
        assert kept <= 1.5 * 8 * lat.level_size(depth)


class TestBackwardPass:
    @pytest.mark.parametrize("q, depth, box", [
        (3, 6, None), (3, 6, Box(-0.2, 0.2)), (5, 4, None), (10, 4, None), (1, 4, None),
    ])
    def test_moment_form_matches_the_leaf_form(self, q, depth, box):
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        model = coupled_model(depth, control_set=box)
        u = random_control(lat, depth, np.random.default_rng(21), scale=0.3, control_set=box)
        u, x = [s.values for s in u], [s.values for s in forward(model, u, lat)]
        gains, rho = smp._backward_pass(model, u, x, lat)
        want_gains, want_rho = leaf_form_backward_pass(model, u, x, lat)
        got = [t for pair in gains for t in pair] + rho
        want = [t for pair in want_gains for t in pair] + want_rho
        for table, reference in zip(got, want, strict=True):
            assert table.shape == reference.shape
            scale = max(1.0, float(np.max(np.abs(reference))))
            np.testing.assert_allclose(table, reference, rtol=1e-12, atol=1e-12 * scale)
        if box is not None:
            # some node is clamped to the box, so its K is 0, and some is not
            clamped = np.concatenate([gain == 0.0 for _, gain in gains])
            assert clamped.any() and not clamped.all()

    def test_leaf_moments_taken_twice(self, monkeypatch):
        # at stage N-1 lambda is V_x, so its moments are V_x's: one leaf-level
        # _moments call for V_x, and one for V_xx where phi_xx is a table (the
        # double well); sin drift's phi_xx = 1 is a scalar, with no leaf table
        lat = lattice_for_hurst(0.7, depth=4, order=3)
        sizes, moments = [], smp._moments

        def spy(lattice, table, k):
            sizes.append(np.size(table))
            return moments(lattice, table, k)

        monkeypatch.setattr(smp, "_moments", spy)
        cases = ((double_well_model(4, 0.3, 0.5), 2), (sin_drift_model(4, noise_gain=0.5), 1))
        for model, taken in cases:
            u = random_control(lat, 4, np.random.default_rng(5), scale=0.4)
            u, x = [s.values for s in u], [s.values for s in forward(model, u, lat)]
            sizes.clear()
            smp._backward_pass(model, u, x, lat)
            assert sizes.count(lat.level_size(4)) == taken

    @pytest.mark.parametrize("make_model, q, depth, leaf_tables", [
        (sin_drift_model, 3, 12, 9.0), (sin_drift_model, 10, 6, 2.5),
        (double_well_model, 3, 12, 10.0),
    ], ids=["3-12-9.0", "10-6-2.5", "double_well-3-12-10.0"])
    def test_rise_in_leaf_tables(self, make_model, q, depth, leaf_tables):
        # the moment form builds no child-sized factor and sin drift's phi_xx
        # is a scalar; what remains is phi_x(X_N) and the level-(N-1) stage
        # tables, a third of a leaf table each at q = 3 and a tenth at q = 10.
        # The double well's phi_xx(X_N) is a leaf table too: it rises 9.67,
        # and 12.0 with its constants stated as tables
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        model = make_model(depth, noise_gain=0.5)
        u = random_control(lat, depth, np.random.default_rng(5), scale=0.4)
        u, x = [s.values for s in u], [s.values for s in forward(model, u, lat)]
        tracemalloc.start()
        try:
            smp._backward_pass(model, u, x, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= leaf_tables * 8 * lat.level_size(depth)


def leaf_cost_tables(model, lat, u, x):
    """The cost tables with phi(X_N) built whole: l(n, X_n, u_n) for n < N, then phi(X_N)."""
    tables = [dynamics._stage_value(lat, n, model.l(n, x[n], u[n])) for n in range(model.horizon)]
    tables.append(dynamics._stage_value(lat, model.horizon, model.phi(x[model.horizon])))
    return tables


def leaf_decrease(lat, old, new):
    """J(old) - J(new) and its rounding bound from two `leaf_cost_tables`, the
    leaf differences contracted stage by stage from level N."""
    diff, size = smp._node_changes(old[-1], new[-1])
    for n in reversed(range(len(old) - 1)):
        diff_n, size_n = smp._node_changes(old[n], new[n])
        diff = lattice._contract(lat, diff) + diff_n
        size = lattice._contract(lat, size) + size_n
    return float(diff[0]), smp._ROUNDING * float(size[0])


class TestTerminalCostByBlocks:
    """J and the Armijo decrease read phi(X_N) only as E[phi | N-1]."""

    @staticmethod
    def rolled(model, lat, tables):
        u = ControlProcess(AdaptedValue(lat, n, t) for n, t in enumerate(tables))
        return [s.values for s in forward(model, u, lat)]

    @pytest.mark.parametrize("q, depth", [(3, 6), (10, 4), (3, 11)])
    def test_decrease_matches_the_leaf_form(self, q, depth):
        # (3, 11): 3^10 parent nodes, several blocks of phi
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        model = double_well_model(depth, 0.3, noise_gain=1.0)
        u = [s.values for s in random_control(lat, depth, np.random.default_rng(31), scale=0.4)]
        trial = [t.copy() for t in u]
        j = q // 2  # the heaviest stage-1 node; only its subtree changes
        for n in range(1, depth):
            width = lat.level_size(n - 1)
            trial[n][j * width:(j + 1) * width] += 0.3
        x, x_trial = self.rolled(model, lat, u), self.rolled(model, lat, trial)
        old = list(dynamics._cost_tables(model, lat, u, x))
        new = list(dynamics._cost_tables(model, lat, trial, x_trial))
        assert len(old) == depth + 1 and old[-1].shape == (lat.level_size(depth - 1),)
        assert smp._decrease(lat, old, old) == (0.0, 0.0)
        again = list(dynamics._cost_tables(model, lat, u, x))
        assert smp._decrease(lat, old, again) == (0.0, 0.0)
        got = smp._decrease(lat, old, new)
        want = leaf_decrease(
            lat, leaf_cost_tables(model, lat, u, x), leaf_cost_tables(model, lat, trial, x_trial)
        )
        assert got[0] != 0.0
        assert got[0] == pytest.approx(want[0], rel=1e-14, abs=0.0)
        # every child of a changed parent changed, and phi >= 0: the same bound
        assert got[1] == pytest.approx(want[1], rel=1e-14, abs=0.0)

    def test_rollout_rises_at_most_two_leaf_tables(self):
        # it holds the trial's states and one block of phi; with phi(X_N)
        # built whole it rose 2.46 leaf tables
        lat = lattice_for_hurst(0.7, depth=6, order=10)
        model = sin_drift_model(6, noise_gain=0.5)
        u = random_control(lat, 6, np.random.default_rng(5), scale=0.4)
        u, x = [s.values for s in u], [s.values for s in forward(model, u, lat)]
        gains, _ = smp._backward_pass(model, u, x, lat)
        tracemalloc.start()
        try:
            smp._rollout(model, u, x, gains, 0.5, lat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * 8 * lat.level_size(6)


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
        result = optimize(model, constant_control(lat, 2, 0.0), lat, tol=1e-8)
        assert result.converged
        assert result.iterations == 0
        assert np.all(result.control[0].values == 0.0)

    def test_sin_drift_descends_to_stationarity(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u0 = constant_control(lat, 3, 0.0)
        j0 = cost(model, u0, forward(model, u0, lat), lat)
        result = optimize(model, u0, lat, tol=1e-6, max_iter=1500)
        assert result.converged
        assert result.cost < j0
        # J non-increasing along the trace
        costs = [pt.cost for pt in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))

    @pytest.mark.parametrize("horizon, iterations", [(3, 9), (4, 2), (5, 1)])
    def test_sin_drift_path_is_pinned(self, horizon, iterations):
        # optimize-small's solves: the iteration count, every accepted step
        # length at N = 3 and J to 1e-14 of the benchmark's reference, so a
        # change meant to keep the bits cannot move the line search unseen
        workloads = _load_bench_workloads()
        lat = lattice_for_hurst(workloads.HURST, horizon, 3)
        model = sin_drift_model(horizon, initial_state=1.0, noise_gain=0.5)
        result = optimize(model, constant_control(lat, horizon, 0.0), lat, tol=1e-8)
        assert result.converged and result.iterations == iterations
        if horizon == 3:
            steps = [0.0, 1.0, 1 / 16, 1 / 2, 1 / 4, 1.0, 1 / 8, 1.0, 1.0, 1.0]
            assert [pt.step for pt in result.trace] == steps
        want = workloads.OPTIMIZE_REFERENCE_J[horizon]
        assert abs(result.cost - want) <= 1e-14 * abs(want)

    def test_stationary_point_passes_necessity(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u0 = constant_control(lat, 3, 0.0)
        result = optimize(model, u0, lat, tol=1e-8, max_iter=2000)
        assert result.converged
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_control(lat, 3, rng)
            dd = directional_derivative(model, result.control, v, lat)
            assert dd >= -1e-7

    @pytest.mark.parametrize("depth", [3, 5])
    def test_box_constrained_descent(self, depth):
        lat = lattice_for_hurst(0.7, depth=depth, order=3)
        box = Box(-0.15, 0.15)
        model = sin_drift_model(depth, initial_state=1.0, control_set=box)
        u0 = constant_control(lat, depth, 0.0)
        result = optimize(model, u0, lat, tol=1e-8, max_iter=2000)
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
            dd = directional_derivative(model, result.control, v, lat)
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
        result = optimize(model, u0, lat, tol=1e-8)
        assert result.converged
        assert result.iterations <= max_iterations
        _, adj = solve_adjoint(model, result.control, lat, lat.basis)
        res = smp_residual(model, result.control, adj, lat, lat.basis)
        assert check_stationarity(res, result.control, model.control_set, tol=1e-8).passed

    def test_noise_quadratic_in_the_control_takes_newton_steps(self):
        # Q_uu carries V_x f_uu; without it the steps lose their Newton
        # curvature and this solve takes 18 iterations instead of 4
        lat = lattice_for_hurst(0.7, depth=5, order=3)
        model = quadratic_noise_model(5)
        result = optimize(model, constant_control(lat, 5, 0.0), lat, tol=1e-8)
        assert result.converged
        assert result.iterations <= 8
        _, adj = solve_adjoint(model, result.control, lat, lat.basis)
        res = smp_residual(model, result.control, adj, lat, lat.basis)
        assert check_stationarity(res, result.control, model.control_set, tol=1e-8).passed
        # duality off the optimum, where sigma_u = 0.5 + 0.2 u varies: the
        # variation route to dJ/deps agrees with E sum rho_n v_n
        rng = np.random.default_rng(10)
        u = random_control(lat, 5, rng, scale=0.4)
        _, adj = solve_adjoint(model, u, lat, lat.basis)
        res = smp_residual(model, u, adj, lat, lat.basis)
        for _ in range(3):
            v = random_control(lat, 5, rng)
            dual = sum(expectation(res[n] * v[n]) for n in range(5))
            assert abs(directional_derivative(model, u, v, lat) - dual) <= 1e-9

    def test_sin_drift_depth4_reference_cost(self):
        lat = lattice_for_hurst(0.7, depth=4, order=3)
        model = sin_drift_model(4, initial_state=1.0)
        result = optimize(model, constant_control(lat, 4, 0.0), lat, tol=1e-8)
        assert result.converged
        # the cost first-order descent stalled at, 4e-7 from stationary
        assert result.cost == pytest.approx(2.739681754239858, rel=1e-10)

    @pytest.mark.parametrize("initial_state", [0.3, 0.05])
    def test_double_well_reaches_stationarity(self, initial_state):
        # non-convex terminal cost (x^2 - 1)^2 / 4: from x0 = 0.05 many node
        # visits have Q_uu <= 0 and take the curvature floor.  The iteration
        # count and J are pinned to the bit.  The x0 = 0.05 path moves with
        # rounding: a change to the backward pass's last digits has sent it to
        # another local minimum (83 iterations to J 0.3931, then 88 to 0.4023,
        # then 98 to 0.4171), so a move here names that, before it nears the cap
        lat = lattice_for_hurst(0.7, depth=6, order=3)
        model = double_well_model(6, initial_state, noise_gain=1.0)
        u0 = constant_control(lat, 6, 0.0)
        j0 = cost(model, u0, forward(model, u0, lat), lat)
        result = optimize(model, u0, lat, tol=1e-8, max_iter=100)
        assert result.converged
        assert result.cost < j0
        pinned = {0.3: (7, 10.185903372514163), 0.05: (98, 0.41712120058892865)}
        assert (result.iterations, result.cost) == pinned[initial_state]
        _, adj = solve_adjoint(model, result.control, lat, lat.basis)
        res = smp_residual(model, result.control, adj, lat, lat.basis)
        assert check_stationarity(res, result.control, model.control_set, tol=1e-8).passed

    @pytest.mark.parametrize("horizon", [10, 11])
    def test_double_well_converges_at_depth(self, horizon):
        # a decrease carried by nodes of probability ~1e-7 sits below the
        # rounding of J; the nodewise decrease still resolves it
        lat = lattice_for_hurst(0.7, depth=horizon, order=3)
        model = double_well_model(horizon, 0.3, noise_gain=1.0)
        u0 = constant_control(lat, horizon, 0.0)
        result = optimize(model, u0, lat, tol=1e-8, max_iter=30)
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
        result = optimize(model, constant_control(lat, horizon, 0.0), lat, tol=tol)
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
        result = optimize(model, constant_control(lat, 3, 0.0), lat,
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
        result = optimize(model, constant_control(lat, 3, 0.0), lat, tol=1e-11)
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
        clean = optimize(model, u0, lat, tol=10.0)
        assert clean.converged and clean.iterations == 0
        stage_derivatives = smp._stage_derivatives

        def without_lx(*args):
            values = list(stage_derivatives(*args))
            values[10] = 0.0  # b, sigma, l, five each; l_x is the eleventh
            return tuple(values)

        monkeypatch.setattr(smp, "_stage_derivatives", without_lx)
        with pytest.raises(DualityMismatch, match="backward pass and adjoint disagree on rho_"):
            optimize(model, u0, lat, tol=10.0)

    def test_backward_rho_off_by_a_millionth_fails_the_final_check(self, lat, lq3, monkeypatch):
        # a relative error of 1e-6 in rho is far above DUALITY_TOL = 1e-9;
        # the tolerance passes at u0, so the first iteration is the check
        model = as_model(lq3)
        u0 = constant_control(lat, 3, 0.0)
        backward_pass = smp._backward_pass

        def perturbed(*args):
            gains, rho = backward_pass(*args)
            return gains, [r * (1.0 + 1e-6) for r in rho]

        monkeypatch.setattr(smp, "_backward_pass", perturbed)
        with pytest.raises(DualityMismatch, match="backward pass and adjoint disagree on rho_"):
            optimize(model, u0, lat, tol=10.0)

    def test_non_finite_derivative_table_rejected(self, lat):
        # b_x is inf beyond |x| = 100, outside the constructor's spot checks
        base = sin_drift_model(3, initial_state=1000.0)
        model = dataclasses.replace(
            base, b_x=lambda n, x, u: np.where(np.abs(x) > 100.0, np.inf, base.b_x(n, x, u))
        )
        with np.errstate(invalid="ignore"):
            with pytest.raises(NonFiniteValue, match="coefficient produced non-finite"):
                optimize(model, constant_control(lat, 3, 0.0), lat)

    def test_no_descent_raised_when_backtracking_disabled(self, lat, monkeypatch):
        model = sin_drift_model(2, initial_state=1.0)
        u0 = constant_control(lat, 2, 0.0)
        monkeypatch.setattr(smp, "_INITIAL_STEP", 1e6)
        monkeypatch.setattr(smp, "_MAX_HALVINGS", 0)
        with pytest.raises(NoDescent, match="after 0 halvings at iteration 0: J="):
            optimize(model, u0, lat, tol=1e-10)

    def test_no_descent_message_names_the_iterate(self, lat, monkeypatch):
        model = sin_drift_model(2, initial_state=1.0)
        monkeypatch.setattr(smp, "_INITIAL_STEP", 1e6)
        monkeypatch.setattr(smp, "_MAX_HALVINGS", 0)
        message = (
            "no sufficient decrease after 0 halvings at iteration 0: J=3.934185596630014, "
            "worst residual 3.581e+00 at stage 1 node 2"
        )
        with pytest.raises(NoDescent) as err:
            optimize(model, constant_control(lat, 2, 0.0), lat, tol=1e-10)
        assert str(err.value) == message

    def test_max_iter_returns_unconverged(self, lat):
        model = sin_drift_model(3, initial_state=1.0)
        u0 = constant_control(lat, 3, 0.5)
        result = optimize(model, u0, lat, tol=1e-12, max_iter=1)
        assert not result.converged
        assert result.iterations == 1

    def test_negative_max_iter_rejected(self, lat):
        model = sin_drift_model(2, initial_state=1.0)
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            optimize(model, constant_control(lat, 2, 0.0), lat, max_iter=-1)

    @pytest.mark.parametrize("max_iter", [float("nan"), float("inf"), 2.5, True, "3"])
    def test_max_iter_that_is_no_count_rejected(self, lat, max_iter):
        # iterations >= nan is never true, so nan ran uncapped (12 iterations
        # here, to convergence); 2.5 ran 3 and True 1
        model = sin_drift_model(3, initial_state=1.0)
        with pytest.raises(ValueError, match=f"^max_iter must be an integer, got {max_iter!r}$"):
            optimize(model, constant_control(lat, 3, 0.5), lat, tol=1e-14, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [0, np.int64(0), np.int32(1)])
    def test_integer_max_iter_accepted(self, lat, max_iter):
        model = sin_drift_model(3, initial_state=1.0)
        result = optimize(model, constant_control(lat, 3, 0.5), lat, tol=1e-14, max_iter=max_iter)
        assert result.iterations == max_iter and not result.converged

    @pytest.mark.parametrize("tol", [float("nan"), -1.0])
    def test_invalid_tol_rejected(self, lat, tol):
        model = sin_drift_model(2, initial_state=1.0)
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            optimize(model, constant_control(lat, 2, 0.0), lat, tol=tol)
        with pytest.raises(ValueError, match=f"^tol must be finite and >= 0, got {tol!r}$"):
            optimize(model, constant_control(lat, 2, 0.0), lat, tol=tol, max_iter=0)
