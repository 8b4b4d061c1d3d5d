"""Linear-quadratic solver: one-pass tree Riccati, closed forms, certificates.

Oracles: the horizon-1 closed form (single-variable quadratic), and for
white noise a scalar dynamic-programming Riccati recursion coded here
from scratch, giving exact feedback gains the tree solve must reproduce.
The DDP optimizer and the SMP residual check the solve independently.
"""

import numpy as np
import pytest

from fgncontrol.dynamics import (
    ControlProcess,
    constant_control,
    cost,
    forward,
    perturb,
    random_control,
)
from fgncontrol import lq
from fgncontrol.errors import (
    DepthMismatch,
    InvalidSpec,
    LevelMismatch,
    NonFiniteValue,
    NotConverged,
    WrongHorizon,
)
from fgncontrol.lattice import expectation, lattice_for_hurst
from fgncontrol.lq import (
    LqSpec,
    as_model,
    lq_fixed_point,
    one_step_closed_form,
    verify_sufficiency,
    verify_uniqueness,
)
from fgncontrol.selftest import _random_lq_spec
from fgncontrol.smp import check_stationarity, optimize, smp_residual


def riccati_gains(spec: LqSpec) -> tuple[np.ndarray, float]:
    """Feedback gains and optimal cost coefficient under white noise.

    Scalar stochastic Riccati recursion: with P_N = G,
    u_n = K_n x_n,  K_n = -P_{n+1}(a_n B_n + C_n D_n) / den_n,
    den_n = R_n + P_{n+1}(B_n^2 + D_n^2),  a_n = 1 + A_n,
    P_n = Q_n + P_{n+1}(a_n^2 + C_n^2) - (P_{n+1}(a_n B_n + C_n D_n))^2 / den_n.
    Valid because eta has exact mean 0 and variance 1 on the lattice.
    """
    p_next = spec.G
    gains = np.zeros(spec.horizon)
    for n in reversed(range(spec.horizon)):
        a, b, c, d = 1.0 + spec.A[n], spec.B[n], spec.C[n], spec.D[n]
        den = spec.R[n] + p_next * (b * b + d * d)
        cross = p_next * (a * b + c * d)
        gains[n] = -cross / den
        p_next = spec.Q[n] + p_next * (a * a + c * c) - cross**2 / den
    return gains, p_next


def random_spec(rng: np.random.Generator, horizon: int) -> LqSpec:
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


@pytest.fixture(scope="module")
def lat7():
    return lattice_for_hurst(0.7, depth=3, order=3)


@pytest.fixture(scope="module")
def spec3():
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


class TestSpecValidation:
    def base_kwargs(self):
        return dict(
            horizon=2, A=[0.0, 0.0], B=[1.0, 1.0], C=[0.0, 0.0],
            D=[0.0, 0.0], Q=[1.0, 1.0], R=[1.0, 1.0], G=1.0, x=1.0,
        )

    def test_valid_spec_constructs(self):
        LqSpec(**self.base_kwargs())

    @pytest.mark.parametrize(
        "field, value",
        [
            ("horizon", 0),
            ("A", [0.0]),
            ("B", [1.0, np.nan]),
            ("Q", [1.0, -0.1]),
            ("R", [1.0, 0.0]),
            ("R", [1.0, -1.0]),
            ("G", -0.5),
            ("G", np.inf),
        ],
    )
    def test_bad_field_rejected(self, field, value):
        kwargs = self.base_kwargs()
        kwargs[field] = value
        with pytest.raises(InvalidSpec):
            LqSpec(**kwargs)


class TestOneStepClosedForm:
    def test_reference_value(self):
        spec = LqSpec(horizon=1, A=[0.0], B=[1.0], C=[0.0], D=[1.0],
                      Q=[0.0], R=[1.0], G=1.0, x=1.0)
        assert one_step_closed_form(spec) == pytest.approx(-1.0 / 3.0, abs=1e-15)

    def test_zero_initial_state(self):
        spec = LqSpec(horizon=1, A=[0.2], B=[1.0], C=[0.1], D=[1.0],
                      Q=[0.0], R=[1.0], G=1.0, x=0.0)
        assert one_step_closed_form(spec) == 0.0

    def test_zero_terminal_weight(self):
        spec = LqSpec(horizon=1, A=[0.2], B=[1.0], C=[0.1], D=[1.0],
                      Q=[0.5], R=[1.0], G=0.0, x=1.0)
        assert one_step_closed_form(spec) == 0.0

    def test_wrong_horizon(self, spec3):
        with pytest.raises(WrongHorizon):
            one_step_closed_form(spec3)

    def test_fixed_point_matches_over_draws(self):
        lat = lattice_for_hurst(0.7, depth=1, order=3)
        rng = np.random.default_rng(11)
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
            sol = lq_fixed_point(spec, lat, lat.basis)
            expected = one_step_closed_form(spec)
            assert np.max(np.abs(sol.control[0].values - expected)) <= 1e-10


class TestFixedPointStructure:
    def test_control_free_dynamics_gives_zero(self, lat7):
        spec = LqSpec(horizon=3, A=[0.2, 0.1, 0.3], B=[0.0, 0.0, 0.0],
                      C=[0.4, 0.2, 0.1], D=[0.0, 0.0, 0.0],
                      Q=[0.5, 0.5, 0.5], R=[1.0, 1.0, 1.0], G=1.0, x=1.0)
        sol = lq_fixed_point(spec, lat7, lat7.basis)
        assert sol.iterations == 0
        for n in range(3):
            assert np.all(sol.control[n].values == 0.0)

    def test_costless_state_gives_zero_control_and_cost(self, lat7):
        spec = LqSpec(horizon=3, A=[0.2, 0.1, 0.3], B=[1.0, 1.0, 1.0],
                      C=[0.4, 0.2, 0.1], D=[0.5, 0.5, 0.5],
                      Q=[0.0, 0.0, 0.0], R=[1.0, 1.0, 1.0], G=0.0, x=1.0)
        sol = lq_fixed_point(spec, lat7, lat7.basis)
        for n in range(3):
            assert np.max(np.abs(sol.control[n].values)) <= 1e-12
        assert sol.cost <= 1e-12

    def test_adjoint_properties_alias_solution(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        assert sol.p is sol.adjoint.y
        assert sol.q is sol.adjoint.z

    def test_not_converged_carries_residual(self, spec3, lat7):
        # the adjoint sees h = 0.3 while the lattice noise is h = 0.7, so
        # the Riccati control cannot pass the SMP check
        wrong = lattice_for_hurst(0.3, 3, 3).basis
        with pytest.raises(NotConverged) as info:
            lq_fixed_point(spec3, lat7, wrong)
        assert info.value.residual > 0.0

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_invalid_tolerance_rejected(self, spec3, lat7, tol):
        # residual > nan and residual > inf are False: either would certify anything
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            lq_fixed_point(spec3, lat7, lat7.basis, tol=tol)

    @pytest.mark.parametrize("q, horizon, draw", [(3, 6, 1), (3, 8, 0)])
    def test_certified_at_benchmark_depth(self, q, horizon, draw):
        # lq-certify draws that a 500-sweep damped iteration does not solve
        lat = lattice_for_hurst(0.7, depth=horizon, order=q)
        spec = _random_lq_spec(np.random.default_rng([0, q, horizon, draw]), horizon)
        sol = lq_fixed_point(spec, lat, lat.basis)
        assert sol.residual <= 1e-10
        model = as_model(spec)
        res = smp_residual(model, sol.control, sol.adjoint, lat, lat.basis)
        assert check_stationarity(res, sol.control, model.control_set, tol=1e-8).passed
        assert verify_sufficiency(spec, sol.control, lat).passed


class TestWhiteNoiseRiccati:
    @pytest.mark.parametrize(
        "seed, depth",
        [pytest.param(seed, 3, id=str(seed)) for seed in (21, 22, 23)]
        + [pytest.param(seed, 6, id=f"{seed}-depth6") for seed in (21, 22, 23)],
    )
    def test_feedback_gains_reproduced(self, seed, depth):
        lat = lattice_for_hurst(0.5, depth=depth, order=3)
        rng = np.random.default_rng(seed)
        spec = random_spec(rng, depth)
        sol = lq_fixed_point(spec, lat, lat.basis)
        gains, p0 = riccati_gains(spec)
        for n in range(depth):
            expected = gains[n] * sol.state[n].values
            assert np.max(np.abs(sol.control[n].values - expected)) <= 1e-9
        assert sol.cost == pytest.approx(0.5 * p0 * spec.x**2, abs=1e-9)

    def test_fractional_noise_breaks_feedback_form(self, spec3, lat7):
        # with memory the optimal control is path dependent, so no
        # stagewise gain K_n with u = K_n x can reproduce it
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        n = 2
        x_vals = sol.state[n].values
        u_vals = sol.control[n].values
        ratios = u_vals / x_vals
        assert np.max(ratios) - np.min(ratios) > 1e-4


class TestStationarityAndOptimality:
    def test_fixed_point_is_stationary(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        model = as_model(spec3)
        res = smp_residual(model, sol.control, sol.adjoint, lat7, lat7.basis)
        report = check_stationarity(res, sol.control, model.control_set, tol=1e-8)
        assert report.passed

    def test_never_beaten_by_random_controls(self, lat7):
        rng = np.random.default_rng(31)
        spec = random_spec(rng, 3)
        sol = lq_fixed_point(spec, lat7, lat7.basis)
        model = as_model(spec)
        for _ in range(100):
            u = random_control(lat7, 3, rng, scale=2.0)
            j = cost(model, u, forward(model, u, lat7), lat7)
            assert j >= sol.cost - 1e-10

    def test_optimize_agrees_with_fixed_point(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        model = as_model(spec3)
        result = optimize(
            model, constant_control(lat7, 3, 0.0), lat7, lat7.basis,
            tol=1e-8, max_iter=5000,
        )
        assert result.converged
        # on a quadratic problem the first Newton step is exact
        assert result.iterations <= 2
        for n in range(3):
            diff = np.max(np.abs(result.control[n].values - sol.control[n].values))
            assert diff <= 1e-6


class TestSufficiency:
    def test_zero_direction_gap_is_zero(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        model = as_model(spec3)
        v = constant_control(lat7, 3, 0.0)
        u = perturb(sol.control, v, 0.5)
        j = cost(model, u, forward(model, u, lat7), lat7)
        assert j == pytest.approx(sol.cost, abs=1e-14)

    def test_one_step_gap_exact(self):
        lat = lattice_for_hurst(0.7, depth=1, order=3)
        spec = LqSpec(horizon=1, A=[0.3], B=[0.9], C=[0.2], D=[0.7],
                      Q=[0.4], R=[1.1], G=0.9, x=1.4)
        sol = lq_fixed_point(spec, lat, lat.basis)
        model = as_model(spec)
        eps, v0 = 0.01, 0.7
        v = constant_control(lat, 1, v0)
        u = perturb(sol.control, v, eps)
        gap = cost(model, u, forward(model, u, lat), lat) - sol.cost
        expected = 0.5 * (spec.R[0] + spec.G * (spec.B[0] ** 2 + spec.D[0] ** 2))
        expected *= (eps * v0) ** 2
        assert gap == pytest.approx(expected, abs=1e-12)

    def test_report_passes(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        report = verify_sufficiency(spec3, sol.control, lat7)
        assert report.passed
        assert report.trials == 50
        assert report.min_cost_gap >= -1e-10
        assert report.worst_quadratic_slack >= -1e-9

    def test_quadratic_gap_lower_bound_formula(self, spec3, lat7):
        # gap >= 0.5 sum R_n E (eps v_n)^2 nails convexity modulus
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        model = as_model(spec3)
        rng = np.random.default_rng(41)
        for _ in range(10):
            v = random_control(lat7, 3, rng)
            u = perturb(sol.control, v, 0.1)
            gap = cost(model, u, forward(model, u, lat7), lat7) - sol.cost
            quad = 0.5 * sum(
                spec3.R[n] * expectation((u[n] - sol.control[n]) * (u[n] - sol.control[n]))
                for n in range(3)
            )
            assert gap >= quad - 1e-9


class TestUniqueness:
    def test_distinct_starts_agree(self, spec3, lat7):
        report = verify_uniqueness(spec3, lat7)
        assert report.passed
        assert report.worst_parallelogram_slack >= -1e-9


def reference_sufficiency(spec, u_star, lat, trials=50, seed=0):
    """Gap and quadratic slack of each verify_sufficiency trial, from a
    per-trial loop of public calls."""
    model = as_model(spec)
    j_star = cost(model, u_star, forward(model, u_star, lat), lat)
    rng = np.random.default_rng(seed)
    gaps, slacks = [], []
    for t in range(trials):
        v = random_control(lat, spec.horizon, rng)
        u = perturb(u_star, v, (1.0, 0.1, 0.01)[t % 3])
        gap = cost(model, u, forward(model, u, lat), lat) - j_star
        quad = 0.5 * sum(
            spec.R[n] * expectation((u[n] - u_star[n]) * (u[n] - u_star[n]))
            for n in range(spec.horizon)
        )
        gaps.append(gap)
        slacks.append(gap - quad)
    return gaps, slacks


def reference_uniqueness(spec, lat, seed=0):
    """Parallelogram slack of each verify_uniqueness pair, from a per-pair
    loop of public calls."""
    model = as_model(spec)
    rng = np.random.default_rng(seed)
    theta = float(np.min(spec.R))
    slacks = []
    for _ in range(5):
        u1 = random_control(lat, spec.horizon, rng)
        u2 = random_control(lat, spec.horizon, rng)
        mid = ControlProcess((u1[n] + u2[n]) * 0.5 for n in range(spec.horizon))
        j1, j2, jm = (cost(model, u, forward(model, u, lat), lat) for u in (u1, u2, mid))
        sq = sum(expectation((u1[n] - u2[n]) * (u1[n] - u2[n])) for n in range(spec.horizon))
        slacks.append(j1 + j2 - 2.0 * jm - 0.25 * theta * sq)
    return slacks


class TestStackedCertificates:
    """The certificates roll all trials out together; a per-trial loop of
    public calls on the same seed must give the same report."""

    @pytest.fixture(
        scope="class",
        params=[(3, 6, 0), (3, 6, 2), (5, 5, 1)],
        ids=lambda p: "q{}-N{}-d{}".format(*p),
    )
    def problem(self, request):
        q, horizon, draw = request.param
        lat = lattice_for_hurst(0.7, depth=horizon, order=q)
        spec = _random_lq_spec(np.random.default_rng([0, q, horizon, draw]), horizon)
        return spec, lq_fixed_point(spec, lat, lat.basis).control, lat

    @staticmethod
    def check_sufficiency(report, gaps, slacks):
        gap, slack = min(gaps), min(slacks)
        assert report.passed == (gap >= -1e-10 and slack >= -1e-9)
        assert report.trials == len(gaps)
        assert report.min_cost_gap == pytest.approx(gap, rel=0.0, abs=1e-13)
        assert report.worst_quadratic_slack == pytest.approx(slack, rel=0.0, abs=1e-13)

    @staticmethod
    def check_uniqueness(report, slacks):
        assert report.passed == (min(slacks) >= -1e-9)
        assert report.worst_parallelogram_slack == pytest.approx(min(slacks), rel=0.0, abs=1e-13)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_matches_per_trial_loop(self, problem, seed):
        spec, u_star, lat = problem
        self.check_sufficiency(
            verify_sufficiency(spec, u_star, lat, seed=seed),
            *reference_sufficiency(spec, u_star, lat, seed=seed),
        )
        self.check_uniqueness(verify_uniqueness(spec, lat, seed=seed),
                              reference_uniqueness(spec, lat, seed=seed))

    def test_matches_per_trial_loop_in_ragged_chunks(self, problem, monkeypatch):
        # chunks of t trials, where trial t has the smallest gap: the run
        # of t + 1 trials ends in a ragged chunk of one that decides it
        spec, u_star, lat = problem
        gaps, slacks = reference_sufficiency(spec, u_star, lat, seed=3)
        t = int(np.argmin(gaps))
        assert t > 0
        monkeypatch.setattr(lq, "_CHUNK_LEAVES", t * lat.level_size(spec.horizon))
        self.check_sufficiency(
            verify_sufficiency(spec, u_star, lat, trials=t + 1, seed=3),
            gaps[: t + 1], slacks[: t + 1],
        )
        # 7 leaf tables per chunk: 2, 2 and 1 pairs of 3 rollouts each
        monkeypatch.setattr(lq, "_CHUNK_LEAVES", 7 * lat.level_size(spec.horizon))
        self.check_uniqueness(verify_uniqueness(spec, lat, seed=3),
                              reference_uniqueness(spec, lat, seed=3))

    @pytest.mark.parametrize("trials", [0, -4])
    def test_no_trials_rejected(self, spec3, lat7, trials):
        sol = lq_fixed_point(spec3, lat7, lat7.basis)
        with pytest.raises(ValueError, match="trials"):
            verify_sufficiency(spec3, sol.control, lat7, trials=trials)

    def test_candidate_on_another_lattice(self, spec3, lat7):
        other = lattice_for_hurst(0.7, depth=3, order=3)
        sol = lq_fixed_point(spec3, other, other.basis)
        with pytest.raises(LevelMismatch):
            verify_sufficiency(spec3, sol.control, lat7)

    def test_candidate_with_wrong_horizon(self, spec3, lat7):
        with pytest.raises(DepthMismatch):
            verify_sufficiency(spec3, constant_control(lat7, 2, 0.0), lat7)

    def test_overflowing_rollout(self, lat7):
        # u* = 0 keeps the state at x = 0; any perturbation reaches
        # X_1 ~ 1e200, whose square overflows the stage-1 running cost
        spec = LqSpec(horizon=3, A=[0.0, 0.0, 0.0], B=[1e200, 1.0, 1.0],
                      C=[0.0, 0.0, 0.0], D=[0.0, 0.0, 0.0], Q=[1.0, 0.0, 0.0],
                      R=[1.0, 1.0, 1.0], G=1.0, x=0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteValue):
                verify_sufficiency(spec, constant_control(lat7, 3, 0.0), lat7)
            with pytest.raises(NonFiniteValue):
                verify_uniqueness(spec, lat7)
