"""Linear-quadratic solver: one-pass tree Riccati, closed forms, certificates.

Oracles: the horizon-1 closed form (single-variable quadratic), and for
white noise a scalar dynamic-programming Riccati recursion coded here
from scratch, giving exact feedback gains the tree solve must reproduce.
The DDP optimizer and the SMP residual check the solve independently.
"""

import dataclasses
import tracemalloc

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
from fgncontrol import lq, smp
from fgncontrol.errors import (
    DepthMismatch,
    InvalidSpec,
    LevelMismatch,
    NonFiniteValue,
    NotConverged,
    WrongHorizon,
)
from fgncontrol.lattice import _contract, expectation, lattice_for_hurst
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
            sol = lq_fixed_point(spec, lat)
            expected = one_step_closed_form(spec)
            assert np.max(np.abs(sol.control[0].values - expected)) <= 1e-10


class TestFixedPointStructure:
    def test_control_free_dynamics_gives_zero(self, lat7):
        spec = LqSpec(horizon=3, A=[0.2, 0.1, 0.3], B=[0.0, 0.0, 0.0],
                      C=[0.4, 0.2, 0.1], D=[0.0, 0.0, 0.0],
                      Q=[0.5, 0.5, 0.5], R=[1.0, 1.0, 1.0], G=1.0, x=1.0)
        sol = lq_fixed_point(spec, lat7)
        for n in range(3):
            assert np.all(sol.control[n].values == 0.0)

    def test_costless_state_gives_zero_control_and_cost(self, lat7):
        spec = LqSpec(horizon=3, A=[0.2, 0.1, 0.3], B=[1.0, 1.0, 1.0],
                      C=[0.4, 0.2, 0.1], D=[0.5, 0.5, 0.5],
                      Q=[0.0, 0.0, 0.0], R=[1.0, 1.0, 1.0], G=0.0, x=1.0)
        sol = lq_fixed_point(spec, lat7)
        for n in range(3):
            assert np.max(np.abs(sol.control[n].values)) <= 1e-12
        assert sol.cost <= 1e-12

    def test_not_converged_carries_residual(self, spec3, lat7, monkeypatch):
        # the SMP residual of the exact control is rounding, not 0, so a
        # zero tolerance cannot pass
        monkeypatch.setattr(lq, "_RESIDUAL_TOL", 0.0)
        with pytest.raises(NotConverged) as info:
            lq_fixed_point(spec3, lat7)
        assert info.value.residual > 0.0

    def test_stage_algebra_slip_fails_the_certificate(self, spec3, lat7, monkeypatch):
        # optimize shares the DDP stage algebra, so comparing the two cannot
        # catch a slip in it; the SMP certificate (solve_bsde and the adjoint
        # gradient) never calls _product, and fails the slipped gains
        product = smp._product
        monkeypatch.setattr(
            smp, "_product", lambda m, c, d: product((m[0], m[1], 1.001 * m[2]), c, d)
        )
        with pytest.raises(NotConverged, match="LQ control fails the SMP check"):
            lq_fixed_point(spec3, lat7)

    def test_shallow_lattice_rejected(self, spec3):
        # the same DepthMismatch forward and the certificates raise, not
        # the LevelMismatch of reading level 3 off a depth-2 lattice
        shallow = lattice_for_hurst(0.7, depth=2, order=3)
        with pytest.raises(DepthMismatch, match="lattice depth 2 < horizon 3"):
            lq_fixed_point(spec3, shallow)

    @pytest.mark.parametrize("q, horizon, draw", [(3, 6, 1), (3, 8, 0)])
    def test_certified_at_benchmark_depth(self, q, horizon, draw):
        # lq-certify draws that a 500-sweep damped iteration does not solve
        lat = lattice_for_hurst(0.7, depth=horizon, order=q)
        spec = _random_lq_spec(np.random.default_rng([0, q, horizon, draw]), horizon)
        sol = lq_fixed_point(spec, lat)
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
        sol = lq_fixed_point(spec, lat)
        gains, p0 = riccati_gains(spec)
        for n in range(depth):
            expected = gains[n] * sol.state[n].values
            assert np.max(np.abs(sol.control[n].values - expected)) <= 1e-9
        assert sol.cost == pytest.approx(0.5 * p0 * spec.x**2, abs=1e-9)

    def test_fractional_noise_breaks_feedback_form(self, spec3, lat7):
        # with memory the optimal control is path dependent, so no
        # stagewise gain K_n with u = K_n x can reproduce it
        sol = lq_fixed_point(spec3, lat7)
        n = 2
        x_vals = sol.state[n].values
        u_vals = sol.control[n].values
        ratios = u_vals / x_vals
        assert np.max(ratios) - np.min(ratios) > 1e-4


class TestStationarityAndOptimality:
    def test_fixed_point_is_stationary(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7)
        model = as_model(spec3)
        res = smp_residual(model, sol.control, sol.adjoint, lat7, lat7.basis)
        report = check_stationarity(res, sol.control, model.control_set, tol=1e-8)
        assert report.passed

    def test_never_beaten_by_random_controls(self, lat7):
        rng = np.random.default_rng(31)
        spec = random_spec(rng, 3)
        sol = lq_fixed_point(spec, lat7)
        model = as_model(spec)
        for _ in range(100):
            u = random_control(lat7, 3, rng, scale=2.0)
            j = cost(model, u, forward(model, u, lat7), lat7)
            assert j >= sol.cost - 1e-10

    def test_optimize_agrees_with_fixed_point(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7)
        model = as_model(spec3)
        result = optimize(
            model, constant_control(lat7, 3, 0.0), lat7,
            tol=1e-8, max_iter=5000,
        )
        assert result.converged
        # on a quadratic problem the first Newton step is exact
        assert result.iterations <= 2
        for n in range(3):
            diff = np.max(np.abs(result.control[n].values - sol.control[n].values))
            assert diff <= 1e-6


def tiny_control_weight(B, D, Q, R) -> LqSpec:
    """A horizon-3 spec whose Q_uu lies below 1e-8 at every node."""
    return LqSpec(
        horizon=3, A=[0.1] * 3, B=[B] * 3, C=[0.2] * 3, D=[D] * 3,
        Q=[Q] * 3, R=[R] * 3, G=1.0, x=1.0,
    )


TINY_CONTROL_WEIGHT = [
    # (spec, J from a Riccati pass of the tree)
    (tiny_control_weight(B=1e-5, D=0.0, Q=0.0, R=1e-9), 0.781902239506134),
    (tiny_control_weight(B=2e-5, D=1e-5, Q=1.0, R=5e-9), 2.085600423431731),
]


class TestCurvatureRule:
    # 0 < Q_uu < 1e-8 everywhere: a floor there would damp every Newton step

    @pytest.mark.parametrize("spec, _", TINY_CONTROL_WEIGHT, ids=["S1", "S2"])
    def test_optimize_takes_one_newton_step(self, lat7, spec, _):
        result = optimize(
            as_model(spec), constant_control(lat7, 3, 0.0), lat7, tol=1e-10
        )
        assert result.converged
        assert result.iterations == 1

    @pytest.mark.parametrize("spec, want", TINY_CONTROL_WEIGHT, ids=["S1", "S2"])
    def test_lq_solve_keeps_its_cost(self, lat7, spec, want):
        sol = lq_fixed_point(spec, lat7)
        assert abs(sol.cost - want) <= 1e-12 * want


class TestSufficiency:
    def test_zero_direction_gap_is_zero(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7)
        model = as_model(spec3)
        v = constant_control(lat7, 3, 0.0)
        u = perturb(sol.control, v, 0.5)
        j = cost(model, u, forward(model, u, lat7), lat7)
        assert j == pytest.approx(sol.cost, abs=1e-14)

    def test_one_step_gap_exact(self):
        lat = lattice_for_hurst(0.7, depth=1, order=3)
        spec = LqSpec(horizon=1, A=[0.3], B=[0.9], C=[0.2], D=[0.7],
                      Q=[0.4], R=[1.1], G=0.9, x=1.4)
        sol = lq_fixed_point(spec, lat)
        model = as_model(spec)
        eps, v0 = 0.01, 0.7
        v = constant_control(lat, 1, v0)
        u = perturb(sol.control, v, eps)
        gap = cost(model, u, forward(model, u, lat), lat) - sol.cost
        expected = 0.5 * (spec.R[0] + spec.G * (spec.B[0] ** 2 + spec.D[0] ** 2))
        expected *= (eps * v0) ** 2
        assert gap == pytest.approx(expected, abs=1e-12)

    def test_report_passes(self, spec3, lat7):
        sol = lq_fixed_point(spec3, lat7)
        report = verify_sufficiency(spec3, sol.control, lat7)
        assert report.passed
        assert report.trials == 50
        assert report.min_cost_gap >= -1e-10
        assert report.worst_quadratic_slack >= -1e-9

    def test_quadratic_gap_lower_bound_formula(self, spec3, lat7):
        # gap >= 0.5 sum R_n E (eps v_n)^2 nails convexity modulus
        sol = lq_fixed_point(spec3, lat7)
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

    def test_gap_below_the_quadratic_bound_fails(self, spec3, lat7, monkeypatch):
        # every trial costs more than u*, but by half the convexity bound
        # 0.5 sum R_n E (eps v_n)^2: the quadratic slack alone must fail it
        sol = lq_fixed_point(spec3, lat7)
        star = [u.values for u in sol.control]
        batch_costs = lq._batch_costs

        def half_the_bound(spec, lat, start, u):
            j_star = batch_costs(spec, lat, start, [s[None] for s in star])[0]
            quad = 0.5 * sum(
                spec3.R[n] * _contract(lat, ((u[n] - star[n]) ** 2).reshape(-1), n)
                for n in range(spec3.horizon)
            )
            return j_star + 0.5 * quad

        monkeypatch.setattr(lq, "_batch_costs", half_the_bound)
        report = verify_sufficiency(spec3, sol.control, lat7)
        assert report.passed is False
        assert report.min_cost_gap > 0.0
        assert report.worst_quadratic_slack < -1e-9


class TestUniqueness:
    def test_distinct_starts_agree(self, spec3, lat7):
        report = verify_uniqueness(spec3, lat7)
        assert report.passed
        assert report.worst_parallelogram_slack >= -1e-9

    @pytest.mark.parametrize("depth", [3, 4])
    def test_shallow_lattice_rejected(self, depth):
        # the depth is checked before the draws, which at depth 3 would ask
        # for level 4 and raise LevelMismatch instead
        spec = _random_lq_spec(np.random.default_rng([0, 3, 5, 0]), 5)
        shallow = lattice_for_hurst(0.7, depth=depth, order=3)
        with pytest.raises(DepthMismatch, match=f"lattice depth {depth} < horizon 5"):
            verify_uniqueness(spec, shallow)

    def test_one_rollout_per_pair(self, spec3, lat7, monkeypatch):
        # u1 - u2 from x0 = 0 is the only roll a pair needs: 5 rows in all
        rows, batch_costs = [], lq._batch_costs

        def spy(*args):
            rows.append(args[-1][0].shape[0])
            return batch_costs(*args)

        monkeypatch.setattr(lq, "_batch_costs", spy)
        verify_uniqueness(spec3, lat7)
        assert sum(rows) == 5

    def test_one_pair_per_chunk_stays_under_seven_leaf_tables(self, monkeypatch):
        # a chunk of one pair, as at the MAX_PATHS cap, rolls one row:
        # u1 - u2 from x0 = 0
        q, depth = 3, 9
        spec = _random_lq_spec(np.random.default_rng([0, q, depth, 0]), depth)
        lat = lattice_for_hurst(0.7, depth, q)
        monkeypatch.setattr(lq, "_CHUNK_LEAVES", 1)
        assert traced_peak(lambda: verify_uniqueness(spec, lat)) <= 7 * 8 * lat.level_size(depth)


def traced_peak(run):
    """Peak bytes tracemalloc sees during a second call of `run`; the first
    builds the lattice's cached tables."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("q, depth", [(1, 6), (3, 5), (10, 4)])
def test_batch_costs_match_per_row_rollouts(q, depth):
    # the certificates' recursion on the LqSpec arrays, its last stage in
    # closed form, against `cost(forward(...))` of the model row by row: from
    # spec.x, and from 0 with a spec started there as the reference
    lat = lattice_for_hurst(0.7, depth, q)
    spec = _random_lq_spec(np.random.default_rng([1, q, depth, 0]), depth)
    rng = np.random.default_rng(5)
    controls = [random_control(lat, depth, rng, scale=1.5) for _ in range(6)]
    stacked = [np.stack([u[n].values for u in controls]) for n in range(depth)]
    for start, started in ((spec.x, spec), (0.0, dataclasses.replace(spec, x=0.0))):
        model = as_model(started)
        got = lq._batch_costs(spec, lat, start, stacked)
        expected = [cost(model, u, forward(model, u, lat), lat) for u in controls]
        assert got.shape == (6,)
        np.testing.assert_allclose(got, expected, rtol=0.0, atol=1e-13)
    with pytest.raises(DepthMismatch):
        lq._batch_costs(spec, lat, spec.x, stacked[:-1])


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
        return spec, lq_fixed_point(spec, lat).control, lat

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
        monkeypatch.setattr(lq, "_SUFFICIENCY_TRIALS", t + 1)
        self.check_sufficiency(
            verify_sufficiency(spec, u_star, lat, seed=3),
            gaps[: t + 1], slacks[: t + 1],
        )
        # 2 leaf tables per chunk: 2, 2 and 1 pairs of one rollout each
        monkeypatch.setattr(lq, "_CHUNK_LEAVES", 2 * lat.level_size(spec.horizon))
        self.check_uniqueness(verify_uniqueness(spec, lat, seed=3),
                              reference_uniqueness(spec, lat, seed=3))

    def test_one_row_per_chunk_builds_no_leaf_state(self, monkeypatch):
        # one row per chunk, as at the MAX_PATHS cap: the last stage is read
        # off level N-1, so a pass holds its draws and a few level-(N-1)
        # tables; building X_N took 2.39 and 2.57 leaf tables
        q, depth = 10, 5
        spec = _random_lq_spec(np.random.default_rng([0, q, depth, 0]), depth)
        lat = lattice_for_hurst(0.7, depth, q)
        u_star = lq_fixed_point(spec, lat).control
        leaf = 8 * lat.level_size(depth)
        monkeypatch.setattr(lq, "_CHUNK_LEAVES", 1)
        assert traced_peak(lambda: verify_sufficiency(spec, u_star, lat)) <= 1.3 * leaf
        assert traced_peak(lambda: verify_uniqueness(spec, lat)) <= 1.5 * leaf

    def test_closed_last_stage_drops_its_level_tables(self, monkeypatch):
        # at q = 3 a level-(N-1) table is a third of a leaf: the terminal
        # term is `_product` of the stage factor (c0, c1), built once drift
        # and vol are freed (2.57 and 3.54 leaves; 3.24 and 4.21 with them)
        q, depth = 3, 9
        spec = _random_lq_spec(np.random.default_rng([0, q, depth, 0]), depth)
        lat = lattice_for_hurst(0.7, depth, q)
        u_star = lq_fixed_point(spec, lat).control
        leaf = 8 * lat.level_size(depth)
        monkeypatch.setattr(lq, "_CHUNK_LEAVES", 1)
        assert traced_peak(lambda: verify_sufficiency(spec, u_star, lat)) <= 2.7 * leaf
        assert traced_peak(lambda: verify_uniqueness(spec, lat)) <= 3.7 * leaf

    def test_candidate_on_another_lattice(self, spec3, lat7):
        other = lattice_for_hurst(0.7, depth=3, order=3)
        sol = lq_fixed_point(spec3, other)
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
