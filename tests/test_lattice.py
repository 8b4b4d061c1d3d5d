"""Quadrature lattice, adapted values, conditional expectations.

Moment identities are checked against explicitly enumerated paths
(nested loops over node tuples with weight products), which never touch
the contraction-based condexp implementation.
"""

import itertools
import math

import numpy as np
import pytest

from fgncontrol.errors import (
    DepthMismatch,
    IndexOutOfRange,
    LatticeTooLarge,
    LevelMismatch,
    UnsupportedOrder,
)
from fgncontrol.lattice import (
    AdaptedValue,
    NoiseLattice,
    condexp,
    expectation,
    gauss_hermite,
    lattice_for_hurst,
    noise_conditional_mean,
    noise_value,
    sample_paths,
    white_value,
    _moments,
)
from fgncontrol.noise import fgn_covariance, whiten


def normal_moment(k: int) -> float:
    """k-th moment of the standard normal: (k-1)!! for even k, 0 for odd."""
    if k % 2 == 1:
        return 0.0
    return float(math.prod(range(k - 1, 0, -2))) if k > 0 else 1.0


def enumerate_expectation(lat, value: AdaptedValue) -> float:
    """E[value] by explicit summation over all level paths."""
    q = lat.rule.q
    w = lat.rule.weights
    total = 0.0
    for path in itertools.product(range(q), repeat=value.level):
        idx = 0
        prob = 1.0
        for digit in path:
            idx = idx * q + digit
            prob *= w[digit]
        total += prob * value.values[idx]
    return total


@pytest.fixture(scope="module")
def lat_h07():
    return lattice_for_hurst(0.7, depth=3, order=3)


class TestGaussHermite:
    def test_order_one(self):
        rule = gauss_hermite(1)
        assert np.array_equal(rule.nodes, [0.0])
        assert np.array_equal(rule.weights, [1.0])

    def test_order_two(self):
        rule = gauss_hermite(2)
        assert rule.nodes == pytest.approx([-1.0, 1.0], abs=1e-14)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_order_three(self):
        rule = gauss_hermite(3)
        root3 = math.sqrt(3.0)
        assert rule.nodes == pytest.approx([-root3, 0.0, root3], abs=1e-14)
        assert rule.weights == pytest.approx([1 / 6, 2 / 3, 1 / 6], abs=1e-14)

    @pytest.mark.parametrize("q", range(1, 17))
    def test_moments_exact_up_to_degree(self, q):
        rule = gauss_hermite(q)
        for k in range(2 * q):
            approx = float(rule.weights @ rule.nodes**k)
            exact = normal_moment(k)
            # odd moments cancel huge terms, so scale by the absolute sum
            scale = max(1.0, float(rule.weights @ np.abs(rule.nodes) ** k))
            assert abs(approx - exact) <= 1e-12 * scale, f"q={q}, moment {k}"

    @pytest.mark.parametrize("q", [0, -1, 17, 100])
    def test_rejects_out_of_range_order(self, q):
        with pytest.raises(UnsupportedOrder):
            gauss_hermite(q)

    def test_rejects_non_integer(self):
        with pytest.raises(UnsupportedOrder):
            gauss_hermite(2.5)


class TestLatticeConstruction:
    def test_depth_must_fit_basis(self):
        basis = whiten(fgn_covariance(0.7, 2))
        with pytest.raises(DepthMismatch):
            NoiseLattice(3, gauss_hermite(2), basis)

    def test_path_cap(self):
        basis = whiten(fgn_covariance(0.7, 9))
        with pytest.raises(LatticeTooLarge):
            NoiseLattice(9, gauss_hermite(8), basis)  # 8^9 > 1e7

    def test_probabilities_sum_to_one(self):
        # every (q, depth) pair under the path cap
        for q in range(1, 9):
            for depth in range(1, 9):
                if q**depth > 10**7:
                    continue
                lat = lattice_for_hurst(0.6, depth=depth, order=q)
                assert abs(np.sum(lat.node_probabilities(depth)) - 1.0) <= 1e-12, (
                    f"q={q}, depth={depth}"
                )

    def test_level_sizes(self, lat_h07):
        assert [lat_h07.level_size(n) for n in range(4)] == [1, 3, 9, 27]
        with pytest.raises(LevelMismatch):
            lat_h07.level_size(4)


class TestAdaptedValue:
    def test_wrong_length_rejected(self, lat_h07):
        with pytest.raises(LevelMismatch):
            AdaptedValue(lat_h07, 1, np.zeros(4))

    def test_immutable(self, lat_h07):
        v = lat_h07.constant(1.0, 1)
        with pytest.raises(AttributeError):
            v.level = 2
        with pytest.raises(ValueError):
            v.values[0] = 5.0

    def test_lift_repeats_values(self, lat_h07):
        v = AdaptedValue(lat_h07, 1, [1.0, 2.0, 3.0])
        lifted = v.at_level(2)
        assert np.array_equal(lifted.values, np.repeat([1.0, 2.0, 3.0], 3))

    def test_lift_then_condexp_is_identity(self, lat_h07):
        v = AdaptedValue(lat_h07, 1, [1.0, -2.0, 0.5])
        back = condexp(v.at_level(3), 1)
        assert np.allclose(back.values, v.values, atol=1e-14)

    def test_cannot_lower_level_by_lift(self, lat_h07):
        with pytest.raises(LevelMismatch):
            lat_h07.constant(1.0, 2).at_level(1)

    @pytest.mark.parametrize(
        "levels", [(1, 2), (0, 3), (1, 3), (3, 1)], ids=lambda lv: f"{lv[0]}-{lv[1]}"
    )
    @pytest.mark.parametrize(
        "method, expected",
        [
            ("__add__", np.add),
            ("__sub__", np.subtract),
            ("__rsub__", lambda a, b: b - a),
            ("__mul__", np.multiply),
            ("__truediv__", np.divide),
        ],
        ids=["add", "sub", "rsub", "mul", "div"],
    )
    def test_arithmetic_lifts_to_finer_level(self, lat_h07, levels, method, expected):
        rng = np.random.default_rng(5)
        v1, v2 = (AdaptedValue(lat_h07, n, 1.0 + rng.random(3**n)) for n in levels)
        out = getattr(v1, method)(v2)
        top = max(levels)
        assert out.level == top
        assert np.array_equal(out.values, expected(v1.at_level(top).values, v2.at_level(top).values))

    def test_scalar_ops(self, lat_h07):
        v = AdaptedValue(lat_h07, 1, [1.0, 2.0, 3.0])
        assert np.array_equal((2.0 * v - 1.0).values, [1.0, 3.0, 5.0])
        assert np.array_equal((v / 2.0).values, [0.5, 1.0, 1.5])
        assert np.array_equal((-v).values, [-1.0, -2.0, -3.0])

    def test_cross_lattice_rejected(self, lat_h07):
        other = lattice_for_hurst(0.7, depth=3, order=3)
        with pytest.raises(LevelMismatch):
            lat_h07.constant(1.0, 1) + other.constant(1.0, 1)

    def test_writeable_input_is_copied(self, lat_h07):
        raw = np.array([1.0, 2.0, 3.0])
        v = AdaptedValue(lat_h07, 1, raw)
        raw[0] = 9.0
        assert np.array_equal(v.values, [1.0, 2.0, 3.0])
        assert not np.shares_memory(v.values, raw)

    def test_read_only_view_of_writeable_base_is_copied(self, lat_h07):
        base = np.array([1.0, 2.0, 3.0, 4.0])
        view = base[:3]
        view.setflags(write=False)
        v = AdaptedValue(lat_h07, 1, view)
        base[0] = 9.0
        assert np.array_equal(v.values, [1.0, 2.0, 3.0])

    def test_from_values_leaves_caller_array_writeable(self, lat_h07):
        raw = np.arange(9.0)
        lat_h07.from_values(2, raw)
        assert raw.flags.writeable
        raw[0] = 5.0

    def test_frozen_input_is_shared(self, lat_h07):
        table = np.random.default_rng(0).standard_normal((3, 3))
        table.setflags(write=False)
        v = AdaptedValue(lat_h07, 2, table)
        assert np.shares_memory(v.values, table)
        assert not v.values.flags.writeable

    @pytest.mark.parametrize("dtype", [np.float32, ">f8"])
    def test_frozen_input_of_other_dtype_is_copied(self, lat_h07, dtype):
        table = np.arange(3.0).astype(dtype)
        table.setflags(write=False)
        v = AdaptedValue(lat_h07, 1, table)
        assert v.values.dtype == np.float64
        assert not np.shares_memory(v.values, table)


class TestConditionalExpectation:
    def test_moments_match_per_block_sums(self, lat_h07):
        table = np.random.default_rng(2).standard_normal(27)
        nodes, weights = lat_h07.rule.nodes, lat_h07.rule.weights
        got = _moments(lat_h07, table, 3)
        for j, moment in enumerate(got):
            want = [
                sum(weights[i] * nodes[i] ** j * block[i] for i in range(3))
                for block in table.reshape(9, 3)
            ]
            np.testing.assert_allclose(moment, want, rtol=0.0, atol=1e-14)
        assert np.array_equal(got[0], condexp(lat_h07.from_values(3, table), 2).values)

    def test_white_mean_zero(self, lat_h07):
        for n in range(3):
            assert np.allclose(condexp(white_value(lat_h07, n), n).values, 0.0, atol=1e-14)

    def test_white_second_moment_one(self, lat_h07):
        eta = white_value(lat_h07, 1)
        assert np.allclose(condexp(eta * eta, 1).values, 1.0, atol=1e-13)

    def test_tower_property(self, lat_h07):
        rng = np.random.default_rng(7)
        v = AdaptedValue(lat_h07, 3, rng.standard_normal(27))
        direct = condexp(v, 1)
        two_step = condexp(condexp(v, 2), 1)
        assert np.max(np.abs(direct.values - two_step.values)) <= 1e-12

    def test_linearity(self, lat_h07):
        rng = np.random.default_rng(11)
        u = AdaptedValue(lat_h07, 3, rng.standard_normal(27))
        v = AdaptedValue(lat_h07, 3, rng.standard_normal(27))
        lhs = condexp(2.5 * u - 0.75 * v, 1)
        rhs = 2.5 * condexp(u, 1) - 0.75 * condexp(v, 1)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_taking_out_known_factor(self, lat_h07):
        rng = np.random.default_rng(13)
        known = AdaptedValue(lat_h07, 1, rng.standard_normal(3))
        v = AdaptedValue(lat_h07, 3, rng.standard_normal(27))
        lhs = condexp(known * v, 1)
        rhs = known * condexp(v, 1)
        assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_matches_path_enumeration(self, lat_h07):
        rng = np.random.default_rng(17)
        v = AdaptedValue(lat_h07, 3, rng.standard_normal(27))
        assert expectation(v) == pytest.approx(
            enumerate_expectation(lat_h07, v), abs=1e-13
        )

    def test_level_bounds(self, lat_h07):
        v = lat_h07.constant(1.0, 1)
        with pytest.raises(LevelMismatch):
            condexp(v, 2)
        with pytest.raises(LevelMismatch):
            condexp(v, -1)


class TestNoiseValues:
    def test_white_case_noise_equals_eta(self):
        lat = lattice_for_hurst(0.5, depth=3, order=3)
        for n in range(3):
            xi = noise_value(lat, n)
            eta = white_value(lat, n)
            assert np.max(np.abs(xi.values - eta.values)) <= 1e-12

    def test_noise_mixes_past_whites(self, lat_h07):
        b = lat_h07.basis.b_mat
        xi1 = noise_value(lat_h07, 1)
        expected = b[1, 0] * white_value(lat_h07, 0).at_level(2) + b[1, 1] * white_value(
            lat_h07, 1
        )
        assert np.allclose(xi1.values, expected.values, atol=1e-14)

    @pytest.mark.parametrize(
        "h, q, depth",
        [
            pytest.param(0.3, 2, 3, id="0.3"),
            pytest.param(0.7, 2, 3, id="0.7"),
            pytest.param(0.3, 3, 6, id="0.3-q3-depth6"),
            pytest.param(0.7, 3, 6, id="0.7-q3-depth6"),
            pytest.param(0.3, 5, 5, id="0.3-q5-depth5"),
            pytest.param(0.7, 5, 5, id="0.7-q5-depth5"),
        ],
    )
    def test_noise_covariance_matches_sigma(self, h, q, depth):
        lat = lattice_for_hurst(h, depth=depth, order=q)
        sigma = fgn_covariance(h, depth).sigma
        for n in range(depth):
            for m in range(depth):
                prod = noise_value(lat, n) * noise_value(lat, m)
                assert expectation(prod) == pytest.approx(sigma[n][m], abs=1e-12), (
                    f"(n,m)=({n},{m})"
                )

    @pytest.mark.parametrize(
        "q, depth", [(3, 3), (3, 6), (5, 5)], ids=["q3-depth3", "q3-depth6", "q5-depth5"]
    )
    def test_conditional_mean_of_noise(self, q, depth):
        # three oracles: c-mix of past increments, b-mix of past whites,
        # and direct condexp
        lat = lattice_for_hurst(0.7, depth=depth, order=q)
        b, c = lat.basis.b_mat, lat.basis.c_mat
        for n in range(depth):
            mean = noise_conditional_mean(lat, n)
            via_condexp = condexp(noise_value(lat, n), n)
            via_b = lat.constant(0.0, n)
            via_c = lat.constant(0.0, n)
            for k in range(n):
                via_b = via_b + b[n, k] * white_value(lat, k).at_level(n)
                via_c = via_c + c[n, k] * noise_value(lat, k).at_level(n)
            assert np.max(np.abs(mean.values - via_condexp.values)) <= 1e-12
            assert np.max(np.abs(mean.values - via_b.values)) <= 1e-12
            assert np.max(np.abs(mean.values - via_c.values)) <= 1e-12

    def test_conditional_mean_built_once_per_lattice(self, lat_h07):
        for n in range(3):
            assert noise_conditional_mean(lat_h07, n) is noise_conditional_mean(lat_h07, n)
        other = lattice_for_hurst(0.7, depth=3, order=3)
        assert noise_conditional_mean(other, 2) is not noise_conditional_mean(lat_h07, 2)

    def test_eta_xi_cross_moment_is_diagonal_entry(self, lat_h07):
        # E[eta_n xi_n | level n] = b[n,n] for q >= 2
        b = lat_h07.basis.b_mat
        for n in range(3):
            prod = white_value(lat_h07, n) * noise_value(lat_h07, n)
            got = condexp(prod, n)
            assert np.allclose(got.values, b[n, n], atol=1e-13)

    def test_stage_bounds(self, lat_h07):
        for fn in (white_value, noise_value, noise_conditional_mean):
            with pytest.raises(IndexOutOfRange):
                fn(lat_h07, 3)
            with pytest.raises(IndexOutOfRange):
                fn(lat_h07, -1)


class TestSamplePaths:
    def test_deterministic_given_seed(self):
        basis = whiten(fgn_covariance(0.7, 4))
        first = sample_paths(basis, 4, 100, seed=42)
        second = sample_paths(basis, 4, 100, seed=42)
        assert np.array_equal(first.xi, second.xi)
        assert np.array_equal(first.eta, second.eta)
        third = sample_paths(basis, 4, 100, seed=43)
        assert not np.array_equal(first.xi, third.xi)

    def test_white_basis_xi_equals_eta(self):
        basis = whiten(fgn_covariance(0.5, 4))
        draws = sample_paths(basis, 4, 50, seed=1)
        assert np.allclose(draws.xi, draws.eta, atol=1e-12)

    def test_sample_covariances(self):
        basis = whiten(fgn_covariance(0.7, 4))
        sigma = fgn_covariance(0.7, 4).sigma
        draws = sample_paths(basis, 4, 200_000, seed=2024)
        eta_cov = draws.eta.T @ draws.eta / draws.eta.shape[0]
        xi_cov = draws.xi.T @ draws.xi / draws.xi.shape[0]
        assert np.max(np.abs(eta_cov - np.eye(4))) <= 0.01
        assert np.max(np.abs(xi_cov - sigma)) <= 0.01

    def test_bad_arguments(self):
        basis = whiten(fgn_covariance(0.7, 4))
        with pytest.raises(DepthMismatch):
            sample_paths(basis, 5, 10, seed=0)
        with pytest.raises(ValueError):
            sample_paths(basis, 4, 0, seed=0)
