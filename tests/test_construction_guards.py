"""Construction invariants and solver guards that no valid input trips.

Each test builds the one faulty object or trial that reaches its raise
and asserts the class and the whole message.
"""

import dataclasses
import re

import numpy as np
import pytest

from fgncontrol import smp
from fgncontrol.bsde import DriverSpec
from fgncontrol.dynamics import (
    Box,
    ControlProcess,
    ModelSpec,
    StateProcess,
    constant_control,
    forward,
    random_control,
    sin_drift_model,
)
from fgncontrol.errors import (
    DepthMismatch,
    DerivativeMismatch,
    DualityMismatch,
    InvalidSpec,
    NonFiniteValue,
    NotSymmetric,
    OutOfControlSet,
)
from fgncontrol.lattice import NoiseLattice, QuadratureRule, lattice_for_hurst, sample_paths
from fgncontrol.lq import LqSpec
from fgncontrol.noise import CovarianceSpec, fgn_covariance
from test_smp import quadratic_noise_model

N = 3


@pytest.fixture(scope="module")
def lat():
    return lattice_for_hurst(0.7, depth=N, order=3)


def exactly(message: str) -> str:
    return f"^{re.escape(message)}$"


def test_duality_mismatch_names_both_routes(lat, monkeypatch):
    # the two routes agree for any stated derivatives, so shift the adjoint
    # route's rho_0 by 1e-6: its derivative along v = 1 moves by 1e-6
    gradient = smp._gradient

    def shifted(*args):
        rho = gradient(*args)
        return smp.SmpResidual((rho[0] + 1e-6, *rho[1:]))

    monkeypatch.setattr(smp, "_gradient", shifted)
    model = sin_drift_model(N, noise_gain=0.5)
    u, v = constant_control(lat, N, 0.2), constant_control(lat, N, 1.0)
    primal, dual = smp._derivative_routes(model, u, v, lat)
    message = (
        f"variation route {primal!r} vs adjoint route {dual!r} "
        f"differ by {abs(primal - dual):.3e}"
    )
    with pytest.raises(DualityMismatch, match=exactly(message)):
        smp.directional_derivative(model, u, v, lat)


@pytest.mark.parametrize("box", [False, True], ids=["free", "box"])
def test_rollout_rejects_a_nan_step(lat, box):
    model = sin_drift_model(N, noise_gain=0.5, control_set=Box(-0.5, 0.5) if box else None)
    u = constant_control(lat, N, 0.0)
    x = forward(model, u, lat)
    gains = [(np.ones(lat.level_size(n)), 0.0) for n in range(N)]
    message = f"stage 0 control leaves {model.control_set!r}"
    with pytest.raises(OutOfControlSet, match=exactly(message)):
        smp._rollout(model, [s.values for s in u], [s.values for s in x], gains, np.nan, lat)


# Each public entry that takes a count: (name of the count, build on `lat`
# with the count, read the stored count back).
COUNTS = {
    "NoiseLattice": ("depth", lambda lat, k: NoiseLattice(k, lat.rule, lat.basis),
                     lambda out: out.depth),
    "lattice_for_hurst": ("depth", lambda lat, k: lattice_for_hurst(0.7, k, 3),
                          lambda out: out.depth),
    "fgn_covariance": ("size", lambda lat, k: fgn_covariance(0.7, k), lambda out: out.size),
    "sample_paths.horizon": ("horizon", lambda lat, k: sample_paths(lat.basis, k, 2, seed=0),
                             lambda out: out.xi.shape[1]),
    "sample_paths.count": ("count", lambda lat, k: sample_paths(lat.basis, 2, k, seed=0),
                           lambda out: out.xi.shape[0]),
    "ModelSpec": ("horizon", lambda lat, k: dataclasses.replace(sin_drift_model(N), horizon=k),
                  lambda out: out.horizon),
    "sin_drift_model": ("horizon", lambda lat, k: sin_drift_model(k), lambda out: out.horizon),
    "LqSpec": ("horizon", lambda lat, k: LqSpec(k, *[[0.5] * N] * 6, G=1.0, x=1.0),
               lambda out: out.horizon),
    "DriverSpec": ("horizon", lambda lat, k: DriverSpec(k, lat.constant(1.0, N), f=None, g=None),
                   lambda out: out.horizon),
    "constant_control": ("horizon", lambda lat, k: constant_control(lat, k, 0.0),
                         lambda out: out.horizon),
    "random_control": ("horizon", lambda lat, k: random_control(lat, k, np.random.default_rng(0)),
                       lambda out: out.horizon),
}


class TestCounts:
    """Every count goes through `noise._count`: an int or numpy integer >= 1,
    stored as an int; anything else raises InvalidSpec at construction."""

    @pytest.mark.parametrize("entry", list(COUNTS))
    @pytest.mark.parametrize("value", [True, 2.0, np.float64(2.0), 0], ids=repr)
    def test_rejected(self, lat, entry, value):
        name, build, _ = COUNTS[entry]
        if value == 0:
            message = f"{name} must be >= 1, got 0"
        else:
            message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(InvalidSpec, match=exactly(message)):
            build(lat, value)

    @pytest.mark.parametrize("entry", list(COUNTS))
    def test_numpy_integer_stored_as_int(self, lat, entry):
        _, build, stored = COUNTS[entry]
        out = stored(build(lat, np.int64(N)))
        assert type(out) is int and out == N


class TestModelSpec:
    def test_horizon_below_one(self):
        with pytest.raises(ValueError, match=exactly("horizon must be >= 1, got 0")):
            sin_drift_model(0)

    @pytest.mark.parametrize("gain", [np.nan, np.inf])
    def test_non_finite_noise_gain(self, gain):
        # a NaN gain used to surface as a nonvanishing sigma at stage N
        with pytest.raises(ValueError, match=exactly(f"noise_gain must be finite, got {gain}")):
            sin_drift_model(N, noise_gain=gain)

    @pytest.mark.parametrize("x0", [np.nan, np.inf])
    def test_non_finite_initial_state(self, x0):
        with pytest.raises(NonFiniteValue, match=exactly("initial state must be finite")):
            sin_drift_model(N, initial_state=x0)


def left_at_default(model, *names):
    """`model` built again with the named second derivatives left out, so at their default 0."""
    fields = dataclasses.fields(model)
    return ModelSpec(**{f.name: getattr(model, f.name) for f in fields if f.name not in names})


# Each model states or leaves out one second derivative wrongly: (model, the
# derivative the guard names, its stage).
SECOND_DERIVATIVES = {
    "b_xx-wrong": (
        lambda: dataclasses.replace(sin_drift_model(N), b_xx=lambda n, x, u: np.sin(x)),
        "b_xx", 0,
    ),
    "b_xx-default": (lambda: left_at_default(sin_drift_model(N), "b_xx"), "b_xx", 0),
    "sigma_uu-default": (
        lambda: left_at_default(quadratic_noise_model(N), "sigma_uu"), "sigma_uu", 0,
    ),
    "l_xu-default": (
        lambda: dataclasses.replace(
            sin_drift_model(N),
            l=lambda n, x, u: 0.5 * u**2 + 0.1 * x * u,
            l_x=lambda n, x, u: 0.1 * u,
            l_u=lambda n, x, u: u + 0.1 * x,
        ),
        "l_xu", 0,
    ),
    "phi_xx-wrong": (
        lambda: dataclasses.replace(sin_drift_model(N), phi_xx=lambda x: 2.0), "phi_xx", N,
    ),
}


@pytest.mark.parametrize("case", list(SECOND_DERIVATIVES))
def test_second_derivative_mismatch_is_named(case):
    build, name, stage = SECOND_DERIVATIVES[case]
    message = f"{name} disagrees with finite differences at stage {stage}"
    with pytest.raises(DerivativeMismatch, match=exactly(message)):
        build()


class TestStagedProcess:
    ONE_LATTICE = "all stages must be AdaptedValue on one lattice"

    def test_no_stage(self):
        with pytest.raises(ValueError, match=exactly("process needs at least one stage")):
            ControlProcess([])

    def test_stage_on_another_lattice(self, lat):
        other = lattice_for_hurst(0.7, depth=N, order=3)
        with pytest.raises(ValueError, match=exactly(self.ONE_LATTICE)):
            ControlProcess([lat.constant(0.0, 0), other.constant(0.0, 1)])

    def test_stage_not_an_adapted_value(self, lat):
        with pytest.raises(ValueError, match=exactly(self.ONE_LATTICE)):
            StateProcess([lat.constant(0.0, 0), np.zeros(3)])

    def test_stage_at_another_level(self, lat):
        with pytest.raises(ValueError, match=exactly("stage 1 must sit at level 1, got 2")):
            ControlProcess([lat.constant(0.0, 0), lat.constant(0.0, 2)])


class TestDriverSpec:
    def test_horizon_below_one(self, lat):
        with pytest.raises(ValueError, match=exactly("horizon must be >= 1, got 0")):
            DriverSpec(0, lat.constant(1.0, 0), f=lambda s, y, z: 0.0, g=lambda s, y, z: 0.0)

    def test_terminal_at_another_level(self, lat):
        with pytest.raises(DepthMismatch, match=exactly("terminal data at level 2, expected 3")):
            DriverSpec(N, lat.constant(1.0, 2), f=lambda s, y, z: 0.0, g=lambda s, y, z: 0.0)


def test_lattice_depth_below_one(lat):
    with pytest.raises(ValueError, match=exactly("depth must be >= 1, got 0")):
        NoiseLattice(0, lat.rule, lat.basis)


@pytest.mark.parametrize("nodes, weights", [([0.0, 1.0], [1.0]), ([0.0], [0.5, 0.5])])
def test_quadrature_rule_lengths(nodes, weights):
    with pytest.raises(ValueError, match=exactly("nodes and weights must both have length q")):
        QuadratureRule(1, nodes, weights)


def test_covariance_spec_shape():
    with pytest.raises(NotSymmetric, match=exactly("covariance must be 2x2, got shape (2, 3)")):
        CovarianceSpec(2, np.zeros((2, 3)))
