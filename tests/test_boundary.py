"""One boundary check for every public entry.

Each entry that takes a control, state, direction, adjoint, residual or
driver checks it once, on the way in: a process of another horizon and a
lattice shallower than the horizon raise DepthMismatch, a process built on
another lattice of the same quadrature order raises LevelMismatch, and the
message names the process (or the lattice depth).  Such a process has
tables of the right sizes, so without the check an entry reads it and
returns a number from two noises.
"""

import types

import numpy as np
import pytest

from fgncontrol.bsde import adjoint_driver, residual_orthogonality, solve_bsde
from fgncontrol.dynamics import (
    Unconstrained,
    cost,
    forward,
    perturb,
    random_control,
    sin_drift_model,
    variation,
)
from fgncontrol.errors import DepthMismatch, LevelMismatch
from fgncontrol.lattice import lattice_for_hurst
from fgncontrol.lq import LqSpec, lq_fixed_point, verify_sufficiency, verify_uniqueness
from fgncontrol.smp import SmpResidual, check_stationarity, optimize, smp_residual

N = 3
SPEC = LqSpec(
    horizon=N, A=[0.3, -0.2, 0.4], B=[1.0, 0.8, 1.2], C=[0.2, 0.3, -0.1],
    D=[0.5, 0.4, 0.6], Q=[0.6, 0.4, 0.8], R=[1.0, 1.2, 0.9], G=1.1, x=1.3,
)


def processes(lat, horizon):
    """Every process an entry takes, of `horizon` stages on `lat`."""
    model = sin_drift_model(horizon)
    u = random_control(lat, horizon, np.random.default_rng(1), scale=0.3)
    x = forward(model, u, lat)
    driver = adjoint_driver(model, u, x)
    adj = solve_bsde(driver, lat)
    return types.SimpleNamespace(
        lat=lat, model=sin_drift_model(N), spec=SPEC, u=u, x=x, driver=driver, adj=adj,
        sol=adj, v=random_control(lat, horizon, np.random.default_rng(2), scale=0.3),
        res=SmpResidual(lat.constant(0.0, n) for n in range(horizon)),
    )


@pytest.fixture(scope="module")
def kits():
    lat = lattice_for_hurst(0.7, depth=N, order=3)
    shallow = lattice_for_hurst(0.7, depth=N - 1, order=3)
    # a depth N - 1 lattice holds a control of N stages, but no state of N + 1
    on_shallow = processes(shallow, N - 1)
    on_shallow.u = random_control(shallow, N, np.random.default_rng(1), scale=0.3)
    on_shallow.v = random_control(shallow, N, np.random.default_rng(2), scale=0.3)
    on_shallow.res = SmpResidual(shallow.constant(0.0, n) for n in range(N))
    return {
        "good": processes(lat, N),
        "short": processes(lat, N - 1),
        "foreign": processes(lattice_for_hurst(0.3, depth=N, order=3), N),
        "shallow": on_shallow,
    }


ENTRIES = {
    "forward": lambda k: forward(k.model, k.u, k.lat),
    "optimize": lambda k: optimize(k.model, k.u, k.lat, max_iter=0),
    "cost": lambda k: cost(k.model, k.u, k.x, k.lat),
    "variation": lambda k: variation(k.model, k.u, k.x, k.v, k.lat),
    "perturb": lambda k: perturb(k.u, k.v, 0.5),
    "adjoint_driver": lambda k: adjoint_driver(k.model, k.u, k.x),
    "solve_bsde": lambda k: solve_bsde(k.driver, k.lat),
    "residual_orthogonality": lambda k: residual_orthogonality(k.sol, k.lat),
    "smp_residual": lambda k: smp_residual(k.model, k.u, k.adj, k.lat, k.lat.basis),
    "check_stationarity": lambda k: check_stationarity(k.res, k.u, Unconstrained(), 1e-8),
    "lq_fixed_point": lambda k: lq_fixed_point(k.spec, k.lat),
    "verify_sufficiency": lambda k: verify_sufficiency(k.spec, k.u, k.lat),
    "verify_uniqueness": lambda k: verify_uniqueness(k.spec, k.lat),
}

# (entry, the argument swapped in, the name the message gives it);
# lq_fixed_point and verify_uniqueness take no process, so only the
# shallow lattice applies to them
PROCESSES = [
    ("forward", "u", "control"),
    ("optimize", "u", "control"),
    ("cost", "u", "control"),
    ("cost", "x", "state"),
    ("variation", "u", "control"),
    ("variation", "x", "state"),
    ("variation", "v", "direction"),
    ("perturb", "v", "direction"),
    ("adjoint_driver", "u", "control"),
    ("smp_residual", "u", "control"),
    ("smp_residual", "adj", "adjoint"),
    ("check_stationarity", "res", "residual"),
    ("verify_sufficiency", "u", "control"),
]
# a driver or a solution sets the horizon it is checked against (and
# adjoint_driver takes its lattice from X*, so X* is never foreign to it)
FOREIGN_ONLY = [
    ("solve_bsde", "driver", "driver"),
    ("residual_orthogonality", "sol", "solution"),
]

CASES = (
    [(entry, "stage count", {arg: "short"}, DepthMismatch,
      f"{name} has {N - 1} stages, expected {N}") for entry, arg, name in PROCESSES]
    + [(entry, "shallow lattice", dict.fromkeys(("lat", "u", "v", "x", "res"), "shallow"),
        DepthMismatch, f"lattice depth {N - 1} < horizon {N}") for entry in ENTRIES]
    + [(entry, "foreign lattice", {arg: "foreign"}, LevelMismatch,
        f"{name} lives on a different lattice") for entry, arg, name in PROCESSES + FOREIGN_ONLY]
)


def call(kits, entry, swap):
    k = types.SimpleNamespace(**vars(kits["good"]))
    for arg, kit in swap.items():
        setattr(k, arg, getattr(kits[kit], arg))
    return ENTRIES[entry](k)


@pytest.mark.parametrize(
    "entry, fault, swap, error, message", CASES,
    ids=[f"{entry}-{fault}-{'-'.join(sorted(swap))}" for entry, fault, swap, *_ in CASES],
)
def test_fault_raises_at_the_boundary(kits, entry, fault, swap, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call(kits, entry, swap)


class TestDefects:
    """Inputs the entries accepted, or refused with the wrong error."""

    def test_adjoint_driver_pair_from_two_lattices(self, kits):
        # an h = 0.7 control with an h = 0.3 state made a driver of two noises
        good, foreign = kits["good"], kits["foreign"]
        with pytest.raises(LevelMismatch, match="control lives on a different lattice"):
            adjoint_driver(good.model, good.u, foreign.x)

    @pytest.mark.parametrize("arg", ["u", "x"])
    def test_variation_reference_from_another_lattice(self, kits, arg):
        # the direction was checked against `lat`, the reference pair was not
        k = types.SimpleNamespace(**vars(kits["good"]))
        setattr(k, arg, getattr(kits["foreign"], arg))
        with pytest.raises(LevelMismatch, match="lives on a different lattice"):
            variation(k.model, k.u, k.x, k.v, k.lat)

    def test_variation_control_of_another_horizon(self, kits):
        # it indexed past the control's last stage (IndexError)
        good = kits["good"]
        with pytest.raises(DepthMismatch, match=f"control has {N - 1} stages"):
            variation(good.model, kits["short"].u, good.x, good.v, good.lat)

    def test_solve_bsde_terminal_on_another_lattice(self, kits):
        # DepthMismatch, where every other lattice fault is LevelMismatch
        with pytest.raises(LevelMismatch, match="driver lives on a different lattice"):
            solve_bsde(kits["foreign"].driver, kits["good"].lat)

    def test_residual_orthogonality_of_another_order(self, kits):
        # numpy's "cannot reshape" ValueError
        other = lattice_for_hurst(0.7, depth=N, order=4)
        sol = processes(other, N).sol
        with pytest.raises(LevelMismatch, match="solution lives on a different lattice"):
            residual_orthogonality(sol, kits["good"].lat)
