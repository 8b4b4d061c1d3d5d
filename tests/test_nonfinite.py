"""Each finiteness guard on the solver paths raises NonFiniteValue, naming
the stage or level where the values overflowed; `ModelSpec`'s guard raises
InvalidSpec, naming the coefficient that is not finite at a spot point.

The models are finite at `ModelSpec`'s spot points and blow up only where
the state goes, so they pass its guards; overflow warnings are silenced so
that the guard, not numpy, reports the fault.
"""

import json

import numpy as np
import pytest

from fgncontrol.bsde import DriverSpec, solve_bsde
from fgncontrol.dynamics import (
    ModelSpec,
    StateProcess,
    constant_control,
    cost,
    forward,
    variation,
)
from fgncontrol.cli import main
from fgncontrol.errors import NonFiniteValue
from fgncontrol.lattice import lattice_for_hurst
from fgncontrol.lq import LqSpec, verify_uniqueness

N = 3


@pytest.fixture(scope="module")
def lat():
    return lattice_for_hurst(0.7, depth=N, order=3)


def model(b=None, b_x=None, b_u=None, l=None, phi=None, phi_x=None, phi_xx=None, x0=0.0):
    """A model on N stages with noise 0.5 u and, unless replaced, zero drift,
    running cost u^2 / 2 and terminal cost x^2 / 2.  A replaced drift or
    running cost states no second derivative."""
    zero = lambda n, x, u: 0.0
    return ModelSpec(
        horizon=N, initial_state=x0,
        b=b or zero, b_x=b_x or zero, b_u=b_u or zero,
        sigma=lambda n, x, u: 0.5 * u, sigma_x=zero, sigma_u=lambda n, x, u: 0.5,
        l=l or (lambda n, x, u: 0.5 * u**2), l_x=zero,
        l_u=zero if l else (lambda n, x, u: u),
        l_uu=zero if l else (lambda n, x, u: 1.0),
        phi=phi or (lambda x: 0.5 * x**2), phi_x=phi_x or (lambda x: x),
        phi_xx=phi_xx or (lambda x: 1.0),
    )


def test_scalar_coefficient(lat):
    # b = u exp(max X_n / 10): the gain the largest state of the stage sets,
    # a 0-d scalar; it overflows where that state passes 7100
    gain = lambda n, x, u: np.exp(np.max(x) / 10.0)
    m = model(b=lambda n, x, u: u * gain(n, x, u), b_u=gain)
    x_star = StateProcess(lat.constant(8000.0 if n == 2 else 1.0, n) for n in range(N + 1))
    u, v = constant_control(lat, N, 0.0), constant_control(lat, N, 1.0)
    message = "^coefficient produced non-finite values at level 2$"
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match=message):
            variation(m, u, x_star, v, lat)


def test_state_step(lat):
    # b = x doubles the state: 6e307, 1.2e308, then past the largest float
    m = model(b=lambda n, x, u: x, b_x=lambda n, x, u: 1.0, x0=6e307)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="^state became non-finite at stage 2$"):
            forward(m, constant_control(lat, N, 0.0), lat)


def test_terminal_cost_by_blocks(lat):
    # phi = exp(7.1 x^2) overflows past |x| > 10; b = 4 takes X_3 to 12
    m = model(
        b=lambda n, x, u: 4.0,
        phi=lambda x: np.exp(7.1 * x**2),
        phi_x=lambda x: 14.2 * x * np.exp(7.1 * x**2),
        phi_xx=lambda x: (14.2 + 14.2**2 * x**2) * np.exp(7.1 * x**2),
    )
    u = constant_control(lat, N, 0.0)
    x = forward(m, u, lat)
    message = f"^coefficient produced non-finite values at level {N}$"
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match=message):
            cost(m, u, x, lat)


def test_total_cost(lat):
    # every running cost table is finite, their sum is not
    m = model(l=lambda n, x, u: 0.9e308)
    u = constant_control(lat, N, 0.0)
    x = forward(m, u, lat)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match="^cost became non-finite at stage 1$"):
            cost(m, u, x, lat)


def test_variation(lat):
    # b = 1e200 x keeps X = 0 under u = 0, but b_x = 1e200 grows V, which
    # the noise 0.5 v starts, 1e200-fold a stage
    m = model(b=lambda n, x, u: 1e200 * x, b_x=lambda n, x, u: 1e200)
    u = constant_control(lat, N, 0.0)
    with np.errstate(over="ignore"):
        with pytest.raises(NonFiniteValue, match=f"^variation became non-finite at stage {N}$"):
            variation(m, u, forward(m, u, lat), constant_control(lat, N, 1.0), lat)


def test_backward_value(lat):
    # f = 1e200 y: Y_2 = 1e200, and Y_1 past the largest float
    driver = DriverSpec(
        horizon=N, terminal=lat.constant(1.0, N),
        f=lambda s, y, z: 1e200 * y.values, g=lambda s, y, z: 0.0,
    )
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue, match="^Y_1 is non-finite$"):
            solve_bsde(driver, lat)


def test_lq_certificate_state():
    # A_1 = A_2 = 1e200: X_2 ~ 1e200 u_0 from x = 0, X_3 past the largest float
    spec = LqSpec(horizon=4, A=[0.0, 1e200, 1e200, 0.0], B=[1.0] * 4, C=[0.0] * 4,
                  D=[0.0] * 4, Q=[0.0] * 4, R=[1.0] * 4, G=1.0, x=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteValue, match="^state became non-finite at stage 3$"):
            verify_uniqueness(spec, lattice_for_hurst(0.7, depth=4, order=3))


def test_bsde_config_terminal(tmp_path, capsys):
    # constant 1.5e308 is finite at stage 1; 1e308 xi_1 takes it past the
    # largest float at stage 2, so the config fails at load, before the
    # solver; the message names the file, and numpy prints no warning
    zero = dict.fromkeys(("f_constant", "f_y", "f_z", "g_constant", "g_y", "g_z"), 0.0)
    config = {
        "horizon": 2, "hurst": 0.7, "quadrature_order": 3,
        "terminal": {"constant": 1.5e308, "noise_coefficients": [0.0, 1e308]},
        "driver": [zero, zero],
    }
    path = tmp_path / "bsde.json"
    path.write_text(json.dumps(config))
    code = main(["solve-bsde", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {path}: terminal became non-finite at stage 2\n"


def test_model_config_coefficient(tmp_path, capsys):
    # sigma = c u with c = 1e308 overflows at the guard's spot points: the
    # guard names sigma, not the derivative whose difference it spoils, and
    # numpy prints no warning
    config = {
        "horizon": 3, "initial_state": 1e308, "hurst": 0.7, "quadrature_order": 3,
        "control_set": "unconstrained", "model": {"type": "sin_drift", "c": 1e308},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(config))
    code = main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2
    message = f"error: {path}: sigma is not finite at a spot point of stage 0\n"
    assert capsys.readouterr().err == message
