"""Every walk over child blocks gives the same results at any block budget.

`lattice._blocks` reads `_BLOCK_LEAVES` per call.  A budget of 7 entries
cuts every table into blocks of one or two parents, the last one ragged
where the parent count is odd, so each result below is computed at that
budget and at the default one and compared.  The walks that write tables
column by column (states, variations, the residual R_n, the LQ states)
are compared byte for byte.  J is compared to 4 ulps: the phi(X_N) pass
contracts each block by a BLAS matrix-vector product, whose rounding of a
row can depend on how many rows the call gets (one-row calls differ at
q = 4 here), so a J or a trial J of `optimize` may move in its last bit.
"""

import numpy as np
import pytest

from fgncontrol import lattice, lq
from fgncontrol.bsde import DriverSpec, solve_bsde
from fgncontrol.dynamics import (
    Box,
    constant_control,
    cost,
    double_well_model,
    forward,
    random_control,
    Unconstrained,
    sin_drift_model,
    variation,
)
from fgncontrol.lattice import lattice_for_hurst
from fgncontrol.selftest import _random_lq_spec
from fgncontrol.smp import optimize

SMALL = 7


def _at_both_budgets(monkeypatch, compute):
    """compute() at the default budget and at SMALL: (tables, costs) pairs whose
    tables are equal and whose costs agree to 4 ulps."""
    tables, costs = compute()
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "_BLOCK_LEAVES", SMALL)
        small_tables, small_costs = compute()
    assert small_tables == tables
    np.testing.assert_array_max_ulp(np.array(small_costs), np.array(costs), maxulp=4)


@pytest.fixture(scope="module")
def lat():
    return lattice_for_hurst(0.7, depth=6, order=3)


def test_the_budget_is_read_per_call(lat, monkeypatch):
    table = np.arange(float(lat.level_size(6)))
    assert len(list(lattice._blocks(lat, table))) == 1
    monkeypatch.setattr(lattice, "_BLOCK_LEAVES", SMALL)
    parts = [part for part, _ in lattice._blocks(lat, table)]
    assert len(parts) == 122 and parts[-1] == slice(242, 243)


def test_forward_variation_and_cost(lat, monkeypatch):
    model = sin_drift_model(6, initial_state=0.8, noise_gain=0.6)
    rng = np.random.default_rng(21)
    u, v = random_control(lat, 6, rng, scale=0.7), random_control(lat, 6, rng)

    def compute():
        x = forward(model, u, lat)
        var = variation(model, u, x, v, lat)
        return [s.values.tobytes() for s in (*x, *var)], [cost(model, u, x, lat)]

    _at_both_budgets(monkeypatch, compute)


def test_solve_bsde_with_a_stage_n_noise_term(lat, monkeypatch):
    terminal = lat.from_values(6, np.cos(np.arange(lat.level_size(6))))
    driver = DriverSpec(
        6, terminal,
        f=lambda s, y, z: 0.1 + 0.3 * y.values + (0.2 * z.values if s < 6 else 0.0),
        g=lambda s, y, z: 0.4 * y.values - 0.1,
    )

    def compute():
        sol = solve_bsde(driver, lat)
        return [[s.values.tobytes() for s in part] for part in (sol.y, sol.z, sol.r)], []

    _at_both_budgets(monkeypatch, compute)


@pytest.mark.parametrize("rows", [1, 4])
def test_lq_batch_costs_of_stacked_rows(lat, monkeypatch, rows):
    spec = _random_lq_spec(np.random.default_rng([0, 3, 6, 0]), 6)
    controls = lq._draw(lat, 6, np.random.default_rng(22), rows)

    def compute():
        # J here is contracted whole, stage by stage: only the states walk the blocks
        return lq._batch_costs(spec, lat, spec.x, controls).tobytes(), []

    _at_both_budgets(monkeypatch, compute)


@pytest.mark.parametrize("q, horizon", [(3, 6), (4, 5)])
@pytest.mark.parametrize("control_set", [Unconstrained(), Box(-0.15, 0.15)], ids=["free", "box"])
def test_optimize(monkeypatch, q, horizon, control_set):
    # the double well (x^2 - 1)^2 / 4 from x0 = 0.3 takes several Newton
    # iterations: 7 at (3, 6) and the cap of 12 at (4, 5) without the box
    lat = lattice_for_hurst(0.7, depth=horizon, order=q)
    model = double_well_model(horizon, initial_state=0.3, noise_gain=0.5, control_set=control_set)

    def compute():
        result = optimize(model, constant_control(lat, horizon, 0.0), lat, max_iter=12)
        tables = [s.values.tobytes() for s in (*result.control, *result.state, *result.adjoint.y)]
        steps = [(t.iteration, t.step, t.worst_residual) for t in result.trace]
        return (tables, steps, result.converged), [result.cost, *(t.cost for t in result.trace)]

    _at_both_budgets(monkeypatch, compute)
