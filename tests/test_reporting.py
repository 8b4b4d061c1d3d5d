"""CSV writers against references built independently with `csv.writer`.

Every reference cell is `format(x + 0.0, ".17g")` (17 significant
digits; adding 0.0 turns -0.0 into 0.0), so each test pins the exact
bytes of one writer.  The tables mix -0.0, subnormals, large magnitudes
and values that need all 17 digits.
"""

import csv
import io

import numpy as np
import pytest

from fgncontrol.bsde import BsdeSolution
from fgncontrol.dynamics import ControlProcess, random_control
from fgncontrol.lattice import SamplePaths, lattice_for_hurst
from fgncontrol.lq import LqIterationPoint
from fgncontrol.reporting import (
    read_control_csv,
    read_matrix_csv,
    write_adjoint_csv,
    write_bsde_csv,
    write_control_csv,
    write_json,
    write_lq_trace_csv,
    write_matrix_csv,
    write_optimize_trace_csv,
    write_paths_csv,
    write_residual_csv,
    write_state_csv,
)
from fgncontrol.smp import TracePoint

SPECIAL = (-0.0, 1.0 / 3.0, -1.5, 1e-310, 1e22, 0.1, -2.0 / 7.0)


def g(x):
    return format(float(x) + 0.0, ".17g")


def reference(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def read(path):
    with open(path, newline="") as fh:
        return fh.read()


@pytest.fixture(scope="module")
def lat():
    return lattice_for_hurst(0.7, depth=2, order=3)


def table(lat, level, seed):
    """A level table of random values with the SPECIAL ones at its front."""
    values = np.random.default_rng(seed).standard_normal(lat.level_size(level))
    count = min(len(SPECIAL), values.size)
    values[:count] = SPECIAL[:count]
    return values


def stages(lat, levels, seed):
    return [lat.from_values(level, table(lat, level, seed + level)) for level in levels]


def test_matrix_skips_zero_entries(tmp_path):
    mat = np.array([[1.0, 0.0, -0.0], [1.0 / 3.0, 2.5e-320, 0.0], [0.0, -1e22, 0.1]])
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, mat)
    rows = [(n, k, g(mat[n, k])) for n in range(3) for k in range(3) if mat[n, k] != 0.0]
    assert len(rows) == 5
    assert read(path) == reference(("n", "k", "value"), rows)
    assert np.array_equal(read_matrix_csv(path), mat)


def test_matrix_of_zeros_writes_header_only(tmp_path):
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, np.zeros((2, 2)))
    assert read(path) == "n,k,value\n"


def test_state(lat, tmp_path):
    values = stages(lat, (0, 1, 2), seed=1)
    path = str(tmp_path / "x.csv")
    write_state_csv(path, lat, values)
    rows = [
        (n, i, g(v), g(p))
        for n, val in enumerate(values)
        for i, (v, p) in enumerate(zip(val.values, lat.node_probabilities(val.level)))
    ]
    assert read(path) == reference(("stage", "node_index", "value", "probability"), rows)
    assert "\n0,0,0,1\n" in read(path)  # -0.0 at the root prints as 0


def test_control_round_trip_is_bit_exact(tmp_path):
    lat = lattice_for_hurst(0.7, depth=3, order=3)
    control = random_control(lat, 3, np.random.default_rng(7))
    # -0.0 is left out: the writer prints it as 0 by design
    u2 = control[2].values.copy()
    u2[:6] = SPECIAL[1:]
    control = ControlProcess([control[0], control[1], lat.from_values(2, u2)])
    path = str(tmp_path / "u.csv")
    write_control_csv(path, lat, control)
    rows = [
        (n, i, g(v), g(p))
        for n in range(3)
        for i, (v, p) in enumerate(zip(control[n].values, lat.node_probabilities(n)))
    ]
    assert read(path) == reference(("stage", "node_index", "value", "probability"), rows)
    back = read_control_csv(path, lat, 3)
    for n in range(3):
        assert back[n].values.tobytes() == control[n].values.tobytes()


def hand_solution(lat):
    """A two-stage solution whose stage-0 residual is all -0.0."""
    r0 = np.full(lat.level_size(1), -0.0)
    return BsdeSolution(
        y=tuple(stages(lat, (0, 1, 2), seed=2)),
        z=tuple(stages(lat, (0, 1), seed=3)),
        r=(lat.from_values(1, r0), lat.from_values(2, table(lat, 2, seed=4))),
    )


def test_bsde_moments_and_empty_terminal_fields(lat, tmp_path):
    sol = hand_solution(lat)
    q, nodes, weights = lat.rule.q, lat.rule.nodes, lat.rule.weights
    rows = []
    for n in range(2):
        blocks = sol.r[n].values.reshape(-1, q)
        r_mean = blocks @ weights
        r_eta = (blocks * nodes) @ weights
        rows += [
            (n, i, g(y), g(z), g(m), g(e))
            for i, (y, z, m, e) in enumerate(zip(sol.y[n].values, sol.z[n].values, r_mean, r_eta))
        ]
    rows += [(2, i, g(y), "", "", "") for i, y in enumerate(sol.y[2].values)]
    path = str(tmp_path / "s.csv")
    write_bsde_csv(path, lat, sol)
    text = read(path)
    assert text == reference(
        ("stage", "node_index", "Y", "Z", "R_mean_check", "R_eta_check"), rows
    )
    assert text.startswith("stage,node_index,Y,Z,R_mean_check,R_eta_check\n0,0,0,")
    assert ",0,0\n" in text  # the -0.0 moments of stage 0
    assert text.endswith(",,,\n") and text.count(",,,\n") == 9


def test_adjoint(lat, tmp_path):
    sol = hand_solution(lat)
    path = str(tmp_path / "a.csv")
    write_adjoint_csv(path, sol)
    rows = [
        (n, i, g(p), g(z))
        for n in range(2)
        for i, (p, z) in enumerate(zip(sol.y[n].values, sol.z[n].values))
    ]
    assert read(path) == reference(("stage", "node_index", "p", "q"), rows)


def test_residual_pass_fail_labels(lat, tmp_path):
    rho = stages(lat, (0, 1), seed=5)
    control = stages(lat, (0, 1), seed=6)
    classification = [
        (np.array([True]), np.array([-0.0])),
        (np.array([False, True, True]), np.array([2.5, 0.0, 1e-9])),
    ]
    path = str(tmp_path / "r.csv")
    write_residual_csv(path, rho, control, classification)
    rows = [
        (n, i, g(rho[n].values[i]), g(control[n].values[i]), "pass" if ok[i] else "fail", g(v[i]))
        for n, (ok, v) in enumerate(classification)
        for i in range(len(ok))
    ]
    text = read(path)
    assert text == reference(
        ("stage", "node_index", "rho", "u_star", "classification", "violation"), rows
    )
    assert [line.split(",")[4] for line in text.splitlines()[1:]] == [
        "pass", "fail", "pass", "pass"
    ]


def test_optimize_trace(tmp_path):
    trace = [TracePoint(0, 1.0 / 3.0, 0.0, 0.5), TracePoint(1, -0.0, 0.125, 1e-310)]
    path = str(tmp_path / "t.csv")
    write_optimize_trace_csv(path, trace)
    rows = [(pt.iteration, g(pt.cost), g(pt.step), g(pt.worst_residual)) for pt in trace]
    assert read(path) == reference(("iter", "J", "step", "worst_residual"), rows)
    assert "\n1,0,0.125," in read(path)


def test_lq_trace(tmp_path):
    trace = [LqIterationPoint(0, 2.0 / 3.0, -0.0), LqIterationPoint(3, 1e22, 1.5e-14)]
    path = str(tmp_path / "t.csv")
    write_lq_trace_csv(path, trace)
    rows = [(pt.iteration, g(pt.cost), g(pt.residual)) for pt in trace]
    assert read(path) == reference(("iter", "J", "residual"), rows)


def test_empty_traces_write_header_only(tmp_path):
    write_optimize_trace_csv(str(tmp_path / "o.csv"), [])
    write_lq_trace_csv(str(tmp_path / "l.csv"), [])
    assert read(str(tmp_path / "o.csv")) == "iter,J,step,worst_residual\n"
    assert read(str(tmp_path / "l.csv")) == "iter,J,residual\n"


def test_paths(tmp_path):
    eta = np.array([[0.5, -0.0], [1.0 / 3.0, 1e-310], [-1.25, 1e22]])
    paths = SamplePaths(xi=eta @ np.array([[1.0, 0.3], [0.0, 0.9]]), eta=eta)
    path = str(tmp_path / "p.csv")
    write_paths_csv(path, paths)
    rows = [
        (i, n, g(paths.eta[i, n]), g(paths.xi[i, n]), g(1.0 / 3.0))
        for i in range(3)
        for n in range(2)
    ]
    assert read(path) == reference(("path_index", "stage", "eta", "xi", "probability"), rows)


def test_json_sorted_with_trailing_newline(tmp_path):
    path = str(tmp_path / "r.json")
    write_json(path, {"b": np.float64(0.5), "a": np.int64(2), "c": np.bool_(True)})
    assert read(path) == '{\n  "a": 2,\n  "b": 0.5,\n  "c": true\n}\n'
