"""CSV writers against references built independently with `csv.writer`.

Every reference cell is `format(x + 0.0, ".17g")` (17 significant
digits; adding 0.0 turns -0.0 into 0.0), so each test pins the exact
bytes of one writer.  The tables mix -0.0, subnormals, large magnitudes
and values that need all 17 digits.  The depth-2 fixtures stay below
the writers' short-chunk threshold, so they exercise the value-by-value
path; the deep cases run the numpy kernel over several chunks.  The
stage blocks of a file form one stream of rows, so the last cases cut
chunks across stage boundaries, mix index widths and empty fields, and
count the chunks a file takes.
"""

import csv
import io
import json
import re
import tracemalloc

import numpy as np
import pytest

from fgncontrol import cli, reporting
from fgncontrol.bsde import BsdeSolution
from fgncontrol.dynamics import ControlProcess, random_control
from fgncontrol.errors import ConfigError
from fgncontrol.lattice import SamplePaths, lattice_for_hurst
from fgncontrol.lq import as_model, lq_fixed_point
from fgncontrol.reporting import (
    read_control_csv,
    read_matrix_csv,
    write_adjoint_csv,
    write_bsde_csv,
    write_control_csv,
    write_json,
    write_matrix_csv,
    write_optimize_trace_csv,
    write_paths_csv,
    write_residual_csv,
    write_state_csv,
)
from fgncontrol.selftest import _random_lq_spec
from fgncontrol.smp import TracePoint, classify_nodes

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


def assert_text(got, want):
    """Fail on the first differing line, not on a diff of two multi-MB texts."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (a, b) in enumerate(zip(got_lines, want_lines)):
        if a != b:
            pytest.fail(f"line {i + 1} differs:\n got  {a!r}\n want {b!r}", pytrace=False)
    pytest.fail(f"{len(got_lines)} lines, want {len(want_lines)}", pytrace=False)


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
    assert_text(read(path), reference(("n", "k", "value"), rows))
    assert np.array_equal(read_matrix_csv(path), mat)


def test_matrix_rejects_a_repeated_entry(tmp_path):
    # the last of two (0, 0) rows used to win silently
    path = tmp_path / "m.csv"
    path.write_text("n,k,value\n0,0,1.0\n1,1,1.0\n0,0,4.0\n")
    with pytest.raises(ConfigError, match=re.escape(f"{path}: line 4: entry (0, 0) repeated")):
        read_matrix_csv(str(path))


def test_matrix_of_zeros_writes_header_only(tmp_path):
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, np.zeros((2, 2)))
    assert_text(read(path), "n,k,value\n")


def test_state(lat, tmp_path):
    values = stages(lat, (0, 1, 2), seed=1)
    path = str(tmp_path / "x.csv")
    write_state_csv(path, lat, values)
    assert_text(read(path), state_reference(lat, values))
    assert "\n0,0,0,1\n" in read(path)  # -0.0 at the root prints as 0


def state_reference(lat, values):
    rows = [
        (n, i, g(v), g(p))
        for n, val in enumerate(values)
        for i, (v, p) in enumerate(zip(val.values, lat.node_probabilities(val.level)))
    ]
    return reference(("stage", "node_index", "value", "probability"), rows)


def test_control_round_trip_is_bit_exact(tmp_path):
    lat = lattice_for_hurst(0.7, depth=3, order=3)
    control = random_control(lat, 3, np.random.default_rng(7))
    # -0.0 is left out: the writer prints it as 0 by design
    u2 = control[2].values.copy()
    u2[:6] = SPECIAL[1:]
    control = ControlProcess([control[0], control[1], lat.from_values(2, u2)])
    path = str(tmp_path / "u.csv")
    write_control_csv(path, lat, control)
    assert_text(read(path), state_reference(lat, list(control)))
    back = read_control_csv(path, lat, 3)
    for n in range(3):
        assert back[n].values.tobytes() == control[n].values.tobytes()


def hand_solution(lat):
    """A solution over the whole lattice whose stage-0 residual is all -0.0."""
    depth = lat.depth
    r0 = np.full(lat.level_size(1), -0.0)
    return BsdeSolution(
        y=tuple(stages(lat, range(depth + 1), seed=2)),
        z=tuple(stages(lat, range(depth), seed=3)),
        r=(lat.from_values(1, r0), *stages(lat, range(2, depth + 1), seed=2)),
    )


def bsde_reference(lat, sol):
    q, nodes, weights = lat.rule.q, lat.rule.nodes, lat.rule.weights
    rows = []
    for n in range(sol.horizon):
        blocks = sol.r[n].values.reshape(-1, q)
        r_mean = blocks @ weights
        r_eta = blocks @ (weights * nodes)
        rows += [
            (n, i, g(y), g(z), g(m), g(e))
            for i, (y, z, m, e) in enumerate(zip(sol.y[n].values, sol.z[n].values, r_mean, r_eta))
        ]
    rows += [(sol.horizon, i, g(y), "", "", "") for i, y in enumerate(sol.y[-1].values)]
    return reference(("stage", "node_index", "Y", "Z", "R_mean_check", "R_eta_check"), rows)


def test_bsde_moments_and_empty_terminal_fields(lat, tmp_path):
    sol = hand_solution(lat)
    path = str(tmp_path / "s.csv")
    write_bsde_csv(path, sol)
    text = read(path)
    assert_text(text, bsde_reference(lat, sol))
    assert text.startswith("stage,node_index,Y,Z,R_mean_check,R_eta_check\n0,0,0,")
    assert ",0,0\n" in text  # the -0.0 moments of stage 0
    assert text.endswith(",,,\n") and text.count(",,,\n") == 9


def test_adjoint(lat, tmp_path):
    sol = hand_solution(lat)
    path = str(tmp_path / "a.csv")
    write_adjoint_csv(path, sol)
    assert_text(read(path), adjoint_reference(sol))


def adjoint_reference(sol):
    rows = [
        (n, i, g(p), g(z))
        for n in range(sol.horizon)
        for i, (p, z) in enumerate(zip(sol.y[n].values, sol.z[n].values))
    ]
    return reference(("stage", "node_index", "p", "q"), rows)


def test_residual_pass_fail_labels(lat, tmp_path):
    rho = stages(lat, (0, 1), seed=5)
    control = stages(lat, (0, 1), seed=6)
    classification = [
        (np.array([True]), np.array([-0.0])),
        (np.array([False, True, True]), np.array([2.5, 0.0, 1e-9])),
    ]
    path = str(tmp_path / "r.csv")
    write_residual_csv(path, rho, control, classification)
    text = read(path)
    assert_text(text, residual_reference(rho, control, classification))
    assert [line.split(",")[4] for line in text.splitlines()[1:]] == [
        "pass", "fail", "pass", "pass"
    ]


def residual_reference(rho, control, classification):
    rows = [
        (n, i, g(rho[n].values[i]), g(control[n].values[i]), "pass" if ok[i] else "fail", g(v[i]))
        for n, (ok, v) in enumerate(classification)
        for i in range(len(ok))
    ]
    return reference(("stage", "node_index", "rho", "u_star", "classification", "violation"), rows)


def test_optimize_trace(tmp_path):
    trace = [TracePoint(0, 1.0 / 3.0, 0.0, 0.5), TracePoint(1, -0.0, 0.125, 1e-310)]
    path = str(tmp_path / "t.csv")
    write_optimize_trace_csv(path, trace)
    rows = [(pt.iteration, g(pt.cost), g(pt.step), g(pt.worst_residual)) for pt in trace]
    assert_text(read(path), reference(("iter", "J", "step", "worst_residual"), rows))
    assert "\n1,0,0.125," in read(path)


def test_empty_traces_write_header_only(tmp_path):
    write_optimize_trace_csv(str(tmp_path / "o.csv"), [])
    assert_text(read(str(tmp_path / "o.csv")), "iter,J,step,worst_residual\n")


def test_paths(tmp_path):
    eta = np.array([[0.5, -0.0], [1.0 / 3.0, 1e-310], [-1.25, 1e22]])
    paths = SamplePaths(xi=eta @ np.array([[1.0, 0.3], [0.0, 0.9]]), eta=eta)
    path = str(tmp_path / "p.csv")
    write_paths_csv(path, paths)
    assert_text(read(path), paths_reference(paths))


def paths_reference(paths):
    count, horizon = paths.eta.shape
    rows = [
        (i, n, g(paths.eta[i, n]), g(paths.xi[i, n]), g(1.0 / count))
        for i in range(count)
        for n in range(horizon)
    ]
    return reference(("path_index", "stage", "eta", "xi", "probability"), rows)


def test_json_sorted_with_trailing_newline(tmp_path):
    path = str(tmp_path / "r.json")
    write_json(path, {"b": np.float64(0.5), "a": np.int64(2), "c": np.bool_(True)})
    assert_text(read(path), '{\n  "a": 2,\n  "b": 0.5,\n  "c": true\n}\n')


# Deep cases: stage blocks of 256 rows and more, several chunks.


@pytest.fixture(scope="module")
def deep():
    return lattice_for_hurst(0.7, depth=8, order=3)


@pytest.fixture(scope="module")
def wide():
    return lattice_for_hurst(0.7, depth=6, order=5)


def test_deep_lattices_reach_the_kernel(deep, wide):
    assert deep.level_size(7) >= 256
    assert 6 * wide.level_size(6) > 2 * reporting._CHUNK_ROWS  # paths.csv rows


def test_state_deep(deep, tmp_path):
    values = stages(deep, range(9), seed=11)
    path = str(tmp_path / "x.csv")
    write_state_csv(path, deep, values)
    assert_text(read(path), state_reference(deep, values))


def test_control_deep(deep, tmp_path):
    control = random_control(deep, 8, np.random.default_rng(12))
    path = str(tmp_path / "u.csv")
    write_control_csv(path, deep, control)
    assert_text(read(path), state_reference(deep, list(control)))
    back = read_control_csv(path, deep, 8)
    assert all(back[n].values.tobytes() == control[n].values.tobytes() for n in range(8))


def test_adjoint_deep(deep, tmp_path):
    sol = hand_solution(deep)
    path = str(tmp_path / "a.csv")
    write_adjoint_csv(path, sol)
    assert_text(read(path), adjoint_reference(sol))


def test_residual_deep(deep, tmp_path):
    rho = stages(deep, range(8), seed=13)
    control = stages(deep, range(8), seed=14)
    rng = np.random.default_rng(15)
    classification = [
        (rng.random(r.values.size) < 0.5, np.abs(table(deep, r.level, seed=16 + r.level)))
        for r in rho
    ]
    path = str(tmp_path / "r.csv")
    write_residual_csv(path, rho, control, classification)
    assert_text(read(path), residual_reference(rho, control, classification))


def test_bsde_wide(wide, tmp_path, monkeypatch):
    sol = hand_solution(wide)
    path = str(tmp_path / "s.csv")
    write_bsde_csv(path, sol)
    want = bsde_reference(wide, sol)
    assert_text(read(path), want)
    # chunk boundaries inside a stage block, with a 625-row last chunk
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", 1000)
    write_bsde_csv(path, sol)
    assert_text(read(path), want)


def test_paths_wide(wide, tmp_path):
    eta = np.random.default_rng(17).standard_normal((wide.level_size(6), 6))
    eta[0, :] = SPECIAL[:6]
    paths = SamplePaths(xi=eta @ np.triu(np.full((6, 6), 0.3)), eta=eta)
    path = str(tmp_path / "p.csv")
    write_paths_csv(path, paths)
    assert_text(read(path), paths_reference(paths))


def test_bsde_write_memory_stays_within_two_leaf_tables(tmp_path):
    # q = 5, depth 8: 390 625 leaves.  The writer holds one stage's
    # moments and one chunk of text at a time.
    lat = lattice_for_hurst(0.7, depth=8, order=5)
    sol = hand_solution(lat)
    path = str(tmp_path / "s.csv")
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        write_bsde_csv(path, sol)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - entry <= 2 * 8 * lat.level_size(8)


# Chunks across blocks: the stage blocks form one stream of rows, cut
# into chunks of `_CHUNK_ROWS` that start and end anywhere in it.


def count_calls(monkeypatch, name):
    """Replace reporting.<name> by a wrapper that records its calls."""
    calls, real = [], getattr(reporting, name)

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reporting, name, spy)
    return calls


@pytest.mark.parametrize("chunk", [100, 1000])
def test_chunks_cross_stage_blocks(deep, tmp_path, monkeypatch, chunk):
    # 100 rows: value-by-value chunks; 1000: kernel chunks over stages 0-6
    monkeypatch.setattr(reporting, "_CHUNK_ROWS", chunk)
    values = stages(deep, range(9), seed=31)
    write_state_csv(str(tmp_path / "x.csv"), deep, values)
    assert_text(read(str(tmp_path / "x.csv")), state_reference(deep, values))
    sol = hand_solution(deep)
    write_adjoint_csv(str(tmp_path / "a.csv"), sol)
    assert_text(read(str(tmp_path / "a.csv")), adjoint_reference(sol))
    write_bsde_csv(str(tmp_path / "s.csv"), sol)
    assert_text(read(str(tmp_path / "s.csv")), bsde_reference(deep, sol))
    rho = stages(deep, range(8), seed=32)
    control = stages(deep, range(8), seed=33)
    rng = np.random.default_rng(34)
    classification = [(rng.random(r.values.size) < 0.5, np.abs(r.values)) for r in rho]
    write_residual_csv(str(tmp_path / "r.csv"), rho, control, classification)
    assert_text(read(str(tmp_path / "r.csv")), residual_reference(rho, control, classification))


def chunk_sizes(rows):
    """The chunks of a run of `rows` rows of the same fields."""
    full, rest = divmod(rows, reporting._CHUNK_ROWS)
    return [reporting._CHUNK_ROWS] * full + [rest] * (rest > 0)


def test_bsde_fills_default_size_chunks(tmp_path, monkeypatch):
    # q = 4, depth 8: stages 0-7 (21 845 rows) fill one full chunk, and the
    # 65 536 leaves of the terminal stage fill three more
    lat = lattice_for_hurst(0.7, depth=8, order=4)
    sol = hand_solution(lat)
    chunks = count_calls(monkeypatch, "_encode_rows")
    path = str(tmp_path / "s.csv")
    write_bsde_csv(path, sol)
    assert_text(read(path), bsde_reference(lat, sol))
    sizes = [sum(len(piece[1]) for piece in pieces) for (pieces,) in chunks]
    assert sizes == chunk_sizes(21_845) + chunk_sizes(4**8)
    assert sizes.count(reporting._CHUNK_ROWS) >= 4


def test_chunk_text_rows_are_an_odd_multiple_of_64_bytes():
    # a power-of-two stride maps every row of a chunk's text to the same
    # cache sets, and transposing it ran about twice as slow
    assert reporting._CHUNK_ROWS % 64 == 0 and (reporting._CHUNK_ROWS // 64) % 2 == 1


def test_short_blocks_join_into_one_kernel_chunk(tmp_path, monkeypatch):
    # q = 3, N = 6: six stage blocks of 1..243 rows, 364 rows in all
    lat = lattice_for_hurst(0.7, depth=6, order=3)
    control = random_control(lat, 6, np.random.default_rng(35))
    sizes = [lat.level_size(n) for n in range(6)]
    assert max(sizes) < 256 < sum(sizes) < reporting._CHUNK_ROWS
    chunks = count_calls(monkeypatch, "_encode_rows")
    kernel = count_calls(monkeypatch, "_float_field")
    path = str(tmp_path / "u.csv")
    write_control_csv(path, lat, control)
    assert_text(read(path), state_reference(lat, list(control)))
    assert len(chunks) == 1
    assert [len(x) for x, _ in kernel] == [2 * sum(sizes)]  # value and probability, one call


@pytest.mark.parametrize("floats", [1, 2])
def test_short_floats_counts_values_not_rows(tmp_path, monkeypatch, floats):
    # 100 rows: one float column is 100 values, formatted value by value;
    # two are 200, at least _SHORT_FLOATS, and share one kernel call
    rows = 100
    assert rows < reporting._SHORT_FLOATS <= 2 * rows
    values = [np.random.default_rng(37 + k).standard_normal(rows) for k in range(floats)]
    header = ["node"] + [f"v{k}" for k in range(floats)]
    kernel = count_calls(monkeypatch, "_float_field")
    path = str(tmp_path / "t.csv")
    reporting._write_table(path, ",".join(header), [(range(rows), *values)])
    want = [(k, *map(g, row)) for k, row in enumerate(zip(*values))]
    assert_text(read(path), reference(header, want))
    assert [len(x) for x, _ in kernel] == ([] if floats == 1 else [floats * rows])


def test_index_width_changes_inside_a_chunk(tmp_path):
    # stages 9 -> 10 and node indices 9 -> 10 -> 100 -> 1000 in one chunk
    rng = np.random.default_rng(36)
    sizes = (1, 10, 95, 1001)
    values = [rng.standard_normal(size) for size in sizes]
    blocks = [(reporting._stage(n, v.size), range(v.size), v) for n, v in zip((8, 9, 10, 11), values)]
    path = str(tmp_path / "t.csv")
    reporting._write_table(path, "stage,node_index,value", blocks)
    rows = [(n, i, g(x)) for n, v in zip((8, 9, 10, 11), values) for i, x in enumerate(v)]
    assert_text(read(path), reference(("stage", "node_index", "value"), rows))


def test_terminal_stage_closes_the_chunk(lat, tmp_path, monkeypatch):
    # the valued stages 0-1 and the empty-field stage 2 share no chunk
    chunks = count_calls(monkeypatch, "_encode_rows")
    sol = hand_solution(lat)
    path = str(tmp_path / "s.csv")
    write_bsde_csv(path, sol)
    assert_text(read(path), bsde_reference(lat, sol))
    assert len(chunks) == 2


def test_empty_blocks_are_skipped(tmp_path, monkeypatch):
    empty = (np.zeros(0, np.int64), np.zeros(0))
    path = str(tmp_path / "t.csv")
    reporting._write_table(path, "k,value", [empty, empty])
    assert_text(read(path), "k,value\n")
    chunks = count_calls(monkeypatch, "_encode_rows")
    # an empty block between two valued ones, even one with an empty
    # field, neither writes a row nor closes the chunk
    blocks = [(np.array([1, 2]), np.array([0.5, -0.0])), empty, (np.zeros(0, np.int64), None),
              (np.array([3]), np.array([1e22]))]
    reporting._write_table(path, "k,value", blocks)
    assert_text(read(path), "k,value\n1,0.5\n2,0\n3,1e+22\n")
    assert len(chunks) == 1


def lq_config(tmp_path):
    """LQ draw 0 at (q, N) = (3, 6) as a CLI config file, and its spec."""
    spec = _random_lq_spec(np.random.default_rng([0, 3, 6, 0]), 6)
    config = {"horizon": 6, "hurst": 0.7, "quadrature_order": 3,
              "G": float(spec.G), "x": float(spec.x),
              **{name: [float(v) for v in getattr(spec, name)] for name in "ABCDQR"}}
    path = tmp_path / "lq.json"
    path.write_text(json.dumps(config))
    return path, spec


def test_lq_writes_each_csv_in_one_chunk(tmp_path, monkeypatch):
    path, _ = lq_config(tmp_path)
    chunks = count_calls(monkeypatch, "_encode_rows")
    out = tmp_path / "out"
    assert cli.main(["lq", "--config", str(path), "--out", str(out)]) == 0
    csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert csvs == ["adjoint.csv", "iterations.csv", "residual.csv", "u_star.csv"]
    assert len(chunks) == len(csvs)


def test_lq_float_columns_share_one_kernel_call_per_file(tmp_path, monkeypatch):
    # 364 rows per file: residual.csv's rho, u_star and violation, then
    # u_star.csv's value and probability, then adjoint.csv's p and q
    path, spec = lq_config(tmp_path)
    kernel = count_calls(monkeypatch, "_float_field")
    out = tmp_path / "out"
    assert cli.main(["lq", "--config", str(path), "--out", str(out)]) == 0
    assert [len(x) for x, _ in kernel] == [3 * 364, 2 * 364, 2 * 364]
    lat = lattice_for_hurst(0.7, depth=6, order=3)
    sol = lq_fixed_point(spec, lat)
    control = list(sol.control)
    classification = [
        classify_nodes(rho.values, u.values, as_model(spec).control_set, cli.STATIONARITY_TOL)[::-1]
        for rho, u in zip(sol.rho, control)
    ]
    assert_text(read(out / "residual.csv"), residual_reference(sol.rho, control, classification))
    assert_text(read(out / "u_star.csv"), state_reference(lat, control))
    assert_text(read(out / "adjoint.csv"), adjoint_reference(sol.adjoint))
    rows = [(0, g(sol.cost), g(sol.residual))]
    assert_text(read(out / "iterations.csv"), reference(("iter", "J", "residual"), rows))


def test_lq_trace_is_the_one_step_of_the_report(tmp_path):
    # the LQ solve is one DDP Newton step: iterations.csv is its one row
    path, _ = lq_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["lq", "--config", str(path), "--out", str(out)]) == 0
    report = json.loads(read(out / "report.json"))
    row = "0,%.17g,%.17g\n" % (report["J"], report["residual"])
    assert_text(read(out / "iterations.csv"), "iter,J,residual\n" + row)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.longdouble])
@pytest.mark.parametrize("size", [3, 20])
def test_matrix_of_other_float_dtypes(tmp_path, dtype, size):
    # 20 x 20: 400 values through the kernel; 3 x 3: value by value.
    # Either way a value prints as '%.17g' of its float64 value.
    mat = (np.random.default_rng(37).standard_normal((size, size)) / 3).astype(dtype)
    path = str(tmp_path / "m.csv")
    write_matrix_csv(path, mat)
    rows = [(n, k, "%.17g" % float(mat[n, k])) for n in range(size) for k in range(size)]
    assert_text(read(path), reference(("n", "k", "value"), rows))
