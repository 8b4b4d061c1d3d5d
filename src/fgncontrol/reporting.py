"""Deterministic CSV and JSON serialization for solver artifacts.

Every CSV writer goes through `_write_table`: a header, then blocks of
rows, each printed with one `%` row template such as "%d,%d,%.17g\n".
Floats get 17 significant digits, so identical inputs produce
byte-identical files that round-trip through float64; tables enter as
`(table + 0.0).tolist()`, which turns -0.0 into 0.  Line endings are
'\n' on every platform.
"""

from __future__ import annotations

import csv
import json
import os
from itertools import repeat

import numpy as np

from .dynamics import ControlProcess
from .errors import ConfigError
from .lattice import NoiseLattice, SamplePaths, _moments

__all__ = [
    "ensure_out_dir",
    "read_control_csv",
    "read_matrix_csv",
    "write_adjoint_csv",
    "write_bsde_csv",
    "write_control_csv",
    "write_json",
    "write_lq_trace_csv",
    "write_matrix_csv",
    "write_optimize_trace_csv",
    "write_paths_csv",
    "write_residual_csv",
    "write_state_csv",
]


def _column(table) -> list[float]:
    """A table flattened to Python floats; adding 0.0 makes -0.0 print as 0."""
    return (np.asarray(table, dtype=np.float64).reshape(-1) + 0.0).tolist()


def _stage_rows(n: int, *tables):
    """Rows (n, node_index, *values) from one stage's equal-length tables."""
    return zip(repeat(n), range(len(tables[0])), *map(_column, tables))


def _write_table(path: str, header: str, blocks) -> None:
    """The header line, then `template % row` for each row of each block.

    Blocks are consumed one at a time, so a generator of blocks holds a
    single stage's rows in memory.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for template, rows in blocks:
            fh.writelines(map(template.__mod__, rows))


def write_matrix_csv(path: str, mat: np.ndarray) -> None:
    """Header `n,k,value`, one row per nonzero entry, row-major order."""
    n, k = np.nonzero(mat)
    rows = zip(n.tolist(), k.tolist(), _column(mat[n, k]))
    _write_table(path, "n,k,value", [("%d,%d,%.17g\n", rows)])


def read_matrix_csv(path: str) -> np.ndarray:
    """Inverse of write_matrix_csv; size inferred from the largest index.

    Raises ConfigError on schema violations.  OSError propagates.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty matrix file") from None
        if header != ["n", "k", "value"]:
            raise ConfigError(f"{path}: expected header n,k,value, got {header!r}")
        entries = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ConfigError(f"{path}: line {lineno}: expected 3 fields")
            try:
                n, k, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            if n < 0 or k < 0:
                raise ConfigError(f"{path}: line {lineno}: negative index")
            entries.append((n, k, value))
    if not entries:
        raise ConfigError(f"{path}: no matrix entries")
    size = 1 + max(max(n, k) for n, k, _ in entries)
    mat = np.zeros((size, size))
    for n, k, value in entries:
        mat[n, k] = value
    return mat


def write_state_csv(path: str, lat: NoiseLattice, values_by_stage) -> None:
    """Header `stage,node_index,value,probability`; one block per stage."""
    _write_table(path, "stage,node_index,value,probability", (
        ("%d,%d,%.17g,%.17g\n", _stage_rows(n, val.values, lat.node_probabilities(val.level)))
        for n, val in enumerate(values_by_stage)
    ))


def write_control_csv(path: str, lat: NoiseLattice, control: ControlProcess) -> None:
    write_state_csv(path, lat, (control[n] for n in range(control.horizon)))


def read_control_csv(path: str, lat: NoiseLattice, horizon: int) -> ControlProcess:
    """Read a control written by write_control_csv onto the given lattice.

    The probability column is ignored; each stage n must supply exactly
    one value per level-n node, in node order.
    """
    per_stage: dict[int, list[tuple[int, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty control file") from None
        if header[:3] != ["stage", "node_index", "value"]:
            raise ConfigError(
                f"{path}: expected header stage,node_index,value[,probability], got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) not in (3, 4):
                raise ConfigError(f"{path}: line {lineno}: expected 3 or 4 fields")
            try:
                stage, idx, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            per_stage.setdefault(stage, []).append((idx, value))
    stages = []
    for n in range(horizon):
        if n not in per_stage:
            raise ConfigError(f"{path}: missing rows for stage {n}")
        got = sorted(per_stage[n])
        expected = lat.level_size(n)
        if [i for i, _ in got] != list(range(expected)):
            raise ConfigError(
                f"{path}: stage {n} must have node indices 0..{expected - 1}"
            )
        stages.append(lat.from_values(n, np.array([v for _, v in got])))
    extra = set(per_stage) - set(range(horizon))
    if extra:
        raise ConfigError(f"{path}: unexpected stages {sorted(extra)}")
    return ControlProcess(stages)


def write_bsde_csv(path: str, lat: NoiseLattice, sol) -> None:
    """Header `stage,node_index,Y,Z,R_mean_check,R_eta_check`.

    Stages 0..N-1 carry Y, Z and the two conditional moments of the
    orthogonal residual (all at level n); the terminal stage carries Y
    only, with the remaining fields empty.
    """
    def blocks():
        for n in range(sol.horizon):
            moments = _moments(lat, sol.r[n].values, 2)
            rows = _stage_rows(n, sol.y[n].values, sol.z[n].values, *moments)
            yield "%d,%d,%.17g,%.17g,%.17g,%.17g\n", rows
        yield "%d,%d,%.17g,,,\n", _stage_rows(sol.horizon, sol.y[sol.horizon].values)

    _write_table(path, "stage,node_index,Y,Z,R_mean_check,R_eta_check", blocks())


def write_adjoint_csv(path: str, sol) -> None:
    """Header `stage,node_index,p,q` for the adjoint pair."""
    _write_table(path, "stage,node_index,p,q", (
        ("%d,%d,%.17g,%.17g\n", _stage_rows(n, sol.y[n].values, sol.z[n].values))
        for n in range(sol.horizon)
    ))


def write_residual_csv(path: str, residual, control, classification) -> None:
    """Header `stage,node_index,rho,u_star,classification,violation`.

    `classification` is a sequence of (passed_array, violation_array)
    per stage; passed nodes print as "pass", others as "fail".
    """
    _write_table(path, "stage,node_index,rho,u_star,classification,violation", (
        ("%d,%d,%.17g,%.17g,%s,%.17g\n", zip(
            repeat(n),
            range(rho.values.shape[0]),
            _column(rho.values),
            _column(u_n.values),
            np.where(ok, "pass", "fail").tolist(),
            _column(viol),
        ))
        for n, (rho, u_n, (ok, viol)) in enumerate(zip(residual, control, classification))
    ))


def write_optimize_trace_csv(path: str, trace) -> None:
    """Header `iter,J,step,worst_residual`."""
    rows = ((pt.iteration, pt.cost + 0.0, pt.step + 0.0, pt.worst_residual + 0.0) for pt in trace)
    _write_table(path, "iter,J,step,worst_residual", [("%d,%.17g,%.17g,%.17g\n", rows)])


def write_lq_trace_csv(path: str, trace) -> None:
    """Header `iter,J,residual`: one row, for the LQ solve's one DDP Newton step."""
    rows = ((pt.iteration, pt.cost + 0.0, pt.residual + 0.0) for pt in trace)
    _write_table(path, "iter,J,residual", [("%d,%.17g,%.17g\n", rows)])


def write_paths_csv(path: str, paths: SamplePaths) -> None:
    """Header `path_index,stage,eta,xi,probability`.

    Monte Carlo draws are equiprobable, so probability is 1/n_paths.
    """
    path_index, stage = np.indices(paths.eta.shape).reshape(2, -1).tolist()
    prob = 1.0 / paths.eta.shape[0]
    rows = zip(path_index, stage, _column(paths.eta), _column(paths.xi), repeat(prob))
    template = "%d,%d,%.17g,%.17g,%.17g\n"
    _write_table(path, "path_index,stage,eta,xi,probability", [(template, rows)])


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def write_json(path: str, obj) -> None:
    """Sorted keys, two-space indent, trailing newline, no NaN/inf."""
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False, default=_json_default)
    with open(path, "w", newline="") as fh:
        fh.write(text + "\n")


def ensure_out_dir(out: str) -> str:
    """Create the output directory if needed; OSError propagates."""
    os.makedirs(out, exist_ok=True)
    return out
