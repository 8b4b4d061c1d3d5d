"""Deterministic CSV and JSON serialization for solver artifacts.

Every CSV writer goes through `_write_table`: a header, then blocks of
columns, one array per field (the stage writers give a block per
stage).  The dtype of a column picks its format: an integer array prints as `%d`, a float array
as `%.17g` of its float64 value plus 0.0 (so -0.0 prints as 0), a
fixed-width bytes array (`pass`/`fail`) verbatim, and `None` as an empty
field.  Floats get 17 significant digits, so identical inputs produce
byte-identical files that round-trip through float64.  Line endings are
'\n' on every platform.

The blocks form one stream of rows, encoded in numpy `_CHUNK_ROWS` rows
at a time; a chunk may span the tail of one block and the heads of the
next, so a file of many small stages is one chunk.  In a chunk each
field becomes a NUL-padded fixed-width byte matrix, built position by
position, and the NULs are dropped from the finished text.  Floats go
through `_float_field`, a `%.17g` kernel in plain float64 arithmetic
whose output equals Python's formatting byte for byte; the few values it
cannot certify, and every float of a chunk whose float columns hold
under `_SHORT_FLOATS` values in all, are formatted by `'%.17g' %` one at
a time.  The kernel's cost is mostly fixed per call, so the float
columns of a short chunk (at most `_SHARED_VALUES` values in all) share
one call; a longer chunk takes one call per column.

Three choices keep the work per chunk down.  `_CHUNK_ROWS` is 2^14 + 64,
so a full chunk's text rows lie an odd multiple of 64 B apart and do not
all map to the same cache sets when the text is transposed into bytes.
The exponent suffix `e%+03d` is read from a cached table (`_exponents`),
and only in chunks that hold an exponent-form value; the zero fix-ups run
only in chunks that hold a zero.  Integer columns whose largest |v| is
below 2^31 take their digits in int32 arithmetic, about three times
faster than in int64.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import os

import numpy as np

from .dynamics import ControlProcess
from .errors import ConfigError
from .lattice import MAX_DEPTH, NoiseLattice, SamplePaths

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

# Rows encoded at once.  A chunk's byte matrix and its text are the
# writer's only memory of its own: at 2^16 rows bsde-export peaks at
# 78 MB against 62 MB here, and runs no faster.  The 64 extra rows make
# a full chunk's text row stride an odd multiple of 64 B: at exactly
# 2^14 B every row of the text maps to the same cache sets, and
# `text.T.tobytes()` ran about twice as slow.
_CHUNK_ROWS = 2**14 + 64
# A chunk whose float columns hold fewer values than this in all formats
# them value by value, `'%.17g' %` on each; at or above it they share one
# `_float_field` call.  The kernel's cost is mostly fixed per call, so the
# crossover is a count of values, not of rows.  `_encode_rows` on one
# piece of [stage, node, float] columns, best of 5 x 50 on a 2-core x86
# VM, took 162 µs by value vs 180 µs by kernel at 128 rows and 249 vs
# 189 µs at 200, crossing at about 150 rows; with two float columns it
# crossed at about 80 rows (183 vs 183 µs).
_SHORT_FLOATS = 160
# A chunk whose float columns hold at most this many values in all sends
# them through one kernel call.  The kernel's cost per value is flat above
# about 3 000 values, so longer chunks gain nothing from sharing a call and
# keep one call per column, and the writer's memory with it.
_SHARED_VALUES = 2**12
# '%.17g' is at most 24 characters; its matrix spends 29 rows on them:
# the sign, the "0." and up to three zeros of 1e-4 <= |x| < 0.1, 17
# digits and a point, and "e" with a sign and up to three digits.
_FLOAT_WIDTH = 29
# The kernel certifies |x| in this range, where no step over- or underflows.
_CERTIFIED = (1e-280, 1e280)
# |x|·10^k is known to about 1e-14; a fraction this close to 1/2, an
# exact tie included, leaves the rounding of digit 17 to `'%.17g' %`.
_TIE_MARGIN = 1e-6
_DEKKER = 134217729.0  # 2^27 + 1: splits a float64 into two 26-bit halves
_POW10_MIN = -300  # the table of 10^k spans k in [-300, 300]
_EXP_MAX = 400  # the exponent suffixes span e in [-400, 400]
_POSITION = np.arange(18, dtype=np.uint8)[:, None]  # rows of the mantissa


def _split(a):
    """a = hi + lo exactly, each half of at most 26 significant bits (Dekker)."""
    c = _DEKKER * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Rows (head, tail, head's halves), 10^k = head + tail to ~2^-106, k from _POW10_MIN up.

    Built on the first kernel call, so runs that write only short
    columns never pay for it.
    """
    rows = []
    for k in range(_POW10_MIN, -_POW10_MIN + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        head = num / den  # correctly rounded
        h_num, h_den = head.as_integer_ratio()
        rows.append((head, (num * h_den - h_num * den) / (den * h_den)))
    table = np.array(rows)
    return np.column_stack([table, *_split(table[:, 0])])


@functools.cache
def _exponents() -> np.ndarray:
    """Rows 24-28 of `_float_field`: column 0 is all NUL (no exponent), and
    column e + _EXP_MAX + 1 holds `e%+03d`, NUL-padded, for |e| <= _EXP_MAX."""
    suffixes = [""] + ["e%+03d" % e for e in range(-_EXP_MAX, _EXP_MAX + 1)]
    return np.array(suffixes, dtype="S5").view(np.uint8).reshape(-1, 5).T.copy()


def _scaled(a, a_hi, a_lo, k):
    """a·10^k as an unevaluated sum p + r: Dekker's exact product a·head plus a·tail."""
    head, tail, h_hi, h_lo = _powers_of_ten().take(k - _POW10_MIN, axis=0).T
    p = a * head
    err = ((a_hi * h_hi - p) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    return p, err + a * tail


def _off_decade(p, r):
    """Whether p + r < 10^16, and whether p + r >= 10^17."""
    return (p < 1e16) | ((p == 1e16) & (r < 0)), (p > 1e17) | ((p == 1e17) & (r >= 0))


def _decimal(a: np.ndarray):
    """(d, e, certified): a rounded to 17 digits is d·10^(e-16), 10^16 <= d < 10^17.

    The decimal exponent e comes from log10 and is corrected against the
    scaled value, which is an exact double-double product (Dekker, Numer.
    Math. 18, 1971) with a table of 10^k as head + tail: only the last of
    ~31 significant digits is uncertain, so the rounding of digit 17 is
    decided unless the fraction lies within `_TIE_MARGIN` of 1/2.  Such
    values, and those outside `_CERTIFIED`, come back uncertified.
    """
    ok = (a >= _CERTIFIED[0]) & (a <= _CERTIFIED[1])
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    a_hi, a_lo = _split(a)
    p, r = _scaled(a, a_hi, a_lo, 16 - e)
    low, high = _off_decade(p, r)
    redo = np.flatnonzero(low | high)
    if redo.size:  # log10 missed the decade next to a power of ten
        e[redo] += high[redo].astype(np.int64) - low[redo]
        p[redo], r[redo] = _scaled(a[redo], a_hi[redo], a_lo[redo], 16 - e[redo])
        low, high = _off_decade(p[redo], r[redo])
        ok[redo[low | high]] = False
    whole = np.floor(r)
    frac = r - whole
    ok &= np.abs(frac - 0.5) >= _TIE_MARGIN
    d = p.astype(np.int64) + whole.astype(np.int64) + (frac > 0.5)
    carry = d == 10**17  # 17 nines rounded up into the next decade
    d[carry] = 10**16
    return d, e + carry, ok


def _digits(v: np.ndarray, out: np.ndarray) -> None:
    """The last len(out) decimal digits of the integers v >= 0, most significant first."""
    for row in range(len(out) - 1, -1, -1):
        q = v // 10
        out[row] = v - 10 * q
        v = q


def _float_field(x: np.ndarray, out: np.ndarray) -> None:
    """`'%.17g' % v` for each v of x (float64, no -0.0) into the zeroed rows of out.

    The rows follow C's %g: fixed notation for -4 <= e <= 16, else
    d.ddde±XX, with trailing zeros stripped; unused rows keep their NUL.
    Uncertified values are formatted by `'%.17g' %` one at a time.
    """
    a = np.abs(x)
    zero = a == 0
    d, e, ok = _decimal(a)
    digits = np.empty((17, x.size), np.uint8)
    top = d // 10**8
    _digits(top.astype(np.int32), digits[:9])
    _digits((d - top * 10**8).astype(np.int32), digits[9:])
    # significant digits, trailing zeros dropped
    shown = ((digits != 0) * _POSITION[1:]).max(axis=0)
    fixed = (e >= -4) & (e <= 16)
    lead = fixed & (e < 0)  # 0.000ddd: the point is in the lead rows
    expo = ~fixed
    whole_digits = (e + 1) * (fixed & ~lead)
    keep = np.maximum(shown, whole_digits).astype(np.uint8)
    # digits before the mantissa's point; the lead form has no point there
    point = (whole_digits + expo + 18 * lead).astype(np.uint8)

    out[0] = np.uint8(45) * (x < 0)
    out[1] = np.uint8(48) * lead
    out[2] = np.uint8(46) * lead
    for row, below in ((3, -2), (4, -3), (5, -4)):
        out[row] = np.uint8(48) * (lead & (e <= below))
    chars = (digits + np.uint8(48)) * (_POSITION[:17] < keep)
    mantissa = out[6:24]
    mantissa[:17] = chars * (_POSITION[:17] < point)
    mantissa[1:] |= chars * (_POSITION[1:] > point)
    mantissa |= np.uint8(46) * ((_POSITION == point) & (keep > point))
    if expo.any():
        out[24:] = _exponents().take(expo * (e + _EXP_MAX + 1), axis=1)
    if zero.any():
        out[:, zero] = 0
        out[6, zero] = 48
    uncertified = np.flatnonzero(~(ok | zero))
    if uncertified.size:
        text = np.array(["%.17g" % v for v in x[uncertified].tolist()], dtype=f"S{_FLOAT_WIDTH}")
        out[:, uncertified] = text.view(np.uint8).reshape(-1, _FLOAT_WIDTH).T


def _int_field(v: np.ndarray, out: np.ndarray) -> None:
    """`'%d' % v` for each v of the integer array v into the rows of out: sign, then digits."""
    a = np.abs(v.astype(np.int64))
    if a.max() < 2**31:  # int32 digits come about 3x faster
        a = a.astype(np.int32)
    out[0] = np.uint8(45) * (v < 0)
    _digits(a, out[1:])
    out[1:] += np.uint8(48)
    width = len(out) - 1
    for row in range(1, width):  # leading zeros
        out[row] *= a >= 10 ** (width - row)


def _width(column) -> int:
    """Rows of the column's byte matrix: enough for its longest field."""
    if isinstance(column, range):
        return 1 + len(str(max(abs(column[0]), abs(column[-1]))))
    kind = column.dtype.kind
    if kind == "S":
        return column.itemsize
    if kind in "iu":
        return 1 + len(str(np.abs(column.astype(np.int64)).max()))
    return _FLOAT_WIDTH


def _is_float(column) -> bool:
    return column is not None and not isinstance(column, range) and column.dtype.kind == "f"


def _float64(column: np.ndarray) -> np.ndarray:
    """The float64 value of a float column, with -0.0 turned into 0.0."""
    return np.asarray(column, np.float64) + 0.0


def _fill(column: np.ndarray, out: np.ndarray) -> None:
    """One column of a chunk into the zeroed rows of out, in the format its dtype picks."""
    kind = column.dtype.kind
    if kind == "f":
        column = _float64(column)
    if kind == "f" and len(column) >= _SHORT_FLOATS:
        _float_field(column, out)
    elif kind in "iu":
        _int_field(column, out)
    else:
        if kind == "f":
            column = np.array(["%.17g" % v for v in column.tolist()])
        text = column.astype(f"S{len(out)}")
        out[:] = text.view(np.uint8).reshape(-1, len(out)).T


def _join(parts) -> np.ndarray:
    """One column of a chunk from its parts, one per piece: a single part as it is."""
    parts = [np.arange(p.start, p.stop, p.step) if isinstance(p, range) else p for p in parts]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _encode_rows(pieces) -> bytes:
    """One chunk: its rows with fields joined by ',' and each ended by '\\n'.

    A piece is a run of rows of one block, as a list of columns; every
    piece of a chunk has `None` in the same fields.  A column is joined
    across the pieces only for its own fill.  In a chunk whose float
    columns hold from `_SHORT_FLOATS` to `_SHARED_VALUES` values in all,
    those columns share one `_float_field` call, and each copies its rows
    out of the shared matrix; below that range each is formatted value by
    value, above it each takes its own call.
    """
    fields = list(zip(*pieces))
    widths = [0 if parts[0] is None else max(map(_width, parts)) for parts in fields]
    size = sum(map(len, next(parts for parts in fields if parts[0] is not None)))
    floats = [k for k, parts in enumerate(fields) if _is_float(parts[0])]
    shared = {}
    if floats and _SHORT_FLOATS <= len(floats) * size <= _SHARED_VALUES:
        matrix = np.zeros((_FLOAT_WIDTH, len(floats) * size), np.uint8)
        _float_field(np.concatenate([_float64(_join(fields[k])) for k in floats]), matrix)
        shared = dict(zip(floats, np.split(matrix, len(floats), axis=1)))
    text = np.zeros((sum(widths) + len(fields), size), np.uint8)
    row = 0
    for k, (parts, width) in enumerate(zip(fields, widths)):
        if k in shared:
            text[row:row + width] = shared[k]
        elif width:
            _fill(_join(parts), text[row:row + width])
        text[row + width] = 44
        row += width + 1
    text[-1] = 10
    raw = text.T.tobytes()
    del text
    return raw.translate(None, b"\0")


def _write_table(path: str, header: str, blocks) -> None:
    """The header line, then the rows of the blocks, `_CHUNK_ROWS` rows at a time.

    A block is a sequence of equal-length columns, and the kind of each
    column picks its format: an integer array or a `range` (node
    indices) prints as `%d`, a float array as `%.17g` of its float64
    value, a fixed-width bytes array verbatim, and `None` as an empty
    field.  The blocks form one stream of rows, cut into chunks: a chunk
    may hold the tail of one block and the heads of the next ones, and
    only a change in which fields are `None` ends a chunk early.  Empty
    blocks add nothing.  Within a chunk whose float columns hold at least
    `_SHORT_FLOATS` values in all, they go through the `_float_field`
    kernel, which leaves ties, non-finite values and |x| outside
    `_CERTIFIED` to `'%.17g' %`; fewer are formatted value by value.
    Blocks are consumed one at a time, so a generator of blocks holds the
    columns of the stages that the open chunk reaches, and the text of one
    chunk is the only other memory the writer holds.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        chunk, rows = [], 0  # the pieces of the open chunk, and their rows
        for block in blocks:
            size = next(len(c) for c in block if c is not None)
            if not size:
                continue
            if chunk and [c is None for c in block] != [c is None for c in chunk[0]]:
                fh.write(_encode_rows(chunk))
                chunk, rows = [], 0
            start = 0
            while start < size:
                stop = min(size, start + _CHUNK_ROWS - rows)
                chunk.append([None if c is None else c[start:stop] for c in block])
                rows += stop - start
                start = stop
                if rows == _CHUNK_ROWS:
                    fh.write(_encode_rows(chunk))
                    chunk, rows = [], 0
        if chunk:
            fh.write(_encode_rows(chunk))


def _stage(n: int, rows: int) -> np.ndarray:
    """The stage column of a block: n on every row, without a table."""
    return np.broadcast_to(np.int64(n), (rows,))


@contextlib.contextmanager
def _utf8_text(path: str, **kwargs):
    """`path` opened as UTF-8 text, whatever the locale.  A byte that is not
    UTF-8 raises ConfigError naming its line: the file is decoded again line
    by line, since no UTF-8 sequence spans a newline."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ConfigError(f"{path}: line {lineno}: byte 0x{raw[exc.start]:02x} "
                                      f"is not UTF-8 ({exc.reason})") from None
        raise


def write_matrix_csv(path: str, mat: np.ndarray) -> None:
    """Header `n,k,value`, one row per nonzero entry, row-major order."""
    n, k = np.nonzero(mat)
    _write_table(path, "n,k,value", [(n, k, mat[n, k])])


def read_matrix_csv(path: str) -> np.ndarray:
    """Inverse of write_matrix_csv; size inferred from the largest index.

    The file is read as UTF-8.  Raises ConfigError on a byte that is not
    UTF-8, on schema violations, on a value that is not finite, on a
    repeated (n, k) and on an index above MAX_DEPTH: the largest
    covariance a lattice whitens has MAX_DEPTH + 1 increments.  OSError
    propagates.
    """
    with _utf8_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"{path}: empty matrix file") from None
        if header != ["n", "k", "value"]:
            raise ConfigError(f"{path}: expected header n,k,value, got {header!r}")
        entries = {}
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise ConfigError(f"{path}: line {lineno}: expected 3 fields")
            try:
                n, k, value = int(row[0]), int(row[1]), float(row[2])
            except ValueError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from None
            if not math.isfinite(value):
                raise ConfigError(f"{path}: line {lineno}: value must be finite, got {row[2]!r}")
            if n < 0 or k < 0:
                raise ConfigError(f"{path}: line {lineno}: negative index")
            if max(n, k) > MAX_DEPTH:
                raise ConfigError(
                    f"{path}: line {lineno}: index {max(n, k)} exceeds the cap of {MAX_DEPTH}"
                )
            if (n, k) in entries:
                raise ConfigError(f"{path}: line {lineno}: entry ({n}, {k}) repeated")
            entries[n, k] = value
    if not entries:
        raise ConfigError(f"{path}: no matrix entries")
    size = 1 + max(map(max, entries))
    mat = np.zeros((size, size))
    for (n, k), value in entries.items():
        mat[n, k] = value
    return mat


def write_state_csv(path: str, lat: NoiseLattice, values_by_stage) -> None:
    """Header `stage,node_index,value,probability`; one block per stage."""
    _write_table(path, "stage,node_index,value,probability", (
        (_stage(n, val.values.size), range(val.values.size), val.values,
         lat.node_probabilities(val.level))
        for n, val in enumerate(values_by_stage)
    ))


def write_control_csv(path: str, lat: NoiseLattice, control: ControlProcess) -> None:
    write_state_csv(path, lat, (control[n] for n in range(control.horizon)))


def read_control_csv(path: str, lat: NoiseLattice, horizon: int) -> ControlProcess:
    """Read a control written by write_control_csv onto the given lattice.

    The file is read as UTF-8.  The probability column is ignored; each
    stage n must supply exactly one finite value per level-n node, in node
    order.
    """
    per_stage: dict[int, dict[int, float]] = {}
    with _utf8_text(path, newline="") as fh:
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
            if not math.isfinite(value):
                raise ConfigError(f"{path}: line {lineno}: value must be finite, got {row[2]!r}")
            if idx in per_stage.setdefault(stage, {}):
                raise ConfigError(f"{path}: line {lineno}: entry ({stage}, {idx}) repeated")
            per_stage[stage][idx] = value
    stages = []
    for n in range(horizon):
        if n not in per_stage:
            raise ConfigError(f"{path}: missing rows for stage {n}")
        got = sorted(per_stage[n].items())
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


def write_bsde_csv(path: str, sol) -> None:
    """Header `stage,node_index,Y,Z,R_mean_check,R_eta_check`.

    Stages 0..N-1 carry Y, Z and the two conditional moments of the
    orthogonal residual (all at level n); the terminal stage carries Y
    only, with the remaining fields empty.  The moments are the solution's
    own, derived from R once and shared with `residual_orthogonality`.
    """
    def blocks():
        for n, y in enumerate(sol.y):
            size = y.values.size
            if n < sol.horizon:
                tail = (sol.z[n].values, *sol._r_moments[n])
            else:
                tail = (None, None, None)
            yield (_stage(n, size), range(size), y.values, *tail)

    _write_table(path, "stage,node_index,Y,Z,R_mean_check,R_eta_check", blocks())


def write_adjoint_csv(path: str, sol) -> None:
    """Header `stage,node_index,p,q` for the adjoint pair."""
    _write_table(path, "stage,node_index,p,q", (
        (_stage(n, z.values.size), range(z.values.size), y.values, z.values)
        for n, (y, z) in enumerate(zip(sol.y, sol.z))
    ))


def write_residual_csv(path: str, residual, control, classification) -> None:
    """Header `stage,node_index,rho,u_star,classification,violation`.

    `classification` is a sequence of (passed_array, violation_array)
    per stage; passed nodes print as "pass", others as "fail".
    """
    _write_table(path, "stage,node_index,rho,u_star,classification,violation", (
        (_stage(n, rho.values.size), range(rho.values.size), rho.values, u_n.values,
         np.where(ok, b"pass", b"fail"), viol)
        for n, (rho, u_n, (ok, viol)) in enumerate(zip(residual, control, classification))
    ))


def write_optimize_trace_csv(path: str, trace) -> None:
    """Header `iter,J,step,worst_residual`."""
    columns = (np.array([pt.iteration for pt in trace], dtype=np.int64),
               *(np.array([getattr(pt, f) for pt in trace], dtype=np.float64)
                 for f in ("cost", "step", "worst_residual")))
    _write_table(path, "iter,J,step,worst_residual", [columns])


def write_lq_trace_csv(path: str, cost: float, residual: float) -> None:
    """Header `iter,J,residual` and the one row `0,J,residual` of the LQ
    solve's one DDP Newton step."""
    _write_table(path, "iter,J,residual", [(range(1), np.array([cost]), np.array([residual]))])


def write_paths_csv(path: str, paths: SamplePaths) -> None:
    """Header `path_index,stage,eta,xi,probability`.

    Monte Carlo draws are equiprobable, so probability is 1/n_paths.
    """
    path_index, stage = np.indices(paths.eta.shape).reshape(2, -1)
    prob = np.broadcast_to(1.0 / paths.eta.shape[0], path_index.shape)
    _write_table(path, "path_index,stage,eta,xi,probability", [
        (path_index, stage, paths.eta.reshape(-1), paths.xi.reshape(-1), prob)
    ])


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
