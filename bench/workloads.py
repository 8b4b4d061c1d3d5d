"""The four benchmark workloads: inputs, timed calls and correctness gates.

Each workload turns a seed into a list of `Problem`s.  `Problem.run` is
the timed call: `fgncontrol.cli.main([...])` in-process for the CLI
workloads, the public library API for `stationarity-large`.
`Problem.check` is the correctness gate.  It reads what the run wrote
or returned and compares it with values recomputed here.  It raises
`GateFailure` on a wrong answer and returns whether the problem was
solved.  A CLI exit code that only means "not solved" (5: no
convergence, 3: failed certificate) is not a wrong answer.

The reference computations (`Oracle`) use plain numpy and share no code
with the package.  Each one builds its own Gauss-Hermite rule, its own
Cholesky factor of the increment covariance and its own noise tables.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

import fgncontrol as fc
from fgncontrol import cli, reporting
from fgncontrol.selftest import _random_lq_spec

HURST = 0.7
STATIONARITY_TOL = 1e-8
# |J_report - J_recomputed| for the same control; both are sums of the
# same float64 products in different orders.
CONSISTENCY_RTOL = 1e-10
# |J_report - J_reference| for a converged solve.
LQ_REFERENCE_RTOL = 1e-9
OPTIMIZE_REFERENCE_RTOL = 1e-7

# Optimal J of the sin-drift problem (x0 = 1, c = 0.5, h = 0.7, q = 3)
# from converged solves in the version this benchmark was added to; N = 4
# is that version's stalled value, whose worst residual of 4e-7 leaves J
# within 1e-12 of a stationary point.  Another stationary point would
# fail this gate.
OPTIMIZE_REFERENCE_J = {
    2: 1.3873209631150423,
    3: 1.7017496354166413,
    4: 2.739681754239858,
    5: 2.7396211313835432,
}

# lq-certify solves a fixed pool: draws 0..LQ_DRAWS-1 of
# default_rng([LQ_POOL_SEED, q, N, draw]) per shape.  The cost of a draw
# is set by how many fixed-point sweeps it needs (28 to the 500 cap), so
# letting the workload seed pick the draws would let the draw mix, not
# the code, decide solve_s.  The workload seed is the certificates' seed.
LQ_POOL_SEED = 0
LQ_DRAWS = 3


class GateFailure(Exception):
    """The program returned a wrong answer."""


@dataclass
class Problem:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    out: str | None = None  # output directory of a CLI problem


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(b))


def _write_json(path: str, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: cli.main(argv)


class Oracle:
    """Plain-numpy q-ary lattice of a given depth over fGn increments, h = 0.7.

    Tables are flat float64 arrays in the package's big-endian node order.
    """

    def __init__(self, q: int, depth: int):
        nodes, weights = hermegauss(q)
        self.q = q
        self.nodes = nodes
        self.weights = weights / weights.sum()
        lag = np.abs(np.subtract.outer(np.arange(depth + 1), np.arange(depth + 1))).astype(float)
        two_h = 2.0 * HURST
        sigma = 0.5 * (np.abs(lag + 1) ** two_h + np.abs(lag - 1) ** two_h - 2.0 * lag**two_h)
        self.b = np.linalg.cholesky(sigma)

    def _mix(self, row: int, stages: int) -> np.ndarray:
        """sum_{k < stages} b[row, k] eta_k as a level-`stages` table."""
        q = self.q
        out = np.zeros((q,) * stages)
        for k in range(stages):
            shape = [1] * stages
            shape[k] = q
            out = out + self.b[row, k] * self.nodes.reshape(shape)
        return out.reshape(-1)

    def xi(self, n: int) -> np.ndarray:
        """Increment xi_n, level n + 1."""
        return self._mix(n, n + 1)

    def mu(self, n: int) -> np.ndarray:
        """E[xi_n | first n noises], level n."""
        return self._mix(n, n) if n else np.zeros(1)

    def expect(self, table: np.ndarray) -> float:
        probs = np.ones(1)
        while probs.size < table.size:
            probs = np.multiply.outer(probs, self.weights).reshape(-1)
        return float(table @ probs)

    def contract(self, table: np.ndarray, factor=1.0) -> np.ndarray:
        """E[factor(eta_last) * table | one level up]."""
        return table.reshape(-1, self.q) @ (self.weights * factor)

    def lift(self, table: np.ndarray) -> np.ndarray:
        return np.repeat(table, self.q)

    def sin_drift_cost(self, u: list[np.ndarray], x0: float, c: float) -> float:
        x, total = np.array([x0]), 0.0
        for n, un in enumerate(u):
            total += self.expect(0.5 * un * un)
            x = self.lift(x + np.sin(x) + un) + self.lift(c * un) * self.xi(n)
        return total + self.expect(0.5 * x * x)

    def lq_cost(self, spec, u: list[np.ndarray]) -> float:
        x, total = np.array([spec.x]), 0.0
        for n, un in enumerate(u):
            total += self.expect(0.5 * (spec.Q[n] * x * x + spec.R[n] * un * un))
            drift = x * (1.0 + spec.A[n]) + spec.B[n] * un
            x = self.lift(drift) + self.lift(spec.C[n] * x + spec.D[n] * un) * self.xi(n)
        return total + self.expect(0.5 * spec.G * x * x)

    def lq_optimal_cost(self, spec) -> float:
        """Per-node Riccati pass: V_n = P_node x^2 / 2 is exact on the tree."""
        p = np.full(self.q**spec.horizon, float(spec.G))
        for n in reversed(range(spec.horizon)):
            xi = self.xi(n)
            alpha = 1.0 + spec.A[n] + spec.C[n] * xi
            gamma = spec.B[n] + spec.D[n] * xi
            s_aa = self.contract(p * alpha * alpha)
            s_ag = self.contract(p * alpha * gamma)
            s_gg = self.contract(p * gamma * gamma)
            p = spec.Q[n] + s_aa - s_ag * s_ag / (spec.R[n] + s_gg)
        return 0.5 * float(p[0]) * spec.x**2

    def bsde_root(self, config: dict) -> tuple[float, float]:
        """(Y_0, Z_0) of an affine-driver config whose last stage has g = 0."""
        horizon, stages = config["horizon"], config["driver"]
        terminal = config["terminal"]
        y = np.full(self.q**horizon, float(terminal["constant"]))
        for k, coeff in enumerate(terminal["noise_coefficients"]):
            y = y + coeff * np.repeat(self.xi(k), self.q ** (horizon - k - 1))
        z = np.zeros(1)
        for n in reversed(range(horizon)):
            s, st = n + 1, stages[n]
            z_s = 0.0 if s == horizon else z
            m = y + st["f_constant"] + st["f_y"] * y + st["f_z"] * z_s
            if s < horizon:
                m = m + self.mu(s) * (st["g_constant"] + st["g_y"] * y + st["g_z"] * z_s)
            y, z = self.contract(m), self.contract(m, self.nodes)
        return float(y[0]), float(z[0])


def _require_stationary(model, control, lat, label: str):
    _, adj = fc.solve_adjoint(model, control, lat, lat.basis)
    residual = fc.smp_residual(model, control, adj, lat, lat.basis)
    report = fc.check_stationarity(residual, control, model.control_set, STATIONARITY_TOL)
    if not report.passed:
        raise GateFailure(
            f"{label}: converged output is not stationary at {STATIONARITY_TOL:g} "
            f"(worst {report.worst_violation:.3e})"
        )


def _require_close(label: str, what: str, got: float, want: float, rtol: float):
    if not _rel_gap(got, want) <= rtol:
        raise GateFailure(f"{label}: {what} {got!r} differs from {want!r} beyond {rtol:g}")


# ------------------------------------------------------------ optimize-small


def check_optimize(label: str, horizon: int, out: str, code: int) -> bool:
    if code not in (0, 5):
        raise GateFailure(f"{label}: exit code {code}")
    report = _read_json(os.path.join(out, "report.json"))
    if report["converged"] != (code == 0):
        raise GateFailure(f"{label}: exit code {code} with converged={report['converged']}")
    lat = fc.lattice_for_hurst(HURST, horizon, 3)
    control = reporting.read_control_csv(os.path.join(out, "u_star.csv"), lat, horizon)
    recomputed = Oracle(3, horizon).sin_drift_cost([u.values for u in control], 1.0, 0.5)
    _require_close(label, "J", report["J"], recomputed, CONSISTENCY_RTOL)
    if code == 0:
        _require_stationary(fc.sin_drift_model(horizon, 1.0, 0.5), control, lat, label)
        _require_close(label, "J", report["J"], OPTIMIZE_REFERENCE_J[horizon],
                       OPTIMIZE_REFERENCE_RTOL)
    return code == 0


def optimize_small(seed: int, workdir: str, toy: bool) -> list[Problem]:
    """sin drift (x0 = 1, c = 0.5), zero start, tol 1e-8, cap 1000; the same
    for every seed, since it is the fixed repro of the N = 4 stall."""
    problems = []
    for horizon in (2,) if toy else (3, 4, 5):
        config = _write_json(os.path.join(workdir, f"optimize-N{horizon}.json"), {
            "horizon": horizon, "initial_state": 1.0, "hurst": HURST,
            "quadrature_order": 3, "control_set": "unconstrained",
            "model": {"type": "sin_drift", "c": 0.5},
        })
        out = os.path.join(workdir, f"optimize-N{horizon}")
        label = f"optimize q=3 N={horizon}"
        argv = ["optimize", "--config", config, "--tol", "1e-8", "--max-iter", "1000",
                "--u0", "0", "--seed", str(seed), "--out", out]
        problems.append(Problem(
            label, _cli(argv),
            lambda code, label=label, h=horizon, out=out: check_optimize(label, h, out, code),
            out,
        ))
    return problems


# ------------------------------------------------------------ lq-certify


def _lq_config(spec, q: int) -> dict:
    config = {"horizon": spec.horizon, "hurst": HURST, "quadrature_order": q,
              "G": float(spec.G), "x": float(spec.x)}
    for name in ("A", "B", "C", "D", "Q", "R"):
        config[name] = [float(v) for v in getattr(spec, name)]
    return config


def check_lq(label: str, spec, q: int, out: str, code: int) -> bool:
    if code == 5:
        return False
    if code not in (0, 3):
        raise GateFailure(f"{label}: exit code {code}")
    report_path = os.path.join(out, "report.json")
    if code == 3 and not os.path.exists(report_path):
        return False  # numeric failure before any certificate was written
    report = _read_json(report_path)
    if report["passed"] != (code == 0):
        raise GateFailure(f"{label}: exit code {code} with passed={report['passed']}")
    oracle = Oracle(q, spec.horizon)
    lat = fc.lattice_for_hurst(HURST, spec.horizon, q)
    control = reporting.read_control_csv(os.path.join(out, "u_star.csv"), lat, spec.horizon)
    recomputed = oracle.lq_cost(spec, [u.values for u in control])
    _require_close(label, "J", report["J"], recomputed, CONSISTENCY_RTOL)
    if code == 0:
        _require_stationary(fc.as_model(spec), control, lat, label)
        _require_close(label, "J", report["J"], oracle.lq_optimal_cost(spec), LQ_REFERENCE_RTOL)
    return code == 0


def lq_certify(seed: int, workdir: str, toy: bool) -> list[Problem]:
    problems = []
    shapes = ((3, 2),) if toy else ((3, 6), (5, 5), (3, 8))
    for q, horizon in shapes:
        for draw in range(LQ_DRAWS):
            spec = _random_lq_spec(np.random.default_rng([LQ_POOL_SEED, q, horizon, draw]), horizon)
            name = f"lq-q{q}-N{horizon}-d{draw}"
            config = _write_json(os.path.join(workdir, name + ".json"), _lq_config(spec, q))
            out = os.path.join(workdir, name)
            label = f"lq q={q} N={horizon} draw={draw}"
            argv = ["lq", "--config", config, "--seed", str(seed), "--out", out]
            problems.append(Problem(
                label, _cli(argv),
                lambda code, label=label, spec=spec, q=q, out=out: check_lq(label, spec, q, out, code),
                out,
            ))
    return problems


# ------------------------------------------------------------ stationarity-large


def _stationarity_sequence(model, control, lat) -> dict:
    """`smp-check` without its CSVs, through the public library API."""
    x, adj = fc.solve_adjoint(model, control, lat, lat.basis)
    residual = fc.smp_residual(model, control, adj, lat, lat.basis)
    report = fc.check_stationarity(residual, control, model.control_set, STATIONARITY_TOL)
    return {
        "J": fc.cost(model, control, x, lat),
        "worst_violation": report.worst_violation,
        "passed": report.passed,
        "max_abs_rho": max(float(np.max(np.abs(rho.values))) for rho in residual),
    }


def check_stationarity_outcome(label: str, reference: float, outcome: dict) -> bool:
    _require_close(label, "J", outcome["J"], reference, CONSISTENCY_RTOL)
    if outcome["worst_violation"] != outcome["max_abs_rho"]:
        raise GateFailure(f"{label}: worst violation {outcome['worst_violation']!r} "
                          f"is not max |rho| {outcome['max_abs_rho']!r}")
    if outcome["passed"] != (outcome["worst_violation"] <= STATIONARITY_TOL):
        raise GateFailure(f"{label}: pass flag disagrees with the worst violation")
    return True


def stationarity_large(seed: int, workdir: str, toy: bool) -> list[Problem]:
    problems = []
    for q, horizon in ((3, 3),) if toy else ((3, 12), (4, 10)):
        lat = fc.lattice_for_hurst(HURST, horizon, q)
        model = fc.sin_drift_model(horizon, initial_state=1.0, noise_gain=0.5)
        control = fc.random_control(lat, horizon, np.random.default_rng([seed, q, horizon]))
        label = f"stationarity q={q} N={horizon}"
        reference: list[float] = []

        def check(outcome, label=label, control=control, q=q, horizon=horizon, ref=reference):
            if not ref:
                ref.append(Oracle(q, horizon).sin_drift_cost([u.values for u in control], 1.0, 0.5))
            return check_stationarity_outcome(label, ref[0], outcome)

        problems.append(Problem(
            label,
            lambda model=model, control=control, lat=lat: _stationarity_sequence(model, control, lat),
            check,
        ))
    return problems


# ------------------------------------------------------------ bsde-export

_STAGE_KEYS = ("f_constant", "f_y", "f_z", "g_constant", "g_y", "g_z")
ORTHOGONALITY_TOL = 1e-10
BSDE_ROOT_RTOL = 1e-10


def _bsde_config(rng: np.random.Generator, q: int, horizon: int) -> dict:
    stages = [{k: float(rng.uniform(-0.5, 0.5)) for k in _STAGE_KEYS} for _ in range(horizon)]
    # no noise at the last stage: depth N, q^N paths
    stages[-1].update(f_z=0.0, g_constant=0.0, g_y=0.0, g_z=0.0)
    return {
        "horizon": horizon, "hurst": HURST, "quadrature_order": q,
        "terminal": {"constant": float(rng.uniform(-1.0, 1.0)),
                     "noise_coefficients": [float(v) for v in rng.uniform(-1.0, 1.0, horizon)]},
        "driver": stages,
    }


def check_bsde(label: str, config: dict, out: str, code: int) -> bool:
    if code != 0:
        raise GateFailure(f"{label}: exit code {code}")
    orth = _read_json(os.path.join(out, "orthogonality.json"))
    if not (orth["passed"] and orth["worst_r_mean"] <= ORTHOGONALITY_TOL
            and orth["worst_r_eta"] <= ORTHOGONALITY_TOL):
        raise GateFailure(f"{label}: orthogonality fails: {orth}")
    q, horizon = config["quadrature_order"], config["horizon"]
    with open(os.path.join(out, "solution.csv")) as fh:
        header = fh.readline().strip()
        root = fh.readline().split(",")
        rows = 2 + sum(1 for _ in fh)
    if header != "stage,node_index,Y,Z,R_mean_check,R_eta_check" or root[:2] != ["0", "0"]:
        raise GateFailure(f"{label}: solution.csv does not start with the root node")
    expected_rows = 1 + sum(q**n for n in range(horizon + 1))
    if rows != expected_rows:
        raise GateFailure(f"{label}: solution.csv has {rows} lines, expected {expected_rows}")
    y0, z0 = Oracle(q, horizon).bsde_root(config)
    _require_close(label, "Y_0", float(root[2]), y0, BSDE_ROOT_RTOL)
    _require_close(label, "Z_0", float(root[3]), z0, BSDE_ROOT_RTOL)
    return True


def bsde_export(seed: int, workdir: str, toy: bool) -> list[Problem]:
    problems = []
    for q, horizon in ((3, 3),) if toy else ((3, 11), (5, 8)):
        config = _bsde_config(np.random.default_rng([seed, q, horizon]), q, horizon)
        name = f"bsde-q{q}-N{horizon}"
        path = _write_json(os.path.join(workdir, name + ".json"), config)
        out = os.path.join(workdir, name)
        label = f"solve-bsde q={q} N={horizon}"
        argv = ["solve-bsde", "--config", path, "--seed", str(seed), "--out", out]
        problems.append(Problem(
            label, _cli(argv),
            lambda code, label=label, config=config, out=out: check_bsde(label, config, out, code),
            out,
        ))
    return problems


WORKLOADS = {
    "optimize-small": optimize_small,
    "lq-certify": lq_certify,
    "stationarity-large": stationarity_large,
    "bsde-export": bsde_export,
}
