"""Batch front end: JSON configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (bad
matrix, violated precondition, failed report), 4 I/O failure, 5 no
convergence.  A package error's status is its type's `exit_code`; any
other ValueError exits 2 and any OSError 4.  Identical inputs and seed
produce byte-identical files.

`main` builds its argparse tree on first use and keeps it for the rest
of the process.  It looks the handler of a command up in this module's
namespace at call time (`whiten` runs `cmd_whiten`), so a handler
replaced after import is the one that runs.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import configs, reporting
from .bsde import residual_orthogonality, solve_bsde
from .dynamics import constant_control
from .errors import ConfigError, FgnControlError
from .lattice import MAX_DEPTH
from .lq import as_model, lq_fixed_point, verify_sufficiency, verify_uniqueness
from .noise import custom_covariance, fgn_covariance, whiten
from .smp import (
    _check_tol,
    _worst_violation,
    classify_nodes,
    optimize,
    smp_residual,
    solve_adjoint,
)

ORTHOGONALITY_TOL = 1e-10
STATIONARITY_TOL = 1e-8


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in an unsigned 64-bit integer, got {text}")
    return value


def _require_out(args) -> str:
    if args.out is None:
        raise ConfigError("--out is required for this command")
    return args.out


def _stationarity_artifacts(out, model, control, residual, tol):
    """Residual classification CSV and report, from one `classify_nodes` per stage."""
    violations, passes = zip(*(
        classify_nodes(rho.values, u.values, model.control_set, tol)
        for rho, u in zip(residual, control)
    ))
    station = _worst_violation(violations, tol)
    reporting.write_residual_csv(
        os.path.join(out, "residual.csv"), residual, control, list(zip(passes, violations))
    )
    return station


def cmd_whiten(args) -> int:
    out = _require_out(args)
    if args.cov_file is not None:
        if args.steps is not None:
            raise ConfigError("--steps cannot be combined with --cov-file")
        entries = reporting.read_matrix_csv(args.cov_file)
        with configs._naming(args.cov_file):
            cov = custom_covariance(entries)
    else:
        if args.steps is None:
            raise ConfigError("--hurst requires --steps")
        # the largest covariance a lattice whitens: depth MAX_DEPTH, plus one
        if not 1 <= args.steps <= MAX_DEPTH + 1:
            raise ConfigError(f"--steps must be in [1, {MAX_DEPTH + 1}], got {args.steps}")
        cov = fgn_covariance(args.hurst, args.steps)
    basis = whiten(cov)
    reporting.ensure_out_dir(out)
    reporting.write_matrix_csv(os.path.join(out, "sigma.csv"), cov.sigma)
    reporting.write_matrix_csv(os.path.join(out, "b.csv"), basis.b_mat)
    reporting.write_matrix_csv(os.path.join(out, "a.csv"), basis.a_mat)
    reporting.write_matrix_csv(os.path.join(out, "c.csv"), basis.c_mat)
    eye = np.eye(cov.size)
    reporting.write_json(
        os.path.join(out, "checks.json"),
        {
            "max_abs_bbT_minus_sigma": float(np.max(np.abs(basis.b_mat @ basis.b_mat.T - cov.sigma))),
            "max_abs_ab_minus_identity": float(np.max(np.abs(basis.a_mat @ basis.b_mat - eye))),
            "size": cov.size,
        },
    )
    return 0


def cmd_solve_bsde(args) -> int:
    out = _require_out(args)
    cfg = configs.load_bsde_config(args.config)
    lat = cfg.lattice
    sol = solve_bsde(cfg.driver, lat)
    worst_mean, worst_eta = residual_orthogonality(sol, lat)
    passed = worst_mean <= ORTHOGONALITY_TOL and worst_eta <= ORTHOGONALITY_TOL
    reporting.ensure_out_dir(out)
    reporting.write_bsde_csv(os.path.join(out, "solution.csv"), sol)
    reporting.write_json(
        os.path.join(out, "orthogonality.json"),
        {
            "worst_r_mean": worst_mean,
            "worst_r_eta": worst_eta,
            "tol": ORTHOGONALITY_TOL,
            "passed": passed,
        },
    )
    return 0 if passed else 3


def cmd_lq(args) -> int:
    out = _require_out(args)
    cfg = configs.load_lq_config(args.config)
    lat = cfg.lattice
    sol = lq_fixed_point(cfg.spec, lat)
    model = as_model(cfg.spec)
    reporting.ensure_out_dir(out)
    station = _stationarity_artifacts(out, model, sol.control, sol.rho, STATIONARITY_TOL)
    suff = verify_sufficiency(cfg.spec, sol.control, lat, seed=args.seed)
    uniq = verify_uniqueness(cfg.spec, lat, seed=args.seed)
    reporting.write_control_csv(os.path.join(out, "u_star.csv"), lat, sol.control)
    reporting.write_adjoint_csv(os.path.join(out, "adjoint.csv"), sol.adjoint)
    reporting.write_lq_trace_csv(os.path.join(out, "iterations.csv"), sol.cost, sol.residual)
    passed = station.passed and suff.passed and uniq.passed
    reporting.write_json(
        os.path.join(out, "report.json"),
        {
            "J": sol.cost,
            "iterations": 0,
            "residual": sol.residual,
            "stationarity": dataclasses.asdict(station),
            "sufficiency": dataclasses.asdict(suff),
            "uniqueness": dataclasses.asdict(uniq),
            "passed": passed,
        },
    )
    return 0 if passed else 3


def cmd_smp_check(args) -> int:
    out = _require_out(args)
    _check_tol(args.tol)
    cfg = configs.load_model_config(args.config)
    model, lat = cfg.model, cfg.lattice
    control = reporting.read_control_csv(args.control, lat, model.horizon)
    x, adj = solve_adjoint(model, control, lat, lat.basis)
    residual = smp_residual(model, control, adj, lat, lat.basis)
    reporting.ensure_out_dir(out)
    station = _stationarity_artifacts(out, model, control, residual, args.tol)
    reporting.write_state_csv(os.path.join(out, "state.csv"), lat, x)
    reporting.write_adjoint_csv(os.path.join(out, "adjoint.csv"), adj)
    reporting.write_json(os.path.join(out, "report.json"), dataclasses.asdict(station))
    return 0


def cmd_optimize(args) -> int:
    out = _require_out(args)
    if not np.isfinite(args.u0):
        raise ConfigError(f"--u0 must be finite, got {args.u0}")
    cfg = configs.load_model_config(args.config)
    model, lat = cfg.model, cfg.lattice
    start = model.control_set.project(np.array([args.u0]))[0]
    result = optimize(
        model,
        constant_control(lat, model.horizon, float(start)),
        lat,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    reporting.ensure_out_dir(out)
    reporting.write_control_csv(os.path.join(out, "u_star.csv"), lat, result.control)
    reporting.write_optimize_trace_csv(os.path.join(out, "trace.csv"), result.trace)
    reporting.write_json(
        os.path.join(out, "report.json"),
        {
            "converged": result.converged,
            "iterations": result.iterations,
            "J": result.cost,
            "worst_residual": result.trace[-1].worst_residual,
            "tol": args.tol,
        },
    )
    return 0 if result.converged else 5


def cmd_selftest(args) -> int:
    from .selftest import run_all  # selftest runs the other commands through main

    if args.out is not None:
        reporting.ensure_out_dir(args.out)
    results = run_all(seed=args.seed, out_dir=args.out)
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgncontrol",
        description="Discrete-time optimal control driven by fractional Gaussian noise.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_uint64, default=0, help="RNG seed (unsigned 64-bit)")
    common.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("whiten", parents=[common], help="factor an increment covariance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--hurst", type=float, help="Hurst index in (0, 1)")
    source.add_argument("--cov-file", help="covariance CSV (header n,k,value)")
    p.add_argument("--steps", type=int, default=None, help="number of increments (with --hurst)")

    p = sub.add_parser("solve-bsde", parents=[common], help="solve a backward equation")
    p.add_argument("--config", required=True, help="JSON problem file")

    p = sub.add_parser("lq", parents=[common], help="linear-quadratic optimal control")
    p.add_argument("--config", required=True, help="JSON problem file")

    p = sub.add_parser("smp-check", parents=[common], help="stationarity check of a control")
    p.add_argument("--config", required=True, help="JSON model file")
    p.add_argument("--control", required=True, help="control CSV (stage,node_index,value[,probability])")
    p.add_argument("--tol", type=float, default=STATIONARITY_TOL, help="violation tolerance")

    p = sub.add_parser("optimize", parents=[common], help="DDP (Newton) steps to a stationary control")
    p.add_argument("--config", required=True, help="JSON model file")
    p.add_argument("--tol", type=float, default=STATIONARITY_TOL, help="stationarity tolerance")
    p.add_argument("--max-iter", type=int, default=1000, help="iteration cap")
    p.add_argument(
        "--u0", type=float, default=0.0,
        help="constant initial control (projected into the control set)",
    )

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance criteria")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser; `build_parser` still returns a fresh tree."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (FgnControlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2 if isinstance(exc, ValueError) else 4)


if __name__ == "__main__":
    sys.exit(main())
