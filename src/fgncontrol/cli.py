"""Batch front end: JSON configs in, CSV/JSON artifacts out.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (bad
matrix, violated precondition, failed report), 4 I/O failure, 5 no
convergence.  Identical inputs and seed produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import configs, reporting
from .bsde import residual_orthogonality, solve_bsde
from .dynamics import constant_control
from .errors import (
    ConfigError,
    DepthMismatch,
    DualityMismatch,
    IndexOutOfRange,
    InvalidSpec,
    LatticeTooLarge,
    LevelMismatch,
    NoDescent,
    NonFiniteValue,
    NotConverged,
    NotPositiveDefinite,
    OutOfControlSet,
    TerminalConditionViolated,
    UnsupportedOrder,
    WrongHorizon,
)
from .lattice import lattice_for_hurst
from .lq import as_model, lq_fixed_point, verify_sufficiency, verify_uniqueness
from .noise import custom_covariance, fgn_covariance, whiten
from .selftest import run_all
from .smp import _gradient, check_stationarity, classify_nodes, optimize, solve_adjoint

ORTHOGONALITY_TOL = 1e-10
STATIONARITY_TOL = 1e-8

_CONVERGENCE_ERRORS = (NotConverged, NoDescent)
_NUMERIC_ERRORS = (
    NotPositiveDefinite,
    NonFiniteValue,
    LevelMismatch,
    DepthMismatch,
    IndexOutOfRange,
    OutOfControlSet,
    TerminalConditionViolated,
    DualityMismatch,
)
_CONFIG_ERRORS = (
    ConfigError,
    InvalidSpec,
    UnsupportedOrder,
    WrongHorizon,
    LatticeTooLarge,
    ValueError,
)


def _uint64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must fit in an unsigned 64-bit integer, got {text}")
    return value


def _require_out(args) -> str:
    if args.out is None:
        raise ConfigError("--out is required for this command")
    return args.out


def _stationarity_artifacts(out, lat, model, control, residual, tol):
    """Residual classification CSV plus the summary report dictionary."""
    station = check_stationarity(residual, control, model.control_set, tol)
    classification = []
    for n in range(control.horizon):
        violation, ok = classify_nodes(
            residual[n].values, control[n].values, model.control_set, tol
        )
        classification.append((ok, violation))
    reporting.write_residual_csv(
        os.path.join(out, "residual.csv"), residual, control, classification
    )
    return station, {
        "passed": station.passed,
        "worst_violation": station.worst_violation,
        "worst_stage": station.worst_stage,
        "worst_node": station.worst_node,
        "tol": station.tol,
    }


def cmd_whiten(args) -> int:
    out = _require_out(args)
    if args.cov_file is not None:
        if args.steps is not None:
            raise ConfigError("--steps cannot be combined with --cov-file")
        cov = custom_covariance(reporting.read_matrix_csv(args.cov_file))
    else:
        if args.steps is None:
            raise ConfigError("--hurst requires --steps")
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
    cfg = configs.load_bsde_config(args.config, order_override=args.quadrature_order)
    lat = lattice_for_hurst(cfg.hurst, cfg.horizon, cfg.quadrature_order)
    sol = solve_bsde(cfg.build_driver(lat), lat)
    worst_mean, worst_eta = residual_orthogonality(sol, lat)
    passed = worst_mean <= ORTHOGONALITY_TOL and worst_eta <= ORTHOGONALITY_TOL
    reporting.ensure_out_dir(out)
    reporting.write_bsde_csv(os.path.join(out, "solution.csv"), lat, sol)
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
    cfg = configs.load_lq_config(args.config, order_override=args.quadrature_order)
    lat = lattice_for_hurst(cfg.hurst, cfg.spec.horizon, cfg.quadrature_order)
    sol = lq_fixed_point(cfg.spec, lat, lat.basis)
    model = as_model(cfg.spec)
    reporting.ensure_out_dir(out)
    station, station_report = _stationarity_artifacts(
        out, lat, model, sol.control, sol.rho, STATIONARITY_TOL
    )
    suff = verify_sufficiency(cfg.spec, sol.control, lat, seed=args.seed)
    uniq = verify_uniqueness(cfg.spec, lat, seed=args.seed)
    reporting.write_control_csv(os.path.join(out, "u_star.csv"), lat, sol.control)
    reporting.write_adjoint_csv(os.path.join(out, "adjoint.csv"), sol.adjoint)
    reporting.write_lq_trace_csv(os.path.join(out, "iterations.csv"), sol.trace)
    passed = station.passed and suff.passed and uniq.passed
    reporting.write_json(
        os.path.join(out, "report.json"),
        {
            "J": sol.cost,
            "iterations": sol.iterations,
            "residual": sol.residual,
            "stationarity": station_report,
            "sufficiency": {
                "passed": suff.passed,
                "trials": suff.trials,
                "min_cost_gap": suff.min_cost_gap,
                "worst_quadratic_slack": suff.worst_quadratic_slack,
            },
            "uniqueness": {
                "passed": uniq.passed,
                "worst_parallelogram_slack": uniq.worst_parallelogram_slack,
            },
            "passed": passed,
        },
    )
    return 0 if passed else 3


def cmd_smp_check(args) -> int:
    out = _require_out(args)
    cfg = configs.load_model_config(args.config, order_override=args.quadrature_order)
    model = cfg.build_model()
    lat = lattice_for_hurst(cfg.hurst, cfg.horizon, cfg.quadrature_order)
    control = reporting.read_control_csv(args.control, lat, cfg.horizon)
    control.validate_in(model.control_set)
    x, adj = solve_adjoint(model, control, lat, lat.basis)
    residual = _gradient(model, control, [s.values for s in x], adj, lat, lat.basis)
    reporting.ensure_out_dir(out)
    station, station_report = _stationarity_artifacts(
        out, lat, model, control, residual, args.tol
    )
    reporting.write_state_csv(os.path.join(out, "state.csv"), lat, x)
    reporting.write_adjoint_csv(os.path.join(out, "adjoint.csv"), adj)
    reporting.write_json(os.path.join(out, "report.json"), station_report)
    return 0


def cmd_optimize(args) -> int:
    out = _require_out(args)
    if not np.isfinite(args.u0):
        raise ConfigError(f"--u0 must be finite, got {args.u0}")
    cfg = configs.load_model_config(args.config, order_override=args.quadrature_order)
    model = cfg.build_model()
    lat = lattice_for_hurst(cfg.hurst, cfg.horizon, cfg.quadrature_order)
    start = model.control_set.project(np.array([args.u0]))[0]
    result = optimize(
        model,
        constant_control(lat, cfg.horizon, float(start)),
        lat,
        lat.basis,
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
    common.add_argument(
        "--quadrature-order", type=int, default=None,
        help="override the quadrature order from the config",
    )
    common.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("whiten", parents=[common], help="factor an increment covariance")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--hurst", type=float, help="Hurst index in (0, 1)")
    source.add_argument("--cov-file", help="covariance CSV (header n,k,value)")
    p.add_argument("--steps", type=int, default=None, help="number of increments (with --hurst)")
    p.set_defaults(func=cmd_whiten)

    p = sub.add_parser("solve-bsde", parents=[common], help="solve a backward equation")
    p.add_argument("--config", required=True, help="JSON problem file")
    p.set_defaults(func=cmd_solve_bsde)

    p = sub.add_parser("lq", parents=[common], help="linear-quadratic optimal control")
    p.add_argument("--config", required=True, help="JSON problem file")
    p.set_defaults(func=cmd_lq)

    p = sub.add_parser("smp-check", parents=[common], help="stationarity check of a control")
    p.add_argument("--config", required=True, help="JSON model file")
    p.add_argument("--control", required=True, help="control CSV (stage,node_index,value[,probability])")
    p.add_argument("--tol", type=float, default=STATIONARITY_TOL, help="violation tolerance")
    p.set_defaults(func=cmd_smp_check)

    p = sub.add_parser("optimize", parents=[common], help="DDP (Newton) steps to a stationary control")
    p.add_argument("--config", required=True, help="JSON model file")
    p.add_argument("--tol", type=float, default=STATIONARITY_TOL, help="stationarity tolerance")
    p.add_argument("--max-iter", type=int, default=1000, help="iteration cap")
    p.add_argument(
        "--u0", type=float, default=0.0,
        help="constant initial control (projected into the control set)",
    )
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance criteria")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _CONVERGENCE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
