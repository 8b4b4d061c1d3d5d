"""Command-line interface: artifacts, exit codes, determinism.

Golden values here are frozen from theory, not from program output: at
h = 0.5 every factor is the identity, and the h = 0.7 lag-1 covariance
is (2^1.4 - 2)/2 = 0.3195079107728942.
"""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fgncontrol import cli, configs, errors, smp
from fgncontrol.cli import main
from fgncontrol.configs import parse_bsde_config, parse_lq_config, parse_model_config
from fgncontrol.dynamics import ModelSpec
from fgncontrol.lattice import MAX_DEPTH, MAX_PATHS, lattice_for_hurst, noise_value
from fgncontrol.reporting import read_matrix_csv, write_matrix_csv


def run(*argv):
    return main([str(a) for a in argv])


def write_json_file(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


LQ_CONFIG = {
    "horizon": 2,
    "A": [0.3, -0.2], "B": [1.0, 0.8], "C": [0.2, 0.3], "D": [0.5, 0.4],
    "Q": [0.6, 0.4], "R": [1.0, 1.2], "G": 1.1, "x": 1.3,
    "hurst": 0.7, "quadrature_order": 3,
}

BSDE_CONFIG = {
    "horizon": 2,
    "hurst": 0.3,
    "quadrature_order": 3,
    "terminal": {"constant": 0.2, "noise_coefficients": [0.5, -0.4]},
    "driver": [
        {"f_constant": 0.1, "f_y": 0.3, "f_z": 0.2, "g_constant": 0.0, "g_y": 0.4, "g_z": 0.1},
        {"f_constant": -0.2, "f_y": 0.1, "f_z": 0.0, "g_constant": 0.0, "g_y": 0.0, "g_z": 0.0},
    ],
}

MODEL_CONFIG = {
    "horizon": 2,
    "initial_state": 1.0,
    "hurst": 0.7,
    "quadrature_order": 3,
    "control_set": "unconstrained",
    "model": {"type": "sin_drift", "c": 0.5},
}


class TestWhiten:
    def test_white_noise_golden_files(self, tmp_path):
        out = tmp_path / "w"
        assert run("whiten", "--hurst", 0.5, "--steps", 3, "--out", out) == 0
        identity_csv = "n,k,value\n0,0,1\n1,1,1\n2,2,1\n"
        assert (out / "sigma.csv").read_text() == identity_csv
        assert (out / "b.csv").read_text() == identity_csv
        assert (out / "a.csv").read_text() == identity_csv
        assert (out / "c.csv").read_text() == "n,k,value\n"
        checks = json.loads((out / "checks.json").read_text())
        assert checks == {
            "max_abs_bbT_minus_sigma": 0.0,
            "max_abs_ab_minus_identity": 0.0,
            "size": 3,
        }

    def test_lag_one_covariance_value(self, tmp_path):
        out = tmp_path / "w"
        assert run("whiten", "--hurst", 0.7, "--steps", 2, "--out", out) == 0
        assert "0,1,0.3195079107728942\n" in (out / "sigma.csv").read_text()

    def test_cov_file_roundtrip(self, tmp_path):
        rho = 0.6
        sigma = np.array([[1.0, rho, rho**2], [rho, 1.0, rho], [rho**2, rho, 1.0]])
        cov_path = tmp_path / "cov.csv"
        write_matrix_csv(str(cov_path), sigma)
        out = tmp_path / "w"
        assert run("whiten", "--cov-file", cov_path, "--out", out) == 0
        b = read_matrix_csv(str(out / "b.csv"))
        assert np.max(np.abs(b @ b.T - sigma)) <= 1e-12

    def test_missing_both_inputs_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("whiten", "--out", tmp_path / "w")
        assert info.value.code == 2

    def test_both_inputs_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("whiten", "--hurst", 0.5, "--cov-file", "x.csv", "--out", tmp_path / "w")
        assert info.value.code == 2

    def test_steps_with_cov_file_exits_2(self, tmp_path):
        cov_path = tmp_path / "cov.csv"
        write_matrix_csv(str(cov_path), np.eye(2))
        assert run("whiten", "--cov-file", cov_path, "--steps", 4, "--out", tmp_path / "w") == 2

    def test_hurst_without_steps_exits_2(self, tmp_path):
        assert run("whiten", "--hurst", 0.5, "--out", tmp_path / "w") == 2

    @pytest.mark.parametrize("steps", [0, MAX_DEPTH + 2])
    def test_steps_outside_budget_exits_2(self, tmp_path, capsys, steps):
        assert run("whiten", "--hurst", 0.7, "--steps", steps, "--out", tmp_path / "w") == 2
        assert capsys.readouterr().err == f"error: --steps must be in [1, {MAX_DEPTH + 1}], got {steps}\n"
        assert not (tmp_path / "w").exists()

    def test_cov_file_index_over_budget_exits_2(self, tmp_path, capsys):
        cov_path = tmp_path / "cov.csv"
        cov_path.write_text(f"n,k,value\n0,0,1.0\n{MAX_DEPTH + 1},0,0.5\n")
        assert run("whiten", "--cov-file", cov_path, "--out", tmp_path / "w") == 2
        assert f"line 3: index {MAX_DEPTH + 1} exceeds the cap of {MAX_DEPTH}" in capsys.readouterr().err

    def test_hurst_out_of_range_exits_2(self, tmp_path):
        assert run("whiten", "--hurst", 1.7, "--steps", 4, "--out", tmp_path / "w") == 2

    def test_indefinite_covariance_exits_3(self, tmp_path):
        cov_path = tmp_path / "cov.csv"
        write_matrix_csv(str(cov_path), np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert run("whiten", "--cov-file", cov_path, "--out", tmp_path / "w") == 3

    def test_out_pointing_at_file_exits_4(self, tmp_path):
        target = tmp_path / "occupied"
        target.write_text("")
        assert run("whiten", "--hurst", 0.5, "--steps", 3, "--out", target) == 4

    def test_missing_out_exits_2(self):
        assert run("whiten", "--hurst", 0.5, "--steps", 3) == 2


class TestSolveBsde:
    def test_writes_solution_and_passes(self, tmp_path):
        cfg = write_json_file(tmp_path / "b.json", BSDE_CONFIG)
        out = tmp_path / "out"
        assert run("solve-bsde", "--config", cfg, "--out", out) == 0
        report = json.loads((out / "orthogonality.json").read_text())
        assert report["passed"] is True
        assert report["worst_r_mean"] <= 1e-10
        header = (out / "solution.csv").read_text().splitlines()[0]
        assert header == "stage,node_index,Y,Z,R_mean_check,R_eta_check"

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"horizon": 2,\n  broken')
        assert run("solve-bsde", "--config", bad, "--out", tmp_path / "o") == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "column" in err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = dict(BSDE_CONFIG)
        cfg["surprise"] = 1
        path = write_json_file(tmp_path / "b.json", cfg)
        assert run("solve-bsde", "--config", path, "--out", tmp_path / "o") == 2

    def test_wrong_driver_length_exits_2(self, tmp_path):
        cfg = dict(BSDE_CONFIG)
        cfg["driver"] = cfg["driver"][:1]
        path = write_json_file(tmp_path / "b.json", cfg)
        assert run("solve-bsde", "--config", path, "--out", tmp_path / "o") == 2

    def test_nonzero_terminal_z_coefficient_exits_2(self, tmp_path):
        cfg = json.loads(json.dumps(BSDE_CONFIG))
        cfg["driver"][1]["g_z"] = 0.3
        path = write_json_file(tmp_path / "b.json", cfg)
        assert run("solve-bsde", "--config", path, "--out", tmp_path / "o") == 2

    def test_missing_config_file_exits_4(self, tmp_path):
        assert run("solve-bsde", "--config", tmp_path / "nope.json", "--out", tmp_path / "o") == 4

    def test_terminal_noise_solved_at_horizon_depth(self, tmp_path):
        cfg = json.loads(json.dumps(BSDE_CONFIG))
        cfg["driver"][1]["g_constant"] = 0.5  # reads basis row 2 on a depth-2 lattice
        path = write_json_file(tmp_path / "b.json", cfg)
        out = tmp_path / "o"
        assert run("solve-bsde", "--config", path, "--out", out) == 0
        last = (out / "solution.csv").read_text().splitlines()[-1]
        assert last.startswith("2,8,")  # terminal stage still has 9 nodes

    @pytest.mark.parametrize("q,horizon", [(3, 5), (4, 4), (3, 11)])
    def test_build_driver_terminal_equals_lifted_sum(self, q, horizon):
        rng = np.random.default_rng([q, horizon])
        coeffs = [float(v) for v in rng.uniform(-1.0, 1.0, horizon)]
        zero_stage = {k: 0.0 for k in BSDE_CONFIG["driver"][0]}
        cfg = parse_bsde_config({
            "horizon": horizon, "hurst": 0.7, "quadrature_order": q,
            "terminal": {"constant": 0.3, "noise_coefficients": coeffs},
            "driver": [zero_stage] * horizon,
        })
        lat = cfg.lattice
        assert (lat.depth, lat.rule.q) == (horizon, q)
        # the route that lifts every xi_k to the leaves and adds, in stage order
        lifted = lat.constant(0.3, horizon)
        for k, c in enumerate(coeffs):
            lifted = lifted + noise_value(lat, k).at_level(horizon) * c
        terminal = cfg.driver.terminal
        assert terminal.level == horizon
        assert np.array_equal(terminal.values, lifted.values)

    def test_unsupported_order_exits_2(self, tmp_path):
        cfg = write_json_file(tmp_path / "b.json", dict(BSDE_CONFIG, quadrature_order=17))
        assert run("solve-bsde", "--config", cfg, "--out", tmp_path / "o") == 2

    def test_order_flag_is_gone(self, tmp_path):
        # the config's quadrature_order is the one source of q
        cfg = write_json_file(tmp_path / "b.json", BSDE_CONFIG)
        with pytest.raises(SystemExit) as info:
            run("solve-bsde", "--config", cfg, "--quadrature-order", 5, "--out", tmp_path / "o")
        assert info.value.code == 2
        assert not (tmp_path / "o").exists()


def count_classifications(monkeypatch):
    """Node counts of every `classify_nodes` call, from the CLI or the library."""
    sizes, classify = [], smp.classify_nodes

    def spy(rho, u, control_set, tol):
        sizes.append(np.size(rho))
        return classify(rho, u, control_set, tol)

    monkeypatch.setattr(smp, "classify_nodes", spy)
    monkeypatch.setattr(cli, "classify_nodes", spy)
    return sizes


class TestLq:
    def test_full_run_reports_pass(self, tmp_path):
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        out = tmp_path / "out"
        assert run("lq", "--config", cfg, "--out", out) == 0
        for name in ("u_star.csv", "adjoint.csv", "iterations.csv", "residual.csv", "report.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["stationarity"]["worst_violation"] <= 1e-8
        assert report["sufficiency"]["passed"] is True
        assert report["uniqueness"]["passed"] is True

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("lq", "--config", cfg, "--seed", 7, "--out", out_a) == 0
        assert run("lq", "--config", cfg, "--seed", 7, "--out", out_b) == 0
        for name in sorted(os.listdir(out_a)):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_one_model_build_per_run(self, tmp_path, monkeypatch):
        # the solve, the stationarity report and both certificates share
        # one model, so its derivative guard runs once per run
        builds = []
        init = ModelSpec.__post_init__

        def counted(self):
            builds.append(1)
            init(self)

        monkeypatch.setattr(ModelSpec, "__post_init__", counted)
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        assert run("lq", "--config", cfg, "--out", tmp_path / "out") == 0
        assert len(builds) == 1

    def test_one_classification_per_stage(self, tmp_path, monkeypatch):
        # report.json and residual.csv read the same per-stage classification
        sizes = count_classifications(monkeypatch)
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        assert run("lq", "--config", cfg, "--out", tmp_path / "out") == 0
        assert sizes == [1, 3]  # stages 0 and 1 of q = 3

    def test_shallow_lattice_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            configs, "lattice_for_hurst", lambda h, depth, order: lattice_for_hurst(h, depth - 1, order)
        )
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        assert run("lq", "--config", cfg, "--out", tmp_path / "o") == 3
        assert "lattice depth 1 < horizon 2" in capsys.readouterr().err

    def test_negative_weight_exits_2(self, tmp_path):
        cfg = dict(LQ_CONFIG)
        cfg["R"] = [1.0, -0.5]
        path = write_json_file(tmp_path / "lq.json", cfg)
        assert run("lq", "--config", path, "--out", tmp_path / "o") == 2


class TestSmpCheckAndOptimize:
    def test_optimizer_output_passes_check(self, tmp_path):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        opt_out = tmp_path / "opt"
        assert run("optimize", "--config", cfg, "--tol", 1e-6, "--out", opt_out) == 0
        report = json.loads((opt_out / "report.json").read_text())
        assert report["converged"] is True
        chk_out = tmp_path / "chk"
        code = run(
            "smp-check", "--config", cfg, "--control", opt_out / "u_star.csv",
            "--tol", 1e-5, "--out", chk_out,
        )
        assert code == 0
        chk = json.loads((chk_out / "report.json").read_text())
        assert chk["passed"] is True
        first = (chk_out / "residual.csv").read_text().splitlines()[:2]
        assert first[0] == "stage,node_index,rho,u_star,classification,violation"
        assert first[1].split(",")[4] == "pass"

    def test_smp_check_flags_non_stationary_control(self, tmp_path):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        control = tmp_path / "u.csv"
        rows = ["stage,node_index,value,probability", "0,0,0.8,1"]
        rows += [f"1,{i},0.8,0.1" for i in range(3)]
        control.write_text("\n".join(rows) + "\n")
        out = tmp_path / "chk"
        assert run("smp-check", "--config", cfg, "--control", control, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False
        assert report["worst_violation"] > 1e-3

    def test_smp_check_classifies_each_stage_once(self, tmp_path, monkeypatch):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        opt_out = tmp_path / "opt"
        assert run("optimize", "--config", cfg, "--out", opt_out) == 0
        sizes = count_classifications(monkeypatch)
        code = run("smp-check", "--config", cfg, "--control", opt_out / "u_star.csv",
                   "--out", tmp_path / "chk")
        assert code == 0
        assert sizes == [1, 3]

    def test_control_outside_box_exits_3(self, tmp_path):
        cfg = dict(MODEL_CONFIG)
        cfg["control_set"] = {"box": [-0.1, 0.1]}
        path = write_json_file(tmp_path / "m.json", cfg)
        control = tmp_path / "u.csv"
        rows = ["stage,node_index,value,probability", "0,0,5.0,1"]
        rows += [f"1,{i},5.0,0.1" for i in range(3)]
        control.write_text("\n".join(rows) + "\n")
        assert run("smp-check", "--config", path, "--control", control, "--out", tmp_path / "o") == 3

    def test_control_wrong_node_count_exits_2(self, tmp_path):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        control = tmp_path / "u.csv"
        control.write_text("stage,node_index,value,probability\n0,0,0.1,1\n1,0,0.1,0.3\n")
        assert run("smp-check", "--config", cfg, "--control", control, "--out", tmp_path / "o") == 2

    def test_optimize_zero_iterations_exits_5(self, tmp_path):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        out = tmp_path / "o"
        assert run("optimize", "--config", cfg, "--max-iter", 0, "--tol", 1e-10, "--out", out) == 5
        report = json.loads((out / "report.json").read_text())
        assert report["converged"] is False

    @pytest.mark.parametrize(
        "flags", [("--max-iter", -1), ("--tol", "nan"), ("--tol", -1.0)]
    )
    def test_optimize_invalid_tol_or_max_iter_exits_2(self, tmp_path, flags):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        out = tmp_path / "o"
        assert run("optimize", "--config", cfg, *flags, "--out", out) == 2
        assert not out.exists()

    @pytest.mark.parametrize("u0", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("control_set", ["unconstrained", {"box": [-0.2, 0.2]}])
    def test_optimize_non_finite_u0_exits_2(self, tmp_path, u0, control_set):
        cfg = write_json_file(tmp_path / "m.json", dict(MODEL_CONFIG, control_set=control_set))
        out = tmp_path / "o"
        assert run("optimize", "--config", cfg, f"--u0={u0}", "--out", out) == 2
        assert not out.exists()

    def test_smp_check_nan_residual_exits_3(self, tmp_path, monkeypatch, capsys):
        # classify_nodes fails a NaN node; the report must not call it stationary
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        opt_out = tmp_path / "opt"
        assert run("optimize", "--config", cfg, "--out", opt_out) == 0
        residual = cli.smp_residual

        def nan_at_stage_1_node_2(*args):
            rho = residual(*args)
            values = rho[1].values.copy()
            values[2] = np.nan
            return smp.SmpResidual((rho[0], rho.lattice.from_values(1, values)))

        monkeypatch.setattr(cli, "smp_residual", nan_at_stage_1_node_2)
        out = tmp_path / "chk"
        code = run("smp-check", "--config", cfg, "--control", opt_out / "u_star.csv", "--out", out)
        assert code == 3
        assert "at stage 1, node 2" in capsys.readouterr().err
        assert not (out / "report.json").exists() and not (out / "residual.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_smp_check_nan_tol_exits_2(self, tmp_path, tol):
        # rejected before the adjoint solve, so no output directory appears
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        control = tmp_path / "u.csv"
        rows = ["stage,node_index,value,probability", "0,0,0.8,1"]
        rows += [f"1,{i},0.8,0.1" for i in range(3)]
        control.write_text("\n".join(rows) + "\n")
        out = tmp_path / "chk"
        code = run("smp-check", "--config", cfg, "--control", control, f"--tol={tol}", "--out", out)
        assert code == 2
        assert not out.exists()

    def test_optimize_respects_box_start_projection(self, tmp_path):
        cfg = dict(MODEL_CONFIG)
        cfg["control_set"] = {"box": [-0.2, 0.2]}
        path = write_json_file(tmp_path / "m.json", cfg)
        out = tmp_path / "o"
        assert run("optimize", "--config", path, "--u0", 5.0, "--tol", 1e-6, "--out", out) == 0
        values = [
            float(line.split(",")[2])
            for line in (out / "u_star.csv").read_text().splitlines()[1:]
        ]
        assert all(-0.2 <= v <= 0.2 for v in values)

    def test_lq_model_type_with_box(self, tmp_path):
        cfg = {
            "horizon": 2,
            "initial_state": 1.0,
            "hurst": 0.5,
            "quadrature_order": 3,
            "control_set": {"box": [-0.05, 0.05]},
            "model": {
                "type": "lq",
                "A": [0.3, -0.2], "B": [1.0, 0.8], "C": [0.2, 0.3], "D": [0.5, 0.4],
                "Q": [0.6, 0.4], "R": [1.0, 1.2], "G": 1.1,
            },
        }
        path = write_json_file(tmp_path / "m.json", cfg)
        out = tmp_path / "o"
        assert run("optimize", "--config", path, "--tol", 1e-7, "--out", out) == 0
        values = [
            float(line.split(",")[2])
            for line in (out / "u_star.csv").read_text().splitlines()[1:]
        ]
        assert all(-0.05 <= v <= 0.05 for v in values)


    def test_lq_model_on_box_built_once(self, monkeypatch):
        # the Box goes into the one ModelSpec, so its derivative guard runs once
        builds = []
        init = ModelSpec.__post_init__

        def counted(self):
            builds.append(1)
            init(self)

        monkeypatch.setattr(ModelSpec, "__post_init__", counted)
        cfg = dict(
            MODEL_CONFIG,
            control_set={"box": [-0.05, 0.05]},
            model={"type": "lq", "A": [0.3, -0.2], "B": [1.0, 0.8], "C": [0.2, 0.3],
                   "D": [0.5, 0.4], "Q": [0.6, 0.4], "R": [1.0, 1.2], "G": 1.1},
        )
        model = parse_model_config(cfg).model
        assert len(builds) == 1
        assert model.control_set.lower == -0.05 and model.control_set.upper == 0.05


class TestConfigNumbers:
    """JSON reads NaN, Infinity and 1e999 as floats and takes integers of any
    size; each is a configuration error (exit 2) naming the file, the key and
    the value, raised when the config is read."""

    HUGE = "1" + "0" * 400  # an integer no float can hold

    @pytest.mark.parametrize(
        "command, config, keys, literal, shown",
        [
            ("solve-bsde", BSDE_CONFIG, ("terminal", "constant"), "NaN", "nan"),
            ("optimize", MODEL_CONFIG, ("model", "c"), "Infinity", "inf"),
            ("optimize", MODEL_CONFIG, ("initial_state",), "NaN", "nan"),
            ("optimize", MODEL_CONFIG, ("initial_state",), "1e999", "inf"),
            ("optimize", MODEL_CONFIG, ("initial_state",), HUGE, HUGE),
            ("lq", LQ_CONFIG, ("x",), "NaN", "nan"),
        ],
        ids=["bsde-constant-nan", "model-c-inf", "initial-state-nan", "initial-state-1e999",
             "initial-state-huge-int", "lq-x-nan"],
    )
    def test_exits_2_at_load(self, tmp_path, capsys, command, config, keys, literal, shown):
        config = json.loads(json.dumps(config))
        *outer, key = keys
        obj = config
        for name in outer:
            obj = obj[name]
        obj[key] = "@"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config).replace('"@"', literal))
        assert run(command, "--config", path, "--out", tmp_path / "o") == 2
        where = ".".join((str(path), *outer))
        assert capsys.readouterr().err == (
            f"error: {where}: {key} must be a finite number, got {shown}\n"
        )


class TestHorizonCap:
    """A horizon over MAX_DEPTH, or a `whiten` size over MAX_DEPTH + 1, exits 2
    before a model's O(horizon) guards and the O(size^2) whitening.  Each run
    is a fresh interpreter under a 4 GiB address-space limit, so a regression
    ends in MemoryError rather than asking for ~300 GiB; the child times
    `main` alone."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    CAPPED = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))
from fgncontrol.cli import main
start = time.perf_counter()
code = main(sys.argv[1:])
print(code, time.perf_counter() - start)
"""
    DEEP = 200_000

    def run_capped(self, argv, message):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.SRC, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", self.CAPPED, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, seconds = proc.stdout.split()
        assert int(code) == 2
        assert float(seconds) < 1.0
        assert proc.stderr == f"error: {message}\n"

    def run_deep(self, tmp_path, command, config):
        path = write_json_file(tmp_path / "deep.json", config)
        self.run_capped(
            [command, "--config", path, "--out", tmp_path / "o"],
            f"{path}: horizon must be in [1, {MAX_DEPTH}], got {self.DEEP}",
        )

    def test_order_one_lq(self, tmp_path):
        # 1^depth passes the path cap: whitening 200 001 increments ran out of memory
        coeffs = {name: [0.5] * self.DEEP for name in "ABCDQR"}
        self.run_deep(tmp_path, "lq", dict(LQ_CONFIG, horizon=self.DEEP, quadrature_order=1, **coeffs))

    def test_sin_drift_model(self, tmp_path):
        # the model's guards ran for ~20 s before the lattice's path cap exited 2
        self.run_deep(tmp_path, "optimize", dict(MODEL_CONFIG, horizon=self.DEEP))

    def test_whiten_steps(self, tmp_path):
        # fgn_covariance asked for 298 GiB and died in MemoryError, exit 1
        self.run_capped(
            ["whiten", "--hurst", 0.7, "--steps", self.DEEP, "--out", tmp_path / "o"],
            f"--steps must be in [1, {MAX_DEPTH + 1}], got {self.DEEP}",
        )

    def test_whiten_cov_file_index(self, tmp_path):
        # read_matrix_csv sized its matrix from the largest index: MemoryError, exit 1
        path = tmp_path / "cov.csv"
        path.write_text(f"n,k,value\n{self.DEEP},{self.DEEP},1.0\n")
        self.run_capped(
            ["whiten", "--cov-file", path, "--out", tmp_path / "o"],
            f"{path}: line 2: index {self.DEEP} exceeds the cap of {MAX_DEPTH}",
        )


def at_horizon(config, horizon):
    """A copy of LQ_CONFIG, MODEL_CONFIG or BSDE_CONFIG with every per-stage
    list stretched to `horizon` stages."""
    config = json.loads(json.dumps(config))
    config["horizon"] = horizon
    for name in "ABCDQR":
        if name in config:
            config[name] = config[name][:1] * horizon
    if "driver" in config:
        config["driver"] = config["driver"][:1] * (horizon - 1) + config["driver"][-1:]
        config["terminal"]["noise_coefficients"] = [0.5] * horizon
    return config


class TestLatticeAtLoad:
    """Each parser builds the config's lattice, so a lattice fault is a
    configuration error (exit 2) raised when the config is read."""

    PARSERS = {
        "solve-bsde": (parse_bsde_config, BSDE_CONFIG),
        "lq": (parse_lq_config, LQ_CONFIG),
        "optimize": (parse_model_config, MODEL_CONFIG),
    }

    @pytest.mark.parametrize("command", list(PARSERS))
    @pytest.mark.parametrize(
        "fault, error, message",
        [
            ({"hurst": 1.5}, ValueError, "Hurst index must lie in (0, 1), got 1.5"),
            ({"quadrature_order": 17}, errors.UnsupportedOrder, "quadrature order must be an int in [1, 16], got 17"),
            ({"quadrature_order": 10, "horizon": 8}, errors.LatticeTooLarge, f"10^8 exceeds the cap of {MAX_PATHS:.0e} paths"),
        ],
        ids=["hurst", "order", "paths"],
    )
    def test_exits_2_at_load(self, tmp_path, capsys, command, fault, error, message):
        parse, base = self.PARSERS[command]
        config = dict(at_horizon(base, fault.get("horizon", base["horizon"])), **fault)
        with pytest.raises(error, match=re.escape(message)):
            parse(config)
        path = write_json_file(tmp_path / "config.json", config)
        assert run(command, "--config", path, "--out", tmp_path / "o") == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "name, fault, error, message",
        [
            ("badh.json", {"hurst": 1.5}, ValueError, "Hurst index must lie in (0, 1), got 1.5"),
            ("badq.json", {"quadrature_order": 17}, errors.UnsupportedOrder,
             "quadrature order must be an int in [1, 16], got 17"),
            ("big.json", {"quadrature_order": 10, "horizon": 8}, errors.LatticeTooLarge,
             f"q^depth = 10^8 exceeds the cap of {MAX_PATHS:.0e} paths"),
        ],
        ids=["hurst", "order", "paths"],
    )
    def test_error_names_the_file(self, tmp_path, capsys, name, fault, error, message):
        config = dict(at_horizon(MODEL_CONFIG, fault.get("horizon", 2)), **fault)
        path = write_json_file(tmp_path / name, config)
        with pytest.raises(error) as caught:
            configs.load_model_config(path)
        assert type(caught.value) is error and str(caught.value) == f"{path}: {message}"
        assert run("optimize", "--config", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_lattice_is_built_before_the_model(self):
        # a negative R fails the LQ model; at (10, 8) the path cap is reported first
        model = {"type": "lq", "G": 1.1, "R": [-1.0] * 8, **{name: [0.5] * 8 for name in "ABCDQ"}}
        config = dict(MODEL_CONFIG, horizon=8, model=model)
        with pytest.raises(errors.InvalidSpec, match="R_n > 0"):
            parse_model_config(config)
        with pytest.raises(errors.LatticeTooLarge, match=re.escape("10^8 exceeds the cap")):
            parse_model_config(dict(config, quadrature_order=10))

    def test_config_holds_its_lattice(self):
        cfg = parse_lq_config(dict(LQ_CONFIG, hurst=0.3, quadrature_order=4))
        lat = cfg.lattice
        assert (lat.depth, lat.rule.q, cfg.spec.horizon) == (2, 4, 2)
        assert np.array_equal(lat.basis.b_mat, lattice_for_hurst(0.3, 2, 4).basis.b_mat)


class TestUserInputFaults:
    """Each fault of a user's CSV or JSON file exits 2 with one `error:`
    line on stderr, which names the file (and the place in it) and the fault."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty matrix file"),
            ("a,b,c\n", "expected header n,k,value, got ['a', 'b', 'c']"),
            ("n,k,value\n0,0\n", "line 2: expected 3 fields"),
            ("n,k,value\n0,x,1\n", "line 2: invalid literal for int() with base 10: 'x'"),
            ("n,k,value\n0,-1,1\n", "line 2: negative index"),
            (f"n,k,value\n0,0,1\n{MAX_DEPTH + 1},0,1\n",
             f"line 3: index {MAX_DEPTH + 1} exceeds the cap of {MAX_DEPTH}"),
            ("n,k,value\n0,0,1\n0,0,2\n", "line 3: entry (0, 0) repeated"),
            ("n,k,value\n", "no matrix entries"),
            ("n,k,value\n0,0,nan\n", "line 2: value must be finite, got 'nan'"),
            ("n,k,value\n0,0,-inf\n", "line 2: value must be finite, got '-inf'"),
            ("n,k,value\n0,0,1e999\n", "line 2: value must be finite, got '1e999'"),
            ("n,k,value\n0,0,1\n0,1,0.5\n1,1,1\n", "covariance is not symmetric"),
        ],
        ids=["empty", "header", "fields", "number", "negative", "cap", "repeated", "no-entries",
             "nan", "inf", "overflow", "asymmetric"],
    )
    def test_whiten_cov_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "cov.csv"
        path.write_text(text)
        assert run("whiten", "--cov-file", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    STAGES = "stage,node_index,value\n0,0,0.1\n1,0,0.1\n1,1,0.2\n1,2,0.3\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty control file"),
            ("stage,node\n",
             "expected header stage,node_index,value[,probability], got ['stage', 'node']"),
            ("stage,node_index,value\n0,0\n", "line 2: expected 3 or 4 fields"),
            ("stage,node_index,value\n0,0,abc\n",
             "line 2: could not convert string to float: 'abc'"),
            ("stage,node_index,value\n0,0,0.1\n", "missing rows for stage 1"),
            (STAGES.rsplit("1,2", 1)[0], "stage 1 must have node indices 0..2"),
            (STAGES + "5,0,0.0\n", "unexpected stages [5]"),
        ],
        ids=["empty", "header", "fields", "number", "missing-stage", "nodes", "extra-stage"],
    )
    def test_smp_check_control(self, tmp_path, capsys, text, message):
        config = write_json_file(tmp_path / "model.json", MODEL_CONFIG)
        path = tmp_path / "u.csv"
        path.write_text(text)
        assert run("smp-check", "--config", config, "--control", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "command, config, where, message",
        [
            ("optimize", [], "", "expected a JSON object, got list"),
            ("lq", {k: v for k, v in LQ_CONFIG.items() if k != "horizon"}, "",
             "missing keys ['horizon']"),
            ("lq", dict(LQ_CONFIG, x="1.3"), "", "x must be a number, got '1.3'"),
            ("solve-bsde", dict(BSDE_CONFIG, quadrature_order=3.0), "",
             "quadrature_order must be an integer, got 3.0"),
            ("solve-bsde",
             dict(BSDE_CONFIG, terminal={"constant": 0.2, "noise_coefficients": [0.5]}),
             ".terminal", "noise_coefficients must be a list of 2 numbers"),
            ("optimize", dict(MODEL_CONFIG, control_set={"box": [0.0]}), ".control_set",
             "box must be [lower, upper]"),
            ("optimize", dict(MODEL_CONFIG, control_set="free"), "",
             'control_set must be "unconstrained" or {"box": [lo, hi]}'),
            ("optimize", dict(MODEL_CONFIG, model={"c": 0.5}), ".model", "missing key 'type'"),
            ("optimize", dict(MODEL_CONFIG, model={"type": "cubic"}), ".model",
             "type must be \"sin_drift\" or \"lq\", got 'cubic'"),
            # faults of the domain constructors, LqSpec and Box
            ("lq", dict(LQ_CONFIG, R=[-1.0, 1.2]), "", "control weights require R_n > 0"),
            ("optimize", dict(MODEL_CONFIG, model={
                "type": "lq", "G": 1.1, **{k: LQ_CONFIG[k] for k in "ABCDQ"}, "R": [-1.0, 1.2],
            }), "", "control weights require R_n > 0"),
            ("optimize", dict(MODEL_CONFIG, control_set={"box": [1, 0]}), ".control_set",
             "need lower < upper, got [1.0, 0.0]"),
        ],
        ids=["not-object", "missing-key", "not-number", "not-integer", "list-length",
             "box-shape", "control-set", "model-type-missing", "model-type",
             "lq-weights", "model-lq-weights", "box-bounds"],
    )
    def test_config(self, tmp_path, capsys, command, config, where, message):
        path = write_json_file(tmp_path / "config.json", config)
        assert run(command, "--config", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {path}{where}: {message}\n"

    def test_whiten_singular_cov_file(self, tmp_path, capsys):
        # custom_covariance's NotPositiveDefinite keeps its exit status 3
        path = tmp_path / "cov.csv"
        path.write_text("n,k,value\n0,0,1\n0,1,1\n1,0,1\n1,1,1\n")
        assert run("whiten", "--cov-file", path, "--out", tmp_path / "o") == 3
        message = "pivot 0.000e+00 at step 1 is below tolerance 1e-12"
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,1,nan", "line 4: value must be finite, got 'nan'"),
            ("1,1,-inf", "line 4: value must be finite, got '-inf'"),
            ("1,1,1e999", "line 4: value must be finite, got '1e999'"),
            ("1,0,0.4", "line 4: entry (1, 0) repeated"),
        ],
        ids=["nan", "inf", "overflow", "repeated"],
    )
    def test_smp_check_control_value(self, tmp_path, capsys, row, message):
        # the row goes in as line 4, after stage 0 and the first stage-1 row
        config = write_json_file(tmp_path / "model.json", MODEL_CONFIG)
        lines = self.STAGES.splitlines(keepends=True)
        path = tmp_path / "u.csv"
        path.write_text("".join(lines[:3]) + row + "\n" + "".join(lines[3:]))
        assert run("smp-check", "--config", config, "--control", path, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    # 2 000 rows put the bad byte well past the first 8 KiB decoded
    MATRIX_ROWS = "n,k,value\n" + "".join(f"{i % 40},{i // 40},0.5\n" for i in range(2000))

    @pytest.mark.parametrize(
        "command, data, message",
        [
            ("lq", b"\xff\xfe" + json.dumps(LQ_CONFIG).encode("utf-16-le"),
             "line 1: byte 0xff is not UTF-8 (invalid start byte)"),
            ("whiten", MATRIX_ROWS.encode() + b"0,50,0.5\xff\n",
             "line 2002: byte 0xff is not UTF-8 (invalid start byte)"),
            ("smp-check", STAGES.replace("0.2", "0.\xe92").encode("latin-1"),
             "line 4: byte 0xe9 is not UTF-8 (invalid continuation byte)"),
        ],
        ids=["lq-config-utf16", "whiten-cov-file", "smp-check-control-latin1"],
    )
    def test_not_utf8(self, tmp_path, capsys, command, data, message):
        path = tmp_path / "input"
        path.write_bytes(data)
        config = write_json_file(tmp_path / "model.json", MODEL_CONFIG)
        argv = {"lq": ("--config", path), "whiten": ("--cov-file", path),
                "smp-check": ("--config", config, "--control", path)}[command]
        assert run(command, *argv, "--out", tmp_path / "o") == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


# The status `main` returns for each error a command raises.
EXIT_STATUS = {
    errors.NotConverged: 5, errors.NoDescent: 5,
    errors.NotPositiveDefinite: 3, errors.NonFiniteValue: 3, errors.LevelMismatch: 3,
    errors.DepthMismatch: 3, errors.IndexOutOfRange: 3, errors.OutOfControlSet: 3,
    errors.DualityMismatch: 3,
    errors.ConfigError: 2, errors.InvalidSpec: 2, errors.NotSymmetric: 2,
    errors.UnsupportedOrder: 2, errors.LatticeTooLarge: 2, errors.DerivativeMismatch: 2,
    errors.WrongHorizon: 2, ValueError: 2, OSError: 4,
}


class TestExitStatus:
    @pytest.mark.parametrize("exc_type", list(EXIT_STATUS), ids=lambda t: t.__name__)
    def test_error_type_sets_exit_status(self, exc_type, monkeypatch, capsys):
        def fail(args):
            raise exc_type("boom")

        monkeypatch.setattr(cli, "cmd_whiten", fail)
        assert run("whiten", "--hurst", 0.5, "--steps", 2) == EXIT_STATUS[exc_type]
        assert capsys.readouterr().err == "error: boom\n"

    def test_table_names_every_raised_error_type(self):
        raised = {
            obj for obj in vars(errors).values()
            if isinstance(obj, type) and issubclass(obj, errors.FgnControlError)
        }
        assert raised - {errors.FgnControlError} == set(EXIT_STATUS) - {ValueError, OSError}

    def test_every_error_type_has_a_raise_site(self):
        # a guard removed without its class would leave the class behind
        declared = {
            name for name, obj in vars(errors).items()
            if isinstance(obj, type) and issubclass(obj, errors.FgnControlError)
        }
        raised = set()
        for path in Path(errors.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                    func = node.exc.func
                    raised.add(func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None))
        assert declared - {"FgnControlError"} - raised == set()


class TestParser:
    # a fresh interpreter, so no earlier test has built the parser yet
    ONE_PARSER = """
import json, sys
from fgncontrol import cli
calls, build = [], cli.build_parser
def spy():
    calls.append(None)
    return build()
cli.build_parser = spy
work, lq_config = sys.argv[1], sys.argv[2]
codes = [cli.main(["whiten", "--hurst", "0.5", "--steps", "2", "--out", work + "/w"]),
         cli.main(["lq", "--config", lq_config, "--out", work + "/lq"])]
try:
    cli.main(["lq", "--no-such-flag"])
except SystemExit as exc:
    codes.append(exc.code)
print(json.dumps({"codes": codes, "parsers": len(calls)}))
"""

    def test_one_parser_per_process(self, tmp_path):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-c", self.ONE_PARSER, str(tmp_path), cfg],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"codes": [0, 0, 2], "parsers": 1}

    def test_build_parser_returns_a_fresh_tree(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_readme_names_only_existing_flags(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "README.md")) as fh:
            section = fh.read().split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        flags = {
            flag for sub in commands.choices.values() for action in sub._actions
            for flag in action.option_strings
        }
        assert "--seed" in named
        assert named <= flags, sorted(named - flags)


class TestSeedValidation:
    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("whiten", "--hurst", 0.5, "--steps", 3, "--seed", -1, "--out", tmp_path / "o")
        assert info.value.code == 2

    def test_oversized_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("whiten", "--hurst", 0.5, "--steps", 3, "--seed", 2**64, "--out", tmp_path / "o")
        assert info.value.code == 2


class TestRunsOnNumpyAlone:
    """Each check runs in a fresh interpreter: this process may already
    hold modules that other tests or plugins imported."""

    SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    BLOCKED = "import sys\nsys.modules['scipy'] = None\nfrom fgncontrol.cli import main\n"

    def python(self, code, *args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (self.SRC, env.get("PYTHONPATH")) if p)
        return subprocess.run(
            [sys.executable, "-c", code, *map(str, args)],
            env=env, capture_output=True, text=True, timeout=120,
        )

    def test_cli_import_loads_no_scipy(self):
        proc = self.python(
            "import sys, fgncontrol.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_whiten_with_scipy_blocked(self, tmp_path):
        argv = ["whiten", "--hurst", 0.7, "--steps", 5, "--out", tmp_path / "out"]
        proc = self.python(self.BLOCKED + "sys.exit(main(sys.argv[1:]))", *argv)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "a.csv").exists()

    def test_lq_with_scipy_blocked(self, tmp_path):
        cfg = write_json_file(tmp_path / "lq.json", LQ_CONFIG)
        argv = ["lq", "--config", cfg, "--out", tmp_path / "out"]
        proc = self.python(self.BLOCKED + "sys.exit(main(sys.argv[1:]))", *argv)
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "out" / "report.json").read_text())["passed"] is True
