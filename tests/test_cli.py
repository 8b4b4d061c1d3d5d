"""Command-line interface: artifacts, exit codes, determinism.

Golden values here are frozen from theory, not from program output: at
h = 0.5 every factor is the identity, and the h = 0.7 lag-1 covariance
is (2^1.4 - 2)/2 = 0.3195079107728942.
"""

import json
import os

import numpy as np
import pytest

from fgncontrol.cli import main
from fgncontrol.configs import parse_bsde_config, parse_model_config
from fgncontrol.dynamics import ModelSpec
from fgncontrol.lattice import lattice_for_hurst, noise_value
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

    @pytest.mark.parametrize("q,horizon", [(3, 5), (4, 4)])
    def test_build_driver_terminal_equals_lifted_sum(self, q, horizon):
        rng = np.random.default_rng([q, horizon])
        coeffs = [float(v) for v in rng.uniform(-1.0, 1.0, horizon)]
        zero_stage = {k: 0.0 for k in BSDE_CONFIG["driver"][0]}
        cfg = parse_bsde_config({
            "horizon": horizon, "hurst": 0.7, "quadrature_order": q,
            "terminal": {"constant": 0.3, "noise_coefficients": coeffs},
            "driver": [zero_stage] * horizon,
        })
        lat = lattice_for_hurst(0.7, horizon, q)
        # the route that lifts every xi_k to the leaves and adds, in stage order
        lifted = lat.constant(0.3, horizon)
        for k, c in enumerate(coeffs):
            lifted = lifted + noise_value(lat, k).at_level(horizon) * c
        terminal = cfg.build_driver(lat).terminal
        assert terminal.level == horizon
        assert np.array_equal(terminal.values, lifted.values)

    def test_order_override_flag(self, tmp_path):
        cfg = write_json_file(tmp_path / "b.json", BSDE_CONFIG)
        out = tmp_path / "o"
        assert run("solve-bsde", "--config", cfg, "--quadrature-order", 5, "--out", out) == 0
        rows = (out / "solution.csv").read_text().splitlines()
        assert rows[-1].startswith("2,24,")  # 5^2 terminal nodes

    def test_unsupported_order_exits_2(self, tmp_path):
        cfg = write_json_file(tmp_path / "b.json", BSDE_CONFIG)
        assert run("solve-bsde", "--config", cfg, "--quadrature-order", 17, "--out", tmp_path / "o") == 2


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

    def test_smp_check_nan_tol_exits_2(self, tmp_path):
        cfg = write_json_file(tmp_path / "m.json", MODEL_CONFIG)
        control = tmp_path / "u.csv"
        rows = ["stage,node_index,value,probability", "0,0,0.8,1"]
        rows += [f"1,{i},0.8,0.1" for i in range(3)]
        control.write_text("\n".join(rows) + "\n")
        out = tmp_path / "chk"
        code = run("smp-check", "--config", cfg, "--control", control, "--tol", "nan", "--out", out)
        assert code == 2
        assert not (out / "report.json").exists()
        assert not (out / "residual.csv").exists()

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
        model = parse_model_config(cfg).build_model()
        assert len(builds) == 1
        assert model.control_set.lower == -0.05 and model.control_set.upper == 0.05


class TestSeedValidation:
    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("whiten", "--hurst", 0.5, "--steps", 3, "--seed", -1, "--out", tmp_path / "o")
        assert info.value.code == 2

    def test_oversized_seed_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run("whiten", "--hurst", 0.5, "--steps", 3, "--seed", 2**64, "--out", tmp_path / "o")
        assert info.value.code == 2
