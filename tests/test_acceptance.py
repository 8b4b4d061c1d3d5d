"""Acceptance gate: twelve go/no-go criteria, one test each.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and asserts the criterion outcome.  Tolerances live inside the
criterion implementations in fgncontrol.selftest; the tests here only
refuse to pass when a criterion reports failure.
"""

import itertools
import subprocess
import sys

from fgncontrol import cli, selftest
from fgncontrol.lq import UniquenessReport


def check(fn, seed=0):
    result = fn(seed)
    print(result.line())
    assert result.passed, result.line()
    return result


def test_criterion_01_whitening_roundtrip():
    check(selftest.criterion_whitening_roundtrip)


def test_criterion_02_white_noise_reduction():
    check(selftest.criterion_white_noise_reduction)


def test_criterion_03_sample_covariance():
    check(selftest.criterion_sample_covariance)


def test_criterion_04_backward_solution_matches_enumeration():
    check(selftest.criterion_bsde_oracle)


def test_criterion_05_residual_orthogonality():
    check(selftest.criterion_orthogonality)


def test_criterion_06_duality_identity():
    check(selftest.criterion_duality)


def test_criterion_07_gradient_against_finite_differences():
    check(selftest.criterion_gradient_check)


def test_criterion_08_variation_convergence_rate():
    check(selftest.criterion_variation_rate)


def test_criterion_09_one_step_closed_form():
    check(selftest.criterion_lq_closed_form)


def test_criterion_10_lq_certificates():
    check(selftest.criterion_lq_certificates)


def test_criterion_11_cross_solver_agreement():
    check(selftest.criterion_cross_solver)


def _tree(root):
    """Sorted file paths under root, relative to it."""
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_criterion_12_artifact_determinism(tmp_path):
    result = check(selftest.criterion_determinism)

    # Repeat through the real command line: two fresh processes must
    # produce byte-identical artifact trees and stdout.
    logs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        proc = subprocess.run(
            [sys.executable, "-m", "fgncontrol.cli", "selftest", "--out", str(out)],
            capture_output=True,
            text=True,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        logs.append(proc.stdout)
    assert logs[0] == logs[1]
    names = _tree(tmp_path / "a")
    assert names == _tree(tmp_path / "b")
    mismatch = [
        name for name in names
        if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes()
    ]
    assert mismatch == []
    assert len(names) >= 23
    print(result.line())


def test_criterion_12_catches_nondeterministic_lq_report(monkeypatch):
    # a certificate that differs between runs must show up in lq/report.json
    slacks = itertools.count(1)

    def unstable(spec, lat, seed=0):
        return UniquenessReport(passed=True, worst_parallelogram_slack=float(next(slacks)))

    monkeypatch.setattr(cli, "verify_uniqueness", unstable)
    result = selftest.criterion_determinism(0)
    assert not result.passed
    assert "lq/report.json" in result.detail, result.detail
