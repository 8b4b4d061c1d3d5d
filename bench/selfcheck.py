"""Self-check of the benchmark at toy size.

    python3 bench/selfcheck.py

Checks, from the root of a source checkout:

1. every workload, traced and untraced, prints a result line with exactly
   the keys correct/attempted/failed/metrics, and its metrics are exactly
   the ones `BENCHMARK.json` names, each with its unit;
2. in a traced run the self times under the problem spans add up to the
   traced solve time, less the root spans' own bookkeeping;
3. each workload's correctness gate passes a genuine output and trips on
   a corrupted one (J or Y_0 perturbed by 1e-6 relative);
4. in a directory holding only `BENCHMARK.json` and the benchmark, the
   benchmark exits non-zero without printing a result.

Prints one PASS/FAIL line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
PERTURB = 1.0 + 1e-6


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def check_results(spec) -> list[tuple[str, bool, str]]:
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    out = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"result {workload} trace={trace}"
            proc = _run(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--toy"])
            if proc.returncode != 0:
                out.append((label, False, f"exit {proc.returncode}: {proc.stderr[-300:]}"))
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            problems = []
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"correct={result['correct']} attempted={result['attempted']}")
            if units != declared[trace]:
                problems.append(f"metrics differ: {set(units) ^ set(declared[trace])}")
            out.append((label, not problems, "; ".join(problems) or f"{len(units)} metrics"))
            if trace == 1:
                tracing = json.loads(lines[-2])["record"]["tracing"]
                total, self_sum = tracing["traced_wall_s"], tracing["problem_self_sum_s"]
                # the gap is the root spans' own bookkeeping, outside any span
                gap = total - self_sum
                out.append((f"self times {workload}", 0.0 <= gap <= 0.02 * total + 1e-3,
                            f"sum of self {self_sum:.6f} s vs traced {total:.6f} s"))
    return out


def _scale_json(path: str, key: str):
    with open(path) as fh:
        report = json.load(fh)
    report[key] *= PERTURB
    with open(path, "w") as fh:
        json.dump(report, fh)


def _scale_bsde_root(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][2] = repr(float(rows[1][2]) * PERTURB)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def check_gates() -> list[tuple[str, bool, str]]:
    sys.path.insert(0, BENCH_DIR)
    import run

    workloads = run._load_package()
    workdir = run._workdir("selfcheck")
    out = []
    try:
        for name, build in workloads.WORKLOADS.items():
            problem = build(3, workdir, True)[0]
            outcome = problem.run()
            try:
                problem.check(outcome)
            except workloads.GateFailure as exc:
                out.append((f"gate {name} passes", False, str(exc)))
                continue
            out.append((f"gate {name} passes", True, problem.label))
            if name == "stationarity-large":
                outcome = dict(outcome, J=outcome["J"] * PERTURB)
            elif name == "bsde-export":
                _scale_bsde_root(os.path.join(problem.out, "solution.csv"))
            else:
                _scale_json(os.path.join(problem.out, "report.json"), "J")
            try:
                problem.check(outcome)
                out.append((f"gate {name} trips", False, "corrupted output accepted"))
            except workloads.GateFailure as exc:
                out.append((f"gate {name} trips", True, str(exc)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def check_without_sources() -> tuple[str, bool, str]:
    scratch = os.path.join(ROOT, ".bench_work", f"bare-{os.getpid()}")
    try:
        os.makedirs(scratch)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
        shutil.copytree(BENCH_DIR, os.path.join(scratch, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "optimize-small", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=scratch, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    ok = proc.returncode != 0 and not proc.stdout.strip()
    return ("no sources: fails without a result", ok,
            f"exit {proc.returncode}, stdout {proc.stdout.strip()[:80]!r}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    checks = check_results(spec) + check_gates() + [check_without_sources()]
    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
