"""Benchmark of fgncontrol solves, from 27 to 10^6 lattice paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`.  The four workloads are defined in `bench/workloads.py`, and their
reasons and the predictions made for them in `bench/README.md`.

With `--trace 0` the run times the workload's batch of problems again and
again for S seconds and reports the end-to-end metrics:

    setup_s      median over five processes of import plus input generation
    solve_s      sum over problems of the mean time of one solve
    solved_frac  share of the batch whose solve exits 0
    peak_rss_mb  peak resident set of this process

Both times are wall times taken to a fixed nominal machine speed with the
speed probe of `bench/speedprobe.py`, which samples the speed this process
gets every 10 ms; the record keeps the raw wall times next to them.

With `--trace 1` it times untraced solves for S/2 seconds, installs span
wrappers (`bench/tracing.py`), repeats setup and one pass over the batch
traced, removes the wrappers and solves untraced until S seconds of solve
time are spent.  The per-layer metrics cover the traced setup and pass.

Every solve's output passes a correctness gate (`Problem.check`); a wrong
answer makes the run report `"correct": false`.  Unsolved problems (CLI
exit 5 or 3) are a checked outcome, reported through `solved_frac`; a
solve that raises is counted in `failed` against `attempted`.  The last
line of standard output is the result object; the line before it is a
record of the environment, the speed probe and each problem.

`--workload all` runs every workload in its own process and prints a
table of all end-to-end metrics.
"""

from __future__ import annotations

import os
import sys
import time

START = time.perf_counter()

from speedprobe import Interval, SpeedProbe, at_nominal_speed  # noqa: E402

# Probes from the first moment on, so that setup is timed at the nominal speed too.
PROBE = SpeedProbe()
if __name__ == "__main__":
    PROBE.start()

# Pin BLAS threads before numpy loads; one thread keeps timings from
# competing with other processes on a small shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("optimize-small", "lq-certify", "stationarity-large", "bsde-export")
SETUP_CHILDREN = 4

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "solved_frac": "frac", "peak_rss_mb": "MB"}

PER_LAYER_UNITS = {
    "lattice.AdaptedValue.created": "count",
    "lattice.noise_value.calls": "count",
    "lattice.noise_value.self_s": "s",
    "lattice.noise_conditional_mean.calls": "count",
    "lattice.noise_conditional_mean.self_s": "s",
    "lattice.condexp.calls": "count",
    "lattice.condexp.self_s": "s",
    "lattice.condexp.bytes": "B-computed",
    "dynamics.forward.calls": "count",
    "dynamics.forward.self_s": "s",
    "dynamics.cost.calls": "count",
    "dynamics.cost.self_s": "s",
    "smp.optimize.iterations": "count",
    "smp.optimize.trials": "count",
    "smp.optimize.accept_ratio": "ratio",
    "smp.optimize.self_s": "s",
    "smp.smp_residual.calls": "count",
    "smp.smp_residual.self_s": "s",
    "smp.smp_residual.forward_per_call": "ratio",
    "smp.check_stationarity.self_s": "s",
    "bsde.solve_bsde.calls": "count",
    "bsde.solve_bsde.self_s": "s",
    "bsde.adjoint_driver.self_s": "s",
    "bsde.residual_orthogonality.self_s": "s",
    "lq.lq_fixed_point.calls": "count",
    "lq.lq_fixed_point.self_s": "s",
    "lq.lq_fixed_point.sweeps": "count",
    "lq.lq_fixed_point.failed": "count",
    "lq.verify_sufficiency.self_s": "s",
    "lq.verify_uniqueness.self_s": "s",
    "reporting.write.self_s": "s",
    "reporting.bytes": "B",
    "noise.whiten.self_s": "s",
    "lattice.lattice_for_hurst.self_s": "s",
    "dynamics.ModelSpec.self_s": "s",
    "configs.load.self_s": "s",
    "bench.setup.self_s": "s",
    "bench.problem.self_s": "s",
    "trace.untraced_solve_s": "s",
    "trace.traced_solve_s": "s",
    "trace.overhead_s": "s",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size problems, for bench/selfcheck.py")
    parser.add_argument("--setup-only", action="store_true",
                        help="time import plus input generation, print it and exit")
    return parser.parse_args(argv)


def _load_package():
    """Import fgncontrol from this checkout's src/, and nothing else."""
    if not os.path.isfile(os.path.join(SRC, "fgncontrol", "__init__.py")):
        sys.exit(f"error: no fgncontrol sources under {SRC}")
    sys.path.insert(0, SRC)
    sys.path.insert(0, BENCH_DIR)
    import fgncontrol

    if os.path.dirname(os.path.dirname(os.path.abspath(fgncontrol.__file__))) != SRC:
        sys.exit(f"error: fgncontrol imported from {fgncontrol.__file__}, not {SRC}")
    import workloads

    return workloads


def _environment() -> dict:
    import numpy
    import scipy

    caches = {}
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_root):
        for entry in sorted(os.listdir(cache_root)):
            path = os.path.join(cache_root, entry)
            try:
                with open(os.path.join(path, "level")) as fh:
                    level = fh.read().strip()
                with open(os.path.join(path, "type")) as fh:
                    kind = fh.read().strip()
                with open(os.path.join(path, "size")) as fh:
                    size = fh.read().strip()
            except OSError:
                continue
            caches[f"L{level} {kind}"] = size
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_threads": BLAS_THREADS,
        "caches": caches,
        "machine": platform.machine(),
    }


def _workdir(workload: str) -> str:
    path = os.path.join(WORK, f"{workload}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


class Batch:
    """Runs a workload's problems round-robin and gates every outcome.

    A problem is gated after its first run; later runs must repeat that
    outcome exactly.  With `deferred`, gates wait for `check_all`, so that
    a traced batch can be checked after the tracer is removed.  A solve
    that raises is counted in `failed` and its output is not gated.
    """

    def __init__(self, problems, gate_failure, deferred=False):
        self.problems = problems
        self.gate_failure = gate_failure
        self.deferred = deferred
        self.intervals = [[] for _ in problems]
        self.outcomes: list[object] = [None] * len(problems)
        self.solved: list[bool] = [False] * len(problems)
        self.errors: list[str] = []
        self.failures: list[str] = []
        self.spent = 0.0

    @property
    def attempted(self) -> int:
        return sum(len(t) for t in self.intervals) + len(self.failures)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def _check(self, i: int):
        try:
            self.solved[i] = bool(self.problems[i].check(self.outcomes[i]))
        except self.gate_failure as exc:
            self.errors.append(str(exc))
        except (OSError, KeyError, ValueError) as exc:
            self.errors.append(f"{self.problems[i].label}: output missing or malformed: {exc!r}")

    def check_all(self):
        for i, intervals in enumerate(self.intervals):
            if intervals:
                self._check(i)

    def run_one(self, i: int):
        problem = self.problems[i]
        gc.collect()
        start = time.perf_counter()
        try:
            interval, outcome = PROBE.timed(problem.run)
        except Exception as exc:  # a crash is a failed solve, not a wrong answer
            self.spent += time.perf_counter() - start
            self.failures.append(f"{problem.label}: {exc!r}")
            return
        self.spent += interval.wall_s
        self.intervals[i].append(interval)
        if len(self.intervals[i]) == 1:
            self.outcomes[i] = outcome
            if not self.deferred:
                self._check(i)
        elif outcome != self.outcomes[i]:
            self.errors.append(f"{problem.label}: outcome changed between runs "
                               f"({self.outcomes[i]!r} then {outcome!r})")

    def run_pass(self):
        for i in range(len(self.problems)):
            self.run_one(i)

    def run_for(self, seconds: float):
        """A whole first pass, then solves round-robin until `seconds` of wall time."""
        if not self.spent:
            self.run_pass()
        i = 0
        while self.spent < seconds:
            self.run_one(i)
            i = (i + 1) % len(self.problems)

    def solve_s(self) -> float:
        """Sum over problems of the mean solve time at the nominal speed."""
        mean_probe = PROBE.mean()
        return sum(at_nominal_speed(iv, mean_probe) for iv in self.intervals if iv)

    def solve_wall_s(self) -> float:
        """Sum over problems of the median wall time of one solve."""
        return sum(statistics.median(x.wall_s for x in iv) for iv in self.intervals if iv)

    def record(self) -> list[dict]:
        mean_probe = PROBE.mean()
        return [
            {"problem": p.label, "solved": s, "runs": len(iv),
             "nominal_s": at_nominal_speed(iv, mean_probe) if iv else None,
             "wall_s": [x.wall_s for x in iv], "probe_s": [x.probe_s for x in iv],
             "probes": [x.probes for x in iv]}
            for p, s, iv in zip(self.problems, self.solved, self.intervals)
        ]


def _setup_child(args) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0",
           "--setup-only"] + (["--toy"] if args.toy else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _per_layer(tracer, summary: dict, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics over the traced setup plus one traced pass."""
    calls, self_s, nested = summary["calls"], summary["self_s"], summary["nested"]
    forward_in = lambda parent: nested.get(("dynamics.forward", parent), 0)
    values = {}
    for name in PER_LAYER_UNITS:
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = calls.get(layer, 0)
        elif stat == "self_s":
            values[name] = self_s.get(layer, 0.0)
    iterations = tracer.quantities.get("smp.optimize.iterations", 0)
    trials = forward_in("smp.optimize")
    residuals = calls.get("smp.smp_residual", 0)
    values.update({
        "lattice.AdaptedValue.created": tracer.adapted_values_created,
        "lattice.condexp.bytes": tracer.quantities.get("lattice.condexp.bytes", 0),
        "smp.optimize.iterations": iterations,
        "smp.optimize.trials": trials,
        "smp.optimize.accept_ratio": iterations / trials if trials else 0.0,
        "smp.smp_residual.forward_per_call":
            forward_in("smp.smp_residual") / residuals if residuals else 0.0,
        "lq.lq_fixed_point.sweeps": forward_in("lq.lq_fixed_point"),
        "lq.lq_fixed_point.failed": tracer.raised.get("lq.lq_fixed_point", 0),
        "reporting.bytes": tracer.quantities.get("reporting.bytes", 0),
        "trace.untraced_solve_s": untraced_s,
        "trace.traced_solve_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
    })
    return {name: _metric(values[name], unit) for name, unit in PER_LAYER_UNITS.items()}


def _traced_run(args, workloads, build, workdir, problems, record) -> tuple[Batch, dict]:
    """Untraced solves, one traced setup and pass, then untraced again."""
    from tracing import Tracer

    untraced = Batch(problems, workloads.GateFailure)
    untraced.run_for(args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced_problems = tracer.call("bench.setup", build, args.seed, workdir, args.toy)
        traced = Batch([workloads.Problem(p.label, lambda p=p: tracer.call("bench.problem", p.run),
                                          p.check, p.out)
                        for p in traced_problems],
                       workloads.GateFailure, deferred=True)
        traced.run_pass()
    finally:
        tracer.uninstall()
    traced.check_all()
    untraced.run_for(args.seconds - traced.spent)
    PROBE.stop()
    summary = tracer.summary()
    metrics = _per_layer(tracer, summary, untraced.solve_s(), traced.solve_s())
    path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.npz")
    tracer.write(path)
    record["tracing"] = {
        "spans": len(tracer.span_name),
        "problem_self_sum_s": summary["in_root"].get("bench.problem", 0.0),
        "traced_solve_s": traced.solve_s(),
        "traced_wall_s": traced.spent,
        "file": os.path.relpath(path, ROOT),
    }
    untraced.errors += traced.errors
    untraced.failures += traced.failures
    for problem, a, b in zip(problems, untraced.outcomes, traced.outcomes):
        if a != b:
            untraced.errors.append(f"{problem.label}: traced run returned {b!r}, untraced {a!r}")
    return untraced, metrics


def run_workload(args) -> int:
    workloads = _load_package()
    build = workloads.WORKLOADS[args.workload]
    workdir = _workdir(args.workload)
    try:
        problems = build(args.seed, workdir, args.toy)
        setup = PROBE.since(0, time.perf_counter() - START)
        if args.setup_only:
            PROBE.stop()
            print(json.dumps(vars(setup)))
            return 0
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": _environment()}
        if args.trace == 0:
            setups = [setup] + [Interval(**_setup_child(args)) for _ in range(SETUP_CHILDREN)]
            batch = Batch(problems, workloads.GateFailure)
            batch.run_for(args.seconds)
            PROBE.stop()
            setup_times = [at_nominal_speed([iv], PROBE.mean()) for iv in setups]
            metrics = {
                "setup_s": statistics.median(setup_times),
                "solve_s": batch.solve_s(),
                "solved_frac": sum(batch.solved) / len(problems),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: _metric(v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
            record["setup_samples_s"] = setup_times
            record["setup_wall_s"] = [iv.wall_s for iv in setups]
            record["solve_wall_s"] = batch.solve_wall_s()
        else:
            batch, metrics = _traced_run(args, workloads, build, workdir, problems, record)
        PROBE.stop()
        record["probe"] = {"count": len(PROBE.durations), "mean_s": PROBE.mean(),
                           "median_s": statistics.median(PROBE.durations)}
        record["problems"] = batch.record()
        record["gate_errors"] = batch.errors
        record["failures"] = batch.failures
        print(json.dumps({"record": record}))
        print(json.dumps({
            "correct": not batch.errors,
            "attempted": batch.attempted,
            "failed": batch.failed,
            "metrics": metrics,
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args) -> int:
    """Each workload in a fresh process, then one table of end-to-end metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
        rows.append((name, result))
    if args.trace == 0:
        header = f"{'workload':<20}{'setup_s':>10}{'solve_s':>10}{'unsolved_frac':>15}" \
                 f"{'attempted':>11}{'peak_rss_mb':>13}{'correct':>9}"
        print(header)
        for name, r in rows:
            m = r["metrics"]
            print(f"{name:<20}{m['setup_s']['value']:>10.3f}{m['solve_s']['value']:>10.3f}"
                  f"{1.0 - m['solved_frac']['value']:>15.3f}{r['attempted']:>11d}"
                  f"{m['peak_rss_mb']['value']:>13.1f}{str(r['correct']):>9}")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        if args.seconds <= 0:
            sys.exit("error: --seconds must be positive")
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    finally:
        PROBE.stop()  # an alarm left running would kill the exiting process


if __name__ == "__main__":
    sys.exit(main())
