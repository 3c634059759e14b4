"""Benchmark of the wlw package: one workload, one seed, one process.

    python3 perfbench/run.py --workload {sweep,classify,artifacts} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from src/.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics; the lines before it print each metric with its unit,
the failed fraction, and the run's environment and failures.

With --trace 0 every workload reports the same end-to-end metrics: setup_s,
the median wall time of fresh processes that only import the package and
build the inputs; peak_rss_mb; ops_per_s, operations (sweep cells, classify
calls, CLI commands) per second; and latency_p50_ms and latency_p90_ms over
the requests a user waits for (a classify call, a CLI command, a whole
sweep).  Times are scaled to a reference CPU speed by probes of the host's
speed (probe.py), because this host's speed swings.  With
--trace 1 the run reports the per-layer metrics of layers.py instead, from
spans recorded around the public functions of each module.

attempted counts the operations run and failed those that raised an
unexpected error, ended Inconclusive, disagreed with an oracle or exited
non-zero.  correct is true when every repeat of the same inputs gave the
same outputs: the same files byte for byte, the same reports, the same
failures and, in a traced run, the same deterministic counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "classify", "artifacts")
# Set-up is measured in this many fresh processes; the median is reported.
SETUP_SAMPLES = 3
# A traced run needs two traced passes to compare their counts.
MIN_TRACED_PASSES = 2
# Every request runs at least this often, and artifacts compares the files
# of its passes.
MIN_REPEATS = 2

# Every workload reports every end-to-end metric.  An operation is a sweep
# cell, a classify_surface call or a CLI command; a request is what a user
# waits for: a classify call, a CLI command or a whole sweep.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="import the package, build the inputs and exit (timed by the parent)")
    return p.parse_args(argv)


def setup(workload: str, seed: int):
    """Everything a run does before its first timed operation."""
    import workloads as w
    if workload == "sweep":
        return w.sweep_grids(seed)
    if workload == "classify":
        return w.classify_cases(seed)
    return w.artifact_commands(seed)


def measure_setup(args) -> list[tuple[float, float, float, float]]:
    """(start, wall time, probe before, probe after) of fresh processes that
    only set up."""
    from probe import measure
    runs = []
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        before = measure()
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL, timeout=120)
        dt = time.perf_counter() - t0
        runs.append((t0, dt, before, measure()))
    return runs


class Run:
    """Passes of one workload, with their outcomes and consistency checks."""

    def __init__(self, args, inputs, work: Path):
        self.name = args.workload
        self.inputs = inputs
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.inconsistent: list[str] = []
        self._seen: dict[object, tuple] = {}
        self.n_pass = 0

    def keys(self) -> range:
        """The input sets a run cycles through: the sweep's grids, else one."""
        return range(len(self.inputs) if self.name == "sweep" else 1)

    def one_pass(self, key: int):
        """Run the pass for input set key; record and cross-check its outcome."""
        import workloads as w
        self.n_pass += 1
        out = self.work / f"pass{self.n_pass}"
        if self.name == "sweep":
            res = w.sweep_pass(self.inputs[key], out)
        elif self.name == "classify":
            res = w.classify_round(self.inputs)
        else:
            res = w.artifacts_pass(self.inputs, out)
        self.attempted += res.attempted
        self.failures += res.failures
        outcome = (res.digest, sorted(res.failures))
        inputs = self.inputs[key] if self.name == "sweep" else None
        if self._seen.setdefault(inputs, outcome) != outcome:
            self.inconsistent.append(f"{self.name} input set {key}: outputs differ between passes")
        return res


def run_untraced(run: Run, seconds: float, threads: list[int]) -> tuple[dict, dict, int]:
    """Complete cycles over the input sets until seconds have passed and
    every request has run at least MIN_REPEATS times.

    A request is one classify call, one CLI command or one whole sweep.
    Returns the raw (start, latency, probe before, probe after) of each
    repeat per request, the operations per request, and the number of cycles.
    """
    import layers
    from tracer import Target, Tracer
    # Only classify_surface is wrapped, to see how many threads run sweep cells.
    watch = Tracer([Target("wlw.classify", "classify_surface", "classify.classify_surface")],
                   "wlw")
    times: dict[tuple, list[tuple[float, float, float, float]]] = {}
    ops: dict[tuple, float] = {}
    repeats = 0
    end = time.perf_counter() + seconds
    if run.name == "classify":
        run.one_pass(0)                 # warm-up round, not timed
    while time.perf_counter() < end or repeats < MIN_REPEATS:
        for key in run.keys():
            if run.name == "sweep":
                with watch:
                    res = run.one_pass(key)
                threads.append(layers.sweep_threads(watch.take()))
            else:
                res = run.one_pass(key)
            for i, (t0, dt) in enumerate(zip(res.starts, res.latencies)):
                times.setdefault((key, i), []).append((t0, dt, *res.probes[i:i + 2]))
                ops[key, i] = res.attempted / len(res.latencies)
        repeats += 1
    return times, ops, repeats


def end_to_end(prober, setups, times: dict, ops: dict) -> dict:
    """The end-to-end metrics, every time scaled to the reference CPU speed.

    Each request's time is the median of its scaled repeats; the percentiles
    are taken over the requests of one cycle, and ops_per_s is the operations
    of one cycle over the sum of their requests' times.
    """
    per_request = sorted(statistics.median(prober.scaled(*r) for r in runs)
                         for runs in times.values())
    q = statistics.quantiles(per_request, n=100, method="inclusive")
    return {"ops_per_s": sum(ops.values()) / sum(per_request),
            "latency_p50_ms": 1e3 * q[49], "latency_p90_ms": 1e3 * q[89],
            "setup_s": statistics.median(prober.scaled(*r) for r in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_traced(run: Run, seconds: float, threads: list[int]) -> tuple[dict, int]:
    """Alternate untraced and traced passes over the first input set."""
    import layers
    from tracer import Tracer
    tracer = Tracer(layers.targets(), "wlw")
    plain, traced, per_pass = [], [], []
    end = time.perf_counter() + seconds
    if run.name == "classify":
        run.one_pass(0)                 # warm-up round, not timed
    while True:
        plain.append(run.one_pass(0).wall)
        with tracer:
            traced.append(run.one_pass(0).wall)
        spans = tracer.take()
        if run.name == "sweep":
            threads.append(layers.sweep_threads(spans))
        per_pass.append(layers.pass_metrics(spans))
        if time.perf_counter() >= end and len(traced) >= MIN_TRACED_PASSES:
            break
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key in layers.DETERMINISTIC:
            if len(set(values)) != 1:
                run.inconsistent.append(f"{key} differs between traced passes: {values}")
            metrics[key] = values[0]
        else:
            metrics[key] = statistics.median(values)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, len(traced)


def environment(args, threads: list[int]) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "WLW_THREADS": os.environ.get("WLW_THREADS"),
        # threads that ran sweep cells, per pass: the worker count run_sweep used
        "sweep_workers": sorted(set(threads)) if threads else None,
    }


def check_source() -> None:
    """Refuse to measure a wlw imported from anywhere but this checkout's src/."""
    import wlw
    if Path(wlw.__file__).resolve().parent != ROOT / "src" / "wlw":
        raise SystemExit(f"perfbench: imported wlw from {wlw.__file__}, not from src/")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wlw" / "__init__.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'wlw'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0

    import layers
    from probe import Prober
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    threads: list[int] = []
    try:
        if args.trace:
            run = Run(args, setup(args.workload, args.seed), work)
            check_source()
            metrics, repeats = run_traced(run, args.seconds, threads)
            units = layers.UNITS
        else:
            with Prober(work / "probe.txt") as prober:
                setups = measure_setup(args)
                run = Run(args, setup(args.workload, args.seed), work)
                check_source()
                times, ops, repeats = run_untraced(run, args.seconds, threads)
            metrics = end_to_end(prober, setups, times, ops)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(run.failures)
    for key, value in metrics.items():
        print(f"{args.workload:10s} {key:45s} {value:14.6g} {units[key]}")
    print(f"{args.workload:10s} {'failed_frac':45s} {failed / run.attempted:14.6g} "
          f"({failed} of {run.attempted})")
    counts = {k: metrics[k] for k in layers.DETERMINISTIC} if args.trace else None
    print("info " + json.dumps({
        "env": environment(args, threads),
        "counts_sha256": counts and hashlib.sha256(json.dumps(counts).encode()).hexdigest(),
        "passes": run.n_pass,
        # repeats of each request, or traced passes
        "repeats": repeats,
        "failures": sorted(set(run.failures)),
        "inconsistent": run.inconsistent,
    }))
    print(json.dumps({
        "correct": not run.inconsistent,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
