"""Run the benchmark over several seeds and report every metric and its spread.

    python3 perfbench/spread.py [--workloads sweep,classify,artifacts]
                                [--seeds 1-10] [--trace 0]

Runs run.py once per (workload, seed) with BENCHMARK.json's run_seconds,
one run at a time, and prints each run's metrics with workload and unit,
its failed fraction, and per metric the median and the distance between the
first and third quartiles as a share of the median, next to the metric's
bound (trace 0 only; per-layer metrics have none).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", help="list or ranges, e.g. 1-5,9")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    status = 0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            row = []
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                row.append(f"{name}={m['value']:.6g}{m['unit']}")
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed_frac={result['failed'] / result['attempted']:.4g} "
                  f"({result['failed']} of {result['attempted']}) " + " ".join(row), flush=True)
            if not result["correct"]:
                status = 1
        for name, vals in values.items():
            med = statistics.median(vals)
            line = f"{workload:10s} {name:45s} median {med:12.6g} {units[name]:6s}"
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                line += f" spread {spread:7.4f}"
                if name in bounds:
                    ok = spread < bounds[name] / 3 or name == "setup_s"
                    line += f" bound {bounds[name]:.2f} {'ok' if ok else 'WIDE'}"
            print(line, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
