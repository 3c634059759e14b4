"""CPU-speed probe of the host, for scaling measured times.

The host's CPU speed swings by up to 1.8x within seconds (a fixed
pure-Python loop measured 19.7 to 34.8 ms in 2-s windows of one minute on a
2-vCPU Xeon VM), and slow spells can cover whole runs.  measure() times a
fixed kernel by thread CPU time, so that waiting for a core does not count;
the kernel mixes the program's two kinds of work, interpreted scalar
arithmetic and small-array numpy steps, without calling the program.  A
request's time is scaled by REFERENCE_S over the kernel's time around it:

- a short request by measure() in the benchmark's own thread right before
  and after it, which sees the core the request ran on;
- a request of LONG_REQUEST_S or more by the samples a probe process took
  while it ran, since the speed changes many times within it and the sweep
  runs on several threads.

    python3 perfbench/probe.py SAMPLES_FILE

appends "perf_counter_end kernel_seconds" lines until it is terminated.
"""

from __future__ import annotations

import bisect
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

PERIOD_S = 0.1
LONG_REQUEST_S = 3.0
LOOPS = 20_000
STEPS = 150
# measure() at full speed on the reference host, the VM above: the 5th
# percentile of 948 calls over 30 s (median 3.3 ms, range 2.5 to 5.9 ms).
# Reported times are scaled to it.
REFERENCE_S = 2.65e-3


def _rhs(y: np.ndarray) -> np.ndarray:
    return np.array([math.cos(y[2]), math.sin(y[2]), 2.0 * math.sin(y[2]) / y[0] + 1.0])


def kernel() -> None:
    acc = 0
    for i in range(LOOPS):
        acc += i * i % 7
    y, h = np.array([1.0, 0.0, 0.5]), 1e-3
    for _ in range(STEPS):
        k1 = _rhs(y)
        k2 = _rhs(y + 0.5 * h * k1)
        k3 = _rhs(y + 0.5 * h * k2)
        k4 = _rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def measure() -> float:
    """Thread CPU seconds of the kernel, the fastest of three runs."""
    best = math.inf
    for _ in range(3):
        c0 = time.thread_time()
        kernel()
        best = min(best, time.thread_time() - c0)
    return best


class Prober:
    """Runs the probe process for the life of a with block, then scales times."""

    def __init__(self, samples_file: Path):
        self.path = samples_file
        self.times: list[float] = []
        self.cpu: list[float] = []

    def __enter__(self) -> "Prober":
        self.path.write_text("")
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.path)])
        deadline = time.perf_counter() + 60.0
        while not self.path.read_text().strip():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.__exit__()
                raise RuntimeError("the probe process produced no sample")
            time.sleep(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        for line in self.path.read_text().splitlines():
            t, c = line.split()
            self.times.append(float(t))
            self.cpu.append(float(c))

    def scaled(self, t0: float, dt: float, before: float, after: float) -> float:
        """dt as it would read with the kernel at REFERENCE_S.

        before and after are measure() right around the request.  A long
        request uses the median of the samples that ended within it or one
        period after it.
        """
        if dt < LONG_REQUEST_S:
            return dt * REFERENCE_S / (0.5 * (before + after))
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t0 + dt + PERIOD_S)
        if hi > lo:
            speed = statistics.median(self.cpu[lo:hi])
        else:
            near = min((i for i in (lo - 1, lo) if 0 <= i < len(self.times)),
                       key=lambda i: abs(self.times[i] - t0))
            speed = self.cpu[near]
        return dt * REFERENCE_S / speed


def main(path: str) -> None:
    with open(path, "a") as out:
        while True:
            sample = measure()
            out.write(f"{time.perf_counter()!r} {sample!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
