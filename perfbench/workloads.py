"""Inputs, passes and oracles of the three workloads.

sweep      the 84-cell phase-diagram grid through cli.run_sweep with its
           default worker count, writing per-cell reports and summary.csv;
           the only workload that uses the sweep pool.
classify   a closed loop with one caller: one classify_surface call per
           SurfaceTag plus one b < 0 input, in rounds, no files, no pool.
artifacts  the file-writing CLI path through cli.main: integrate --svg,
           a fine mesh, two checks and a separatrix phase portrait.

Seed 0 is the definition; other seeds draw inputs of the same shape with
random.Random(seed).  Oracles are the paper's closed forms, computed here and
not by the package: the sphere radius |1-a|/|b|, the cylinder radius |a/b|,
the b = 0, a = 1 sphere radius x0/|sin theta0|, the CylindricalAntinodoid
asymptote a/b, and for a < 0, theta0 = pi/2 the thresholds -a/b and (1-a)/b.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import shutil
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import wlw.classify
import wlw.cli
import wlw.phaseplane
from probe import measure
from wlw.model import InitialConditions, Params

PI = math.pi
RADIUS_RTOL = 1e-5          # the tests' tolerance on integrated sphere radii
ON_THRESHOLD_RTOL = 1e-12   # x0 counts as lying on -a/b or (1-a)/b


@dataclass
class PassResult:
    """One pass: the operations it ran, how long they took, what they produced."""

    attempted: int
    # Latency of each request: a classify call, a CLI command or a whole sweep,
    # its perf_counter() start, and probe.measure() before the first request
    # and after each request.
    latencies: list[float]
    starts: list[float]
    probes: list[float]
    failures: list[str]
    # Stable summary of the outputs, compared between passes of the same inputs.
    digest: str

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def closed_form_failure(a: float, b: float, x0: float, theta0: float, tag: str,
                        radius: Optional[float], asymptote: Optional[float]) -> Optional[str]:
    """Mismatch of a reported radius against the paper's closed form, if any."""
    if tag == "Cylinder":
        want, got = abs(a / b), radius
    elif tag == "Sphere":
        want = abs(1.0 - a) / abs(b) if b != 0.0 else x0 / abs(math.sin(theta0))
        got = radius
    elif tag == "CylindricalAntinodoid":
        want, got = a / b, asymptote
    else:
        return None
    if got is None or abs(got - want) > RADIUS_RTOL * abs(want):
        return f"{tag} radius {got!r}, closed form {want!r}"
    return None


def _digest_dir(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

SEED_GRID = ((-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0), (0.5, 1.0), (0.5, 1.5, 4.0), (PI / 2, 0.0))
# A run cycles through this many grids.  Each range is cut into
# per_grid * GRIDS_PER_RUN strata and grid g draws one value in each stratum
# i * GRIDS_PER_RUN + g, so every grid spans the whole range, each grid of a
# seed resembles the same grid of any other seed, and the cost of a run
# varies little from seed to seed.
GRIDS_PER_RUN = 3


def _stratified(rng: random.Random, lo: float, hi: float, per_grid: int) -> list[tuple]:
    width = (hi - lo) / (per_grid * GRIDS_PER_RUN)
    return [tuple(lo + (i * GRIDS_PER_RUN + g + rng.random()) * width for i in range(per_grid))
            for g in range(GRIDS_PER_RUN)]


def sweep_grids(seed: int) -> list[tuple]:
    """(a, b, x0, theta0) value lists of the grids one run cycles through."""
    if seed == 0:
        return [SEED_GRID] * GRIDS_PER_RUN
    rng = random.Random(seed)
    a = _stratified(rng, -3.0, 3.0, 7)     # 0 lies inside a stratum, never drawn in practice
    b = _stratified(rng, 0.25, 1.5, 2)
    x0 = _stratified(rng, 0.3, 5.0, 3)
    return [(a[g], b[g], x0[g], SEED_GRID[3]) for g in range(GRIDS_PER_RUN)]


def sweep_cell_failure(a: float, b: float, x0: float, theta0: float, label: str,
                       doc: dict) -> Optional[str]:
    """Why a cell's summary label and report fail the oracles, or None."""
    if a == 0.0:
        return None if label == "Error:InvalidParameter" else f"a = 0 gave {label}"
    if label == "Inconclusive" or label.startswith("Error:"):
        return label
    if a < 0.0 and b > 0.0 and theta0 == PI / 2:
        x_cyl, x_sph = -a / b, (1.0 - a) / b
        if abs(x0 - x_cyl) <= ON_THRESHOLD_RTOL * x_cyl:
            want = "Cylinder"
        elif abs(x0 - x_sph) <= ON_THRESHOLD_RTOL * x_sph:
            want = "Sphere"
        else:
            want = "Unduloid" if x0 < x_sph else "Nodoid"
        if label != want:
            return f"threshold rule says {want}, got {label}"
    return closed_form_failure(a, b, x0, theta0, label, doc.get("radius"),
                               doc.get("asymptotic_radius"))


def sweep_pass(grid: tuple, out_dir: Path) -> PassResult:
    spec = wlw.cli.SweepSpec(*grid, output_dir=out_dir)
    cells = list(spec.cells())
    before = measure()
    t0 = time.perf_counter()
    try:
        summary = wlw.cli.run_sweep(spec)
    except Exception as exc:  # one cell's stray error aborts the whole sweep
        wall = time.perf_counter() - t0
        return PassResult(len(cells), [wall], [t0], [before, measure()],
                          [f"run_sweep raised {type(exc).__name__}: {exc}"] * len(cells),
                          digest="aborted")
    wall = time.perf_counter() - t0
    probes = [before, measure()]

    rows = summary.read_text().splitlines()[1:]
    failures = []
    for (idx, (a, b, x0, t0_)), row in zip(cells, rows):
        fields = row.split(",")
        if fields[:4] != [repr(float(v)) for v in (a, b, x0, t0_)]:
            failures.append(f"summary row {row!r} out of grid order")
            continue
        doc = json.loads((out_dir / "report_a{}_b{}_x{}_t{}.json".format(*idx)).read_text())
        why = sweep_cell_failure(a, b, x0, t0_, fields[4], doc)
        if why is not None:
            failures.append(f"({a:.6g}, {b:.6g}, {x0:.6g}, {t0_:.6g}): {why}")
    if len(rows) != len(cells):
        failures.append(f"summary has {len(rows)} rows for {len(cells)} cells")
    digest = _digest_dir(out_dir)
    shutil.rmtree(out_dir, ignore_errors=True)
    return PassResult(len(cells), [wall], [t0], probes, failures, digest)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def pinched_x0() -> float:
    """The pinched-spheroid radius for (3, 1, x0, 0): pole-gap bisection on [2, 3]."""
    params = Params(3, 1)

    def pole_gap(x0):
        z1, z2 = wlw.classify.classify_surface(params, InitialConditions(x0, 0.0)).pole_z
        return z2 - z1

    lo, hi = 2.0, 3.0
    for _ in range(25):
        mid = 0.5 * (lo + hi)
        if pole_gap(mid) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classify_cases(seed: int) -> list[tuple]:
    """(expected tag, a, b, x0, theta0); two radii are derived here, in set-up."""
    xbar = wlw.phaseplane.find_separatrix(Params(3, 1), 0.0, (4.0, 7.0), rel_width=1e-13)
    cases = [
        ("Plane", 2.0, 0.0, 1.0, 0.0),
        ("Sphere", 1.0, 0.0, 1.0, PI / 4),
        ("Cylinder", -2.0, 1.0, 2.0, PI / 2),
        ("Ovaloid", 3.0, 1.0, 1.0, 1.5 * PI),
        ("CatenoidEntire", -1.0, 0.0, 1.0, PI / 2),
        ("CatenoidBounded", -2.0, 0.0, 1.0, PI / 2),
        ("Vesicle", 3.0, 1.0, 1.0, 0.0),
        ("PinchedSpheroid", 3.0, 1.0, pinched_x0(), 0.0),
        ("ImmersedSpheroid", 3.0, 1.0, 3.0, 0.0),
        ("CylindricalAntinodoid", 3.0, 1.0, xbar, 0.0),
        ("Antinodoid", 3.0, 1.0, 6.0, 0.0),
        ("Unduloid", -2.0, 1.0, 0.5, PI / 2),
        ("Nodoid", -2.0, 1.0, 4.0, PI / 2),
        # b < 0 goes through reflect_b
        ("Nodoid", -2.0, -1.0, 4.0, PI / 2 + PI),
    ]
    if seed != 0:
        random.Random(seed).shuffle(cases)
    return cases


def classify_call(case: tuple) -> tuple[float, float, Optional[str], str]:
    """(start, latency, failure or None, fingerprint of the report) for one call."""
    want, a, b, x0, theta0 = case
    params, ic = Params(a, b), InitialConditions(x0, theta0)
    t0 = time.perf_counter()
    try:
        rep = wlw.classify.classify_surface(params, ic)
    except Exception as exc:  # any error fails the call
        dt = time.perf_counter() - t0
        return t0, dt, f"{case}: {type(exc).__name__}: {exc}", type(exc).__name__
    dt = time.perf_counter() - t0
    tag = rep.surface.tag.value
    fingerprint = repr((tag, rep.surface.radius, rep.pole_z, rep.period, rep.z_shift,
                        rep.self_intersections, rep.asymptotic_radius, rep.theta_range))
    if tag != want:
        why = f"expected {want}, got {tag}"
    elif b < 0.0 and not rep.canonicalized_b:
        why = "b < 0 was not reflected"
    else:
        why = closed_form_failure(a, b, x0, theta0, tag, rep.surface.radius,
                                  rep.asymptotic_radius)
    return t0, dt, None if why is None else f"{case}: {why}", fingerprint


def classify_round(cases: list[tuple]) -> PassResult:
    latencies, starts, probes, failures, prints = [], [], [measure()], [], []
    for case in cases:
        t0, dt, why, fingerprint = classify_call(case)
        probes.append(measure())
        starts.append(t0)
        latencies.append(dt)
        prints.append(fingerprint)
        if why is not None:
            failures.append(why)
    return PassResult(len(cases), latencies, starts, probes, failures,
                      hashlib.sha256("\n".join(prints).encode()).hexdigest())


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

# Files each command must write when it exits 0.
ARTIFACT_FILES = {
    "integrate": ("trajectory.csv", "events.json", "profile.svg"),
    "mesh": ("surface.obj",),
    "check": (),
    "phase": ("phase.svg", "critical_points.json"),
}


def artifact_commands(seed: int) -> list[list[str]]:
    """CLI argument lists without -o; non-zero seeds jitter every x0 by +-5 %."""
    rng = random.Random(seed)

    def x(v: float) -> str:
        return repr(v if seed == 0 else v * (1.0 + rng.uniform(-0.05, 0.05)))

    return [
        ["integrate", "-a", "-2", "-b", "1", "--x0", x(0.5), "--theta0", "pi/2",
         "--max-arclength", "120", "--svg"],
        ["mesh", "-a", "-2", "-b", "1", "--x0", x(4.0), "--theta0", "pi/2",
         "--periods", "2", "--n-profile", "400", "--n-revolve", "128"],
        ["check", "-a", "3", "-b", "1", "--x0", x(1.0), "--theta0", "0"],
        ["check", "-a", "-2", "-b", "0", "--x0", x(1.0), "--theta0", "pi/2"],
        ["phase", "-a", "3", "-b", "1", "--separatrix"],
    ]


def artifacts_pass(commands: list[list[str]], out_dir: Path) -> PassResult:
    codes, printed, latencies, starts, probes, failures = [], [], [], [], [measure()], []
    for i, cmd in enumerate(commands):
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(sink):
                code = wlw.cli.main(cmd + ["-o", str(out_dir / f"{i}_{cmd[0]}")])
        except Exception as exc:  # main lets errors other than WlwError escape
            code = f"raised {type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        probes.append(measure())
        starts.append(t0)
        codes.append(code)
        printed.append(sink.getvalue())

    for i, (cmd, code, text) in enumerate(zip(commands, codes, printed)):
        if code != 0:
            failures.append(f"{' '.join(cmd)}: exit {code}: {' '.join(text.split())[:300]}")
            continue
        missing = [f for f in ARTIFACT_FILES[cmd[0]]
                   if not (out_dir / f"{i}_{cmd[0]}" / f).is_file()]
        if missing:
            failures.append(f"{' '.join(cmd)}: missing {missing}")
    digest = _digest_dir(out_dir) + repr(codes)
    shutil.rmtree(out_dir, ignore_errors=True)
    return PassResult(len(commands), latencies, starts, probes, failures, digest)
