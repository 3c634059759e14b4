"""Command-line surface: integrate, classify, phase, mesh, sweep, check.

Exit codes: 0 success, 1 internal failure, 2 invalid input, 3 inconclusive
classification.  Errors are reported as machine-readable JSON on stdout.

sweep classifies a grid of MIN_POOLED_CELLS or more cells in forked worker
processes, one per CPU this process may run on, and a smaller one in this
process; its files are the same byte for byte for any worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import levelset, output
from .classify import SurfaceTag, classify_surface, special_solutions
from .errors import Inconclusive, InvalidParameter, NearSingular, NoFullTurn, WlwError
from .integrate import (
    EventKind,
    IntegrationControls,
    check_horizontal_symmetry,
    detect_period,
    find_self_intersections,
    integrate,
)
from .model import REL_TOL, InitialConditions, Params
from .phaseplane import PortraitSpec, critical_points, find_separatrix, phase_portrait
from .variational import (
    ExpEnergyParams,
    PowerEnergyParams,
    el_residual_exp,
    el_residual_power,
    exponent_map,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

_ANGLE_RE = re.compile(r"^\s*([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$")


def parse_angle(text: str) -> float:
    """Angles as plain radians or symbolic multiples of pi: '3pi/2', 'pi', '-pi/4'."""
    m = _ANGLE_RE.match(text)
    if m:
        num = m.group(1)
        k = float(num) if num not in ("", "+", "-") else float(num + "1")
        den = float(m.group(2)) if m.group(2) else 1.0
        return k * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse angle {text!r}") from exc


def parse_range(text: str) -> list[float]:
    """'lo:hi:n' inclusive grids, or a single value."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise InvalidParameter(f"range must be 'lo:hi:count', got {text!r}")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InvalidParameter(f"cannot parse range {text!r}") from exc
    if n < 1:
        raise InvalidParameter(f"range count must be >= 1, got {n}")
    if n == 1:
        return [lo]
    return list(np.linspace(lo, hi, n))


@dataclass(frozen=True)
class SweepSpec:
    """Inclusive parameter grid for batch classification."""

    a_values: Sequence[float]
    b_values: Sequence[float]
    x0_values: Sequence[float]
    theta0_values: Sequence[float]
    output_dir: Path

    def __post_init__(self):
        for name in ("a_values", "b_values", "x0_values", "theta0_values"):
            if len(getattr(self, name)) == 0:
                raise InvalidParameter(f"{name} must be non-empty")

    def cells(self):
        for ia, a in enumerate(self.a_values):
            for ib, b in enumerate(self.b_values):
                for ix, x0 in enumerate(self.x0_values):
                    for it, t0 in enumerate(self.theta0_values):
                        yield (ia, ib, ix, it), (a, b, x0, t0)


def _controls_from_args(args, base: IntegrationControls) -> IntegrationControls:
    """base with --rel-tol and the budget flags the user gave applied."""
    given = {name: getattr(args, name) for name in ("abs_tol", "max_arclength")
             if getattr(args, name) is not None}
    return replace(base, rel_tol=args.rel_tol, **given)


def _add_common_flags(p: argparse.ArgumentParser, orbit: bool = True) -> None:
    """-a, -b and -o; commands that take one orbit also get the initial
    conditions and --rel-tol."""
    p.add_argument("-a", type=float, required=True, help="coefficient a (dimensionless)")
    p.add_argument("-b", type=float, required=True, help="coefficient b (1/length)")
    if orbit:
        p.add_argument("--x0", type=float, required=True, help="initial radius, > 0")
        p.add_argument("--theta0", type=parse_angle, default=0.0,
                       help="initial tangent angle in radians; accepts pi/2, 3pi/2, ...")
        p.add_argument("--rel-tol", type=float, default=REL_TOL,
                       help="relative tolerance of a run's steps, and the accuracy asked of "
                            "the first integral's level set in classifying: eps times the "
                            "terms f_H sums must stay within it (default %(default)g)")
    p.add_argument("-o", "--out", type=Path, default=Path("."), help="output directory")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """The flags of commands that integrate an orbit: its abs_tol and arclength budget."""
    p.add_argument("--abs-tol", type=float, default=None,
                   help="absolute step tolerance (default from IntegrationControls)")
    p.add_argument("--max-arclength", type=float, default=None,
                   help="arclength budget of a run")


def cmd_integrate(args) -> int:
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    traj = integrate(params, ic, _controls_from_args(args, IntegrationControls()))
    crossings = find_self_intersections(traj)
    args.out.mkdir(parents=True, exist_ok=True)
    csv_path = args.out / "trajectory.csv"
    events_path = args.out / "events.json"
    output.write_trajectory_csv(traj, csv_path)
    output.write_events_json(traj, events_path, crossings)
    files = [str(csv_path), str(events_path)]
    if args.svg:
        svg_path = args.out / "profile.svg"
        output.write_profile_svg(traj, svg_path)
        files.append(str(svg_path))
    print(json.dumps({
        "termination": traj.termination.value,
        "termination_backward":
            traj.termination_backward.value if traj.termination_backward else None,
        "samples": len(traj.s),
        "events": len(traj.events) + len(crossings),
        "files": files,
    }, indent=2))
    return EXIT_OK


def cmd_classify(args) -> int:
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    report = classify_surface(params, ic, args.rel_tol)
    doc = output.report_to_dict(report)
    print(json.dumps(doc, indent=2))
    if args.out != Path("."):
        args.out.mkdir(parents=True, exist_ok=True)
        output.write_report_json(report, args.out / "report.json")
    return EXIT_OK


def cmd_phase(args) -> int:
    params = Params(args.a, args.b)
    x_max = args.x_max
    if x_max is None:
        x_max = 2.5 * abs(params.a / params.b) if params.b != 0.0 else 5.0
    portrait = phase_portrait(params, PortraitSpec(x_max=x_max))
    points = critical_points(params)
    separatrix = None
    if args.separatrix:
        if params.b == 0.0:
            raise InvalidParameter("the separatrix requires b != 0")
        if args.bracket is not None:
            lo, hi = args.bracket
        else:
            ratio = abs(params.a / params.b)
            lo, hi = 0.5 * ratio, 6.0 * max(ratio, 1.0)
        xbar = find_separatrix(params, args.theta0, (lo, hi))
        separatrix = (args.theta0, xbar)
    args.out.mkdir(parents=True, exist_ok=True)
    svg_path = args.out / "phase.svg"
    json_path = args.out / "critical_points.json"
    output.write_phase_svg(portrait, points, svg_path, separatrix)
    doc = {
        "params": {"a": params.a, "b": params.b},
        "critical_points": [{
            "theta": p.theta,
            "x": p.x,
            "eigenvalues": [[z.real, z.imag] for z in (complex(e) for e in p.eigenvalues)],
            "kind": p.kind.value,
        } for p in points],
        "special_solutions": [{"class": s.tag.value, "radius": s.radius}
                              for s in special_solutions(params)],
    }
    if separatrix is not None:
        doc["separatrix"] = {"theta0": separatrix[0], "x_bar": separatrix[1]}
    with open(json_path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"files": [str(svg_path), str(json_path)], **doc}, indent=2))
    return EXIT_OK


def cmd_mesh(args) -> int:
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    controls = _controls_from_args(args, IntegrationControls())
    report = classify_surface(params, ic, controls.rel_tol)
    spec = output.MeshSpec(n_profile=args.n_profile, n_revolve=args.n_revolve)
    window = None
    if report.period is not None:
        controls = replace(controls, max_full_turns=args.periods + 1,
                           max_arclength=(args.periods + 1.5) * report.period * 4.0)
        window = (0.0, args.periods * report.period)
    elif args.max_arclength is None and report.surface.tag is SurfaceTag.CYLINDER:
        controls = replace(controls, max_arclength=4.0 * ic.x0)
    traj = integrate(params, ic, controls)
    args.out.mkdir(parents=True, exist_ok=True)
    obj_path = args.out / "surface.obj"
    output.write_obj_mesh(traj, obj_path, spec, window)
    print(json.dumps({
        "class": report.surface.tag.value,
        "files": [str(obj_path)],
        "n_profile": spec.n_profile,
        "n_revolve": spec.n_revolve,
        "periods": args.periods if report.period is not None else None,
    }, indent=2))
    return EXIT_OK


def _sweep_cell(a, b, x0, t0):
    try:
        report = classify_surface(Params(a, b), InitialConditions(x0, t0))
        return output.report_to_dict(report), str(report.surface.tag.value)
    except Inconclusive as exc:
        return {"error": "Inconclusive", "message": str(exc),
                "diagnostics": exc.diagnostics}, "Inconclusive"
    except WlwError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}, f"Error:{type(exc).__name__}"
    except Exception as exc:  # a defect on one cell must not abort the grid
        return ({"error": type(exc).__name__, "message": str(exc),
                 "traceback": traceback.format_exc()}, f"Error:{type(exc).__name__}")


# A grid with fewer cells than this is classified in the calling process.
# On a 2-vCPU host, starting and stopping a 2-worker pool costs 20-40 ms,
# against about 1 ms for the average cell, since most classes are read off
# the level set.  Serial won on grids of 8 to 98 cells, 112 cells was about
# even, and the pool won by 3-16 % at 126 cells and by 1.1-1.4x at 1,000.
MIN_POOLED_CELLS = 120


def _sweep_workers(n_cells: int) -> int:
    """Worker processes for a grid of n_cells: one per CPU this process may
    run on, at most one per cell, or 1 (classify in this process) when there
    is one CPU, fork is not available, or the grid is too small to pay for
    the pool."""
    if n_cells < MIN_POOLED_CELLS or not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(cpus, n_cells)


def _classify_grid(spec: SweepSpec) -> tuple[Path, Counter]:
    """run_sweep, also returning how many cells got each summary label."""
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    cells = list(spec.cells())
    columns = list(zip(*(values for _, values in cells)))   # a, b, x0, theta0 lists
    rows = ["a,b,x0,theta0,class"]
    labels: Counter = Counter()
    workers = _sweep_workers(len(cells))
    if workers > 1:
        # fork, not spawn: a spawned worker imports numpy and wlw afresh,
        # which takes longer than a whole 84-cell grid.  The executor forks
        # all its workers before it starts its own thread.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
        # One cell per task: cell costs on one grid range from 0.06 ms to
        # 35 ms, and a larger chunk can leave a worker idle.
        results = pool.map(_sweep_cell, *columns, chunksize=1)
    else:
        pool = None
        results = map(_sweep_cell, *columns)
    try:
        for (idx, (a, b, x0, t0)), (doc, label) in zip(cells, results):
            name = "report_a{}_b{}_x{}_t{}.json".format(*idx)
            with open(spec.output_dir / name, "w", newline="\n") as fh:
                json.dump(doc, fh, indent=2)
                fh.write("\n")
            rows.append(",".join([output.fnum(a), output.fnum(b), output.fnum(x0),
                                  output.fnum(t0), label]))
            labels[label] += 1
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    summary = spec.output_dir / "summary.csv"
    with open(summary, "w", newline="\n") as fh:
        fh.write("\n".join(rows) + "\n")
    return summary, labels


def run_sweep(spec: SweepSpec) -> Path:
    """Classify every grid cell; per-cell reports plus a summary CSV.

    A grid of MIN_POOLED_CELLS or more is classified in a pool of forked
    worker processes, one per CPU (see _sweep_workers).  This process writes
    every file in grid order, so the files do not depend on the worker count
    and the summary rows follow grid order.  A cell that raises is
    labelled Error:<Type>, its report holds the message (and the traceback of
    an error that is not a WlwError).  Returns the summary path."""
    return _classify_grid(spec)[0]


def cmd_sweep(args) -> int:
    spec = SweepSpec(
        a_values=parse_range(args.a),
        b_values=parse_range(args.b),
        x0_values=parse_range(args.x0),
        theta0_values=[parse_angle(t) for t in args.theta0_list.split(",") if t.strip()],
        output_dir=args.out,
    )
    summary, labels = _classify_grid(spec)
    print(json.dumps({"cells": sum(labels.values()), "summary": str(summary),
                      "labels": dict(sorted(labels.items()))}, indent=2))
    return EXIT_OK


def default_controls(params: Params, ic: InitialConditions) -> IntegrationControls:
    """check's budgets; the arclength scales with the homothety size.

    rescale(lam) maps (a, b, x0) to (a, b/lam, lam*x0) and keeps the class, so
    the arclength budget grows with max(x0, |a/b|).
    """
    scale = max(ic.x0, abs(params.a / params.b) if params.b != 0.0 else 0.0, 1.0)
    return IntegrationControls(max_arclength=200.0 * scale,
                               max_full_turns=3,
                               max_vertical_tangents=12)


def cmd_check(args) -> int:
    """Consistency checks on one trajectory: EL residual, first integral,
    mirror symmetry at vertical tangents, translation periodicity."""
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    traj = integrate(params, ic, _controls_from_args(args, default_controls(params, ic)))
    checks: dict[str, dict] = {}

    try:
        if args.p_override is not None:
            ep = PowerEnergyParams(p=args.p_override,
                                   mu=-params.b / (params.a - 1.0) if params.a != 1.0 else 0.0)
        elif args.nu_override is not None:
            ep = ExpEnergyParams(nu=args.nu_override)
        else:
            ep = exponent_map(params)
        prof = (el_residual_exp if isinstance(ep, ExpEnergyParams)
                else el_residual_power)(traj, ep)
        checks["euler_lagrange"] = {
            "max_relative_residual": prof.max_relative,
            "excluded_points": prof.n_excluded,
            "pass": bool(prof.max_relative < 1e-6),
        }
    except NearSingular as exc:
        checks["euler_lagrange"] = {"benign": str(exc), "pass": True}

    x, _, theta = traj.eval(np.linspace(traj.s_min, traj.s_max, 33))
    anchor = levelset.Anchor(ic.x0, math.sin(ic.theta0))
    worst = max(abs(math.sin(t) - levelset.f_H(params, anchor, xv))
                for xv, t in zip(x.tolist(), theta.tolist()))
    checks["first_integral"] = {"max_residual": worst, "pass": bool(worst < 1e-6)}

    tangents = traj.events_of(EventKind.VERTICAL_TANGENT)
    if tangents:
        worst = max(check_horizontal_symmetry(traj, e.s) for e in tangents)
        checks["horizontal_symmetry"] = {"max_residual": worst, "pass": bool(worst < 1e-6)}

    try:
        T, z_shift = detect_period(traj)
        checks["periodicity"] = {"period": T, "z_shift": z_shift, "pass": True}
    except NoFullTurn:
        pass

    ok = all(c.get("pass", True) for c in checks.values())
    print(json.dumps({"pass": ok, "checks": checks}, indent=2))
    return EXIT_OK if ok else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wlw",
        description="Rotational surfaces with kappa1 = a*kappa2 + b: "
                    "integration, phase plane, classification, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate a profile curve, write CSV + events")
    _add_common_flags(p)
    _add_run_flags(p)
    p.add_argument("--svg", action="store_true", help="also write a profile plot")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("classify", help="classify the surface for one initial condition")
    _add_common_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("phase", help="phase portrait and critical points")
    _add_common_flags(p, orbit=False)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--theta0", type=parse_angle, default=0.0,
                   help="initial angle for --separatrix")
    p.add_argument("--separatrix", action="store_true")
    p.add_argument("--bracket", type=lambda s: tuple(float(t) for t in s.split(":")),
                   default=None, help="radii lo:hi to search for --separatrix")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("mesh", help="export a revolved OBJ mesh")
    _add_common_flags(p)
    _add_run_flags(p)
    p.add_argument("--n-profile", type=int, default=96)
    p.add_argument("--n-revolve", type=int, default=48)
    p.add_argument("--periods", type=int, default=1)
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("sweep", help="classify a parameter grid in a worker process per "
                                      "CPU; print the cell count and a tally of labels")
    p.add_argument("-a", required=True, help="value or lo:hi:count")
    p.add_argument("-b", required=True, help="value or lo:hi:count")
    p.add_argument("--x0", required=True, help="value or lo:hi:count")
    p.add_argument("--theta0-list", default="pi/2", help="comma-separated angles")
    p.add_argument("-o", "--out", type=Path, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="verify invariants on one trajectory")
    _add_common_flags(p)
    _add_run_flags(p)
    p.add_argument("--p-override", type=float, default=None)
    p.add_argument("--nu-override", type=float, default=None)
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INVALID if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except Inconclusive as exc:
        print(json.dumps({"error": "Inconclusive", "message": str(exc),
                          "diagnostics": exc.diagnostics}, indent=2))
        return EXIT_INCONCLUSIVE
    except InvalidParameter as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, indent=2))
        return EXIT_INVALID
    except WlwError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}, indent=2))
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
