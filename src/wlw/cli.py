"""Command-line surface: integrate, classify, phase, mesh, sweep, check.

Each command returns one JSON document and its exit code, and main prints
the document on stdout in output.write_json's form.  Exit codes: 0 success,
1 internal failure or a failed check, 2 invalid input, bad flags included,
3 inconclusive classification.  A WlwError prints error_document's
{"error": <type>, "message": <text>}, with an Inconclusive's "diagnostics";
a sweep cell that raises writes the same document (plus the traceback of
an error that is not a WlwError).  -o is a directory: integrate, phase and
mesh write their files there (default .), sweep its reports and summary.csv,
and classify and check their document, as report.json and check.json, only
when -o is given.

phase --separatrix takes its search bracket from the saddle's level, from
a/b to its outer turning radius, so it needs no bracket from the user.  It
needs a > 0 and b > 0, and is refused without them before the portrait is
drawn.

check tests one run: first_integral, horizontal_symmetry and periodicity.
The Euler-Lagrange equation holds at every state (x, theta), on a run or
not, so the test suite checks it as an identity, and check does not.  A run
takes --rel-tol and ends only at the axis, the blowup guard or its arclength:
integrate's --max-arclength each way, (periods + 1/4) T each way for mesh, T
from classify.orbit_period (it meshes [0, periods T]), and 3.25 T for check.
Without a period, check and mesh run scaled_arclength each way, which grows
with the surface; the Cylinder's mesh runs 4 x0.

sweep classifies its cells in this process, in grid order.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import levelset, output
from .classify import SurfaceTag, classify_surface, orbit_period, special_solutions
from .errors import (
    Inconclusive,
    InvalidParameter,
    NoFullTurn,
    NotVertical,
    VerificationFailed,
    WlwError,
)
from .integrate import (
    EventKind,
    IntegrationControls,
    Termination,
    check_horizontal_symmetry,
    detect_period,
    find_self_intersections,
    integrate,
)
from .model import REL_TOL, InitialConditions, Params
from .phaseplane import (
    PortraitSpec,
    critical_points,
    find_separatrix,
    phase_portrait,
    require_saddle,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_INVALID = 2
EXIT_INCONCLUSIVE = 3

_ANGLE_RE = re.compile(r"^\s*([+-]?\d*\.?\d*)\s*pi\s*(?:/\s*(\d+\.?\d*))?\s*$")


# The flag types raise ArgumentTypeError: argparse prints its message after
# the flag's name, where it would replace a ValueError's with "invalid <type>
# value".

def parse_angle(text: str) -> float:
    """Angles as plain radians or symbolic multiples of pi: '3pi/2', 'pi', '-pi/4'."""
    m = _ANGLE_RE.match(text)
    if m:
        num = m.group(1)
        k = float(num) if num not in ("", "+", "-") else float(num + "1")
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise argparse.ArgumentTypeError(f"angle {text!r} divides by zero")
        return k * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from exc


def parse_finite(text: str) -> float:
    """A float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from exc
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def parse_angles(text: str) -> list[float]:
    """Comma-separated angles in parse_angle's forms; empty items are skipped."""
    return [parse_angle(t) for t in text.split(",") if t.strip()]


def parse_range(text: str) -> list[float]:
    """'lo:hi:n' inclusive grids, or a single value."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"range must be 'lo:hi:count', got {text!r}")
    try:
        if len(parts) == 1:
            return [float(parts[0])]
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"cannot parse range {text!r}") from exc
    if n < 1:
        raise argparse.ArgumentTypeError(f"range count must be >= 1, got {n}")
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


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise InvalidParameter, so that main
    reports them as JSON on stdout; subparsers inherit the class."""

    def error(self, message):
        raise InvalidParameter(message)


def _add_common_flags(p: argparse.ArgumentParser, orbit: bool = True,
                      document: Optional[str] = None) -> None:
    """-a, -b and -o; commands that take one orbit also get the initial
    conditions and --rel-tol.  A command that names its document file has
    no default -o: main writes the document there only when -o is given."""
    p.add_argument("-a", type=float, required=True, help="coefficient a (dimensionless)")
    p.add_argument("-b", type=float, required=True, help="coefficient b (1/length)")
    if orbit:
        p.add_argument("--x0", type=float, required=True, help="initial radius, > 0")
        p.add_argument("--theta0", type=parse_angle, default=0.0,
                       help="initial tangent angle in radians; accepts pi/2, 3pi/2, ...")
        p.add_argument("--rel-tol", type=parse_finite, default=REL_TOL,
                       help="relative tolerance of a run's steps (atol is a hundredth of it), "
                            "and the accuracy asked of the first integral's level set: eps "
                            "times the terms f_H sums must stay within it (default %(default)g)")
    p.add_argument("-o", "--out", type=Path, default=None if document else Path("."),
                   help=f"write the document to OUT/{document}" if document else "output directory")
    p.set_defaults(document=document)


def cmd_integrate(args) -> tuple[dict, int]:
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    traj = integrate(params, ic, IntegrationControls(args.rel_tol, args.max_arclength))
    crossings = find_self_intersections(traj)
    args.out.mkdir(parents=True, exist_ok=True)
    files = [args.out / "trajectory.csv", args.out / "events.json"]
    output.write_trajectory_csv(traj, files[0])
    output.write_events_json(traj, files[1], crossings)
    if args.svg:
        files.append(args.out / "profile.svg")
        output.write_profile_svg(traj, files[-1])
    return {
        "termination": traj.termination.value,
        "termination_backward": traj.termination_backward.value,
        "samples": len(traj.s),
        "events": len(traj.events) + len(crossings),
        "files": [str(f) for f in files],
    }, EXIT_OK


def cmd_classify(args) -> tuple[dict, int]:
    report = classify_surface(Params(args.a, args.b), InitialConditions(args.x0, args.theta0),
                              args.rel_tol)
    return output.report_to_dict(report), EXIT_OK


def cmd_phase(args) -> tuple[dict, int]:
    params = Params(args.a, args.b)
    if args.separatrix:
        require_saddle(params)      # before the portrait, which may be Inconclusive
    # |a/b| is the interior rest point and the cylinder radius, and sets the
    # default box: refuse it where it rounds to 0 or inf, before it is used.
    ratio = abs(params.a / params.b) if params.b != 0.0 else None
    if ratio is not None and not 0.0 < ratio < math.inf:
        raise InvalidParameter(f"|a/b| = |{params.a!r}/{params.b!r}| rounds to {ratio!r}, "
                               "outside the float range")
    x_max = args.x_max
    if x_max is None:
        x_max = 2.5 * ratio if ratio is not None else 5.0
        if x_max == math.inf:
            raise InvalidParameter(f"the default box 2.5*|a/b| = 2.5*{ratio!r} overflows; "
                                   "give --x-max")
    portrait = phase_portrait(params, PortraitSpec(x_max=x_max))
    points = critical_points(params)
    separatrix = None
    if args.separatrix:
        separatrix = (args.theta0, find_separatrix(params, args.theta0))
    args.out.mkdir(parents=True, exist_ok=True)
    svg_path = args.out / "phase.svg"
    json_path = args.out / "critical_points.json"
    output.write_phase_svg(portrait, points, svg_path, separatrix)
    doc = {
        "params": {"a": params.a, "b": params.b},
        "critical_points": [{
            "theta": p.theta,
            "x": p.x,
            "eigenvalues": [[z.real, z.imag] for z in p.eigenvalues],
            "kind": p.kind.value,
        } for p in points],
        "special_solutions": [{"class": s.tag.value, "radius": s.radius}
                              for s in special_solutions(params)],
    }
    if separatrix is not None:
        doc["separatrix"] = {"theta0": separatrix[0], "x_bar": separatrix[1]}
    output.write_json(doc, json_path)
    return {"files": [str(svg_path), str(json_path)], **doc}, EXIT_OK


def cmd_mesh(args) -> tuple[dict, int]:
    if args.periods < 1:
        raise InvalidParameter(f"--periods must be >= 1, got {args.periods}")
    spec = output.MeshSpec(n_profile=args.n_profile, n_revolve=args.n_revolve)
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    report = classify_surface(params, ic, args.rel_tol)
    period = report.period or orbit_period(params, ic, args.rel_tol)  # an Unduloid report has none
    window, span = None, scaled_arclength(params, ic)
    if period is not None:
        # a quarter period past the window, so that no step in it is cut short
        window, span = (0.0, args.periods * period), (args.periods + 0.25) * period
    elif report.surface.tag is SurfaceTag.CYLINDER:
        span = 4.0 * ic.x0
    traj = integrate(params, ic, IntegrationControls(rel_tol=args.rel_tol, max_arclength=span))
    if window is not None and traj.s_max < window[1]:
        raise InvalidParameter(f"--periods {args.periods} needs s up to {window[1]!r}; the run "
                               f"ends {traj.termination.value} at s = {traj.s_max!r}")
    ends = (traj.termination_backward, traj.termination)
    if report.pole_z is not None and ends != (Termination.AXIS_REACHED,) * 2:
        # a run that misses a pole would mesh an open piece of the closed class
        raise VerificationFailed(f"{report.surface.tag.value} is closed, but its run ends "
                                 f"{ends[0].value} backward and {ends[1].value} forward")
    args.out.mkdir(parents=True, exist_ok=True)
    obj_path = args.out / "surface.obj"
    output.write_obj_mesh(traj, obj_path, spec, window)
    return {
        "class": report.surface.tag.value,
        "files": [str(obj_path)],
        "n_profile": spec.n_profile,
        "n_revolve": spec.n_revolve,
        "periods": args.periods if period is not None else None,
    }, EXIT_OK


def error_document(exc: Exception) -> dict:
    """The document of a command, or of a sweep cell, that raised exc."""
    doc = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, Inconclusive):
        doc["diagnostics"] = exc.diagnostics
    return doc


def run_sweep(spec: SweepSpec) -> Path:
    """Classify every grid cell in this process, in grid order: a report per
    cell and a summary CSV with a row per cell.  A cell that raises is
    labelled Inconclusive or Error:<Type>, and its report is its error
    document.  Returns the summary path."""
    spec.output_dir.mkdir(parents=True, exist_ok=True)
    rows = ["a,b,x0,theta0,class"]
    for idx, (a, b, x0, t0) in spec.cells():
        try:
            report = classify_surface(Params(a, b), InitialConditions(x0, t0))
            doc, label = output.report_to_dict(report), report.surface.tag.value
        except Exception as exc:  # a defect on one cell must not abort the grid
            doc = error_document(exc)
            if not isinstance(exc, WlwError):
                doc["traceback"] = traceback.format_exc()
            label = "Inconclusive" if isinstance(exc, Inconclusive) else f"Error:{doc['error']}"
        output.write_json(doc, spec.output_dir / "report_a{}_b{}_x{}_t{}.json".format(*idx))
        rows.append(",".join([output.fnum(a), output.fnum(b), output.fnum(x0),
                              output.fnum(t0), label]))
    summary = spec.output_dir / "summary.csv"
    summary.write_text("\n".join(rows) + "\n", newline="\n")
    return summary


def cmd_sweep(args) -> tuple[dict, int]:
    summary = run_sweep(SweepSpec(args.a, args.b, args.x0, args.theta0_list, args.out))
    labels = Counter(row.rsplit(",", 1)[1] for row in summary.read_text().splitlines()[1:])
    return {"cells": sum(labels.values()), "summary": str(summary),
            "labels": dict(sorted(labels.items()))}, EXIT_OK


def scaled_arclength(params: Params, ic: InitialConditions) -> float:
    """200 max(x0, |a/b|, 1) of arclength, the homothety size: rescale(lam)
    maps (a, b, x0) to (a, b/lam, lam*x0) and keeps the class."""
    scale = max(ic.x0, abs(params.a / params.b) if params.b != 0.0 else 0.0, 1.0)
    return 200.0 * scale


def default_controls(params: Params, ic: InitialConditions,
                     rel_tol: float = REL_TOL) -> IntegrationControls:
    """check's run at rel_tol: 3.25 periods each way of a periodic orbit, within
    scaled_arclength."""
    span = scaled_arclength(params, ic)
    period = orbit_period(params, ic, rel_tol)
    if period is not None:
        span = min(span, 3.25 * period)
    return IntegrationControls(rel_tol=rel_tol, max_arclength=span)


def cmd_check(args) -> tuple[dict, int]:
    """Tests of one run: first_integral, horizontal_symmetry, periodicity.

    An entry whose computation raises NotVertical (horizontal_symmetry) or
    VerificationFailed (periodicity) is reported as failed, with its error
    document, and every other entry is still computed."""
    params = Params(args.a, args.b)
    ic = InitialConditions(args.x0, args.theta0)
    traj = integrate(params, ic, default_controls(params, ic, args.rel_tol))
    checks: dict[str, dict] = {}

    anchor = levelset.Anchor(ic.x0, math.sin(ic.theta0))
    worst = max(abs(math.sin(t) - levelset.f_H(params, anchor, x))
                for x, t in zip(traj.x.tolist(), traj.theta.tolist()))
    checks["first_integral"] = {"max_residual": worst, "pass": bool(worst < 1e-6)}

    tangents = traj.events_of(EventKind.VERTICAL_TANGENT)
    if tangents:
        try:
            worst = max(check_horizontal_symmetry(traj, e.s) for e in tangents)
            checks["horizontal_symmetry"] = {"max_residual": worst, "pass": bool(worst < 1e-6)}
        except NotVertical as exc:
            checks["horizontal_symmetry"] = {"pass": False, **error_document(exc)}

    try:
        T, z_shift = detect_period(traj)
        checks["periodicity"] = {"period": T, "z_shift": z_shift, "pass": True}
    except NoFullTurn:
        pass
    except VerificationFailed as exc:
        checks["periodicity"] = {"pass": False, **error_document(exc)}

    ok = all(c.get("pass", True) for c in checks.values())
    return {"pass": ok, "checks": checks}, EXIT_OK if ok else EXIT_FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The wlw argument parser, built on the first call and shared by every
    later one, so callers must not change it.  Parsing keeps no state in the
    parser; the command functions are bound when it is built."""
    parser = _Parser(
        prog="wlw",
        description="Rotational surfaces with kappa1 = a*kappa2 + b: "
                    "integration, phase plane, classification, export.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("integrate", help="integrate a profile curve, write CSV + events")
    _add_common_flags(p)
    p.add_argument("--max-arclength", type=float, default=IntegrationControls.max_arclength,
                   help="arclength of the run each way (default %(default)g)")
    p.add_argument("--svg", action="store_true", help="also write a profile plot")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("classify", help="classify the surface for one initial condition")
    _add_common_flags(p, document="report.json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("phase", help="phase portrait and critical points; with --separatrix "
                                      "also the radius whose orbit runs into the a > 0 saddle")
    _add_common_flags(p, orbit=False)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--theta0", type=parse_angle, default=0.0,
                   help="initial angle for --separatrix")
    p.add_argument("--separatrix", action="store_true",
                   help="find the radius at --theta0 on the saddle's level, between a/b and "
                        "the level's outer turning radius (needs a > 0 and b > 0)")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("mesh", help="export a revolved OBJ mesh; a periodic class over --periods")
    _add_common_flags(p)
    p.add_argument("--n-profile", type=int, default=96)
    p.add_argument("--n-revolve", type=int, default=48)
    p.add_argument("--periods", type=int, default=1,
                   help="periods of an Unduloid, Nodoid or Antinodoid to mesh, off a run of "
                        "a quarter period more each way (default %(default)s)")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("sweep", help="classify a parameter grid in grid order; print the cell "
                                      "count and a tally of labels")
    p.add_argument("-a", type=parse_range, required=True, help="value or lo:hi:count")
    p.add_argument("-b", type=parse_range, required=True, help="value or lo:hi:count")
    p.add_argument("--x0", type=parse_range, required=True, help="value or lo:hi:count")
    p.add_argument("--theta0-list", type=parse_angles, default="pi/2",
                   help="comma-separated angles")
    p.add_argument("-o", "--out", type=Path, required=True)
    p.set_defaults(func=cmd_sweep, document=None)

    p = sub.add_parser("check", help="test one run: first_integral, horizontal_symmetry and "
                                      "periodicity (the Euler-Lagrange equation holds at every "
                                      "state, on a run or not, so it is no entry), over 3.25 "
                                      "periods each way of a periodic orbit")
    _add_common_flags(p, document="check.json")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.func(args)
        if args.document and args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            output.write_json(doc, args.out / args.document)
    except SystemExit:  # --help; a parse error raises InvalidParameter
        return EXIT_OK
    except WlwError as exc:
        doc = error_document(exc)
        code = (EXIT_INCONCLUSIVE if isinstance(exc, Inconclusive)
                else EXIT_INVALID if isinstance(exc, InvalidParameter) else EXIT_FAILURE)
    print(json.dumps(doc, indent=2))
    return code


if __name__ == "__main__":
    sys.exit(main())
