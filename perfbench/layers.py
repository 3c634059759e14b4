"""The traced layers of wlw and the per-layer metrics derived from their spans.

Each layer is a module of the package; ``model`` is cheap and not traced.
Every metric is a per-pass figure: counts must repeat exactly from pass to
pass, times are later reduced to their median over the traced passes.
"""

from __future__ import annotations

import json
import os
import statistics
from collections import Counter, defaultdict
from inspect import signature

import numpy as np

from tracer import Span, Target, ancestor, self_times

EVENT_KINDS = ("AxisApproach", "VerticalTangent", "FullTurn", "EquilibriumHold", "Blowup")
TAGS = ("Plane", "Sphere", "Cylinder", "Ovaloid", "CatenoidEntire", "CatenoidBounded",
        "Vesicle", "PinchedSpheroid", "ImmersedSpheroid", "CylindricalAntinodoid",
        "Antinodoid", "Unduloid", "Nodoid")
FILE_EMITTERS = ("write_trajectory_csv", "write_events_json", "write_profile_svg",
                 "write_obj_mesh", "write_phase_svg")
EMITTERS = FILE_EMITTERS + ("report_to_dict",)
CLI_COMMANDS = ("integrate", "mesh", "check", "phase")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("integrate.calls", "count", "lower"),
     ("integrate.ms", "ms", "lower"),
     ("integrate.samples", "count", "lower"),
     ("integrate.us_per_sample", "us", "lower")]
    + [(f"integrate.events.{k}", "count", "lower") for k in EVENT_KINDS]
    + [("integrate.eval.calls", "count", "lower"),
       ("integrate.eval.points", "count", "lower"),
       ("integrate.eval.ms", "ms", "lower"),
       ("integrate.find_self_intersections.calls", "count", "lower"),
       ("integrate.find_self_intersections.ms", "ms", "lower"),
       ("integrate.find_self_intersections.hits", "count", "lower"),
       ("integrate.detect_period.ms", "ms", "lower"),
       ("integrate.check_horizontal_symmetry.ms", "ms", "lower"),
       ("classify.classify_surface.self_ms", "ms", "lower")]
    + [(f"classify.tag.{t}.p50_ms", "ms", "lower") for t in TAGS]
    + [("phaseplane.find_separatrix.ms", "ms", "lower"),
       ("phaseplane.find_separatrix.shots", "count", "lower"),
       ("phaseplane.phase_portrait.ms", "ms", "lower"),
       ("variational.el_residual.ms", "ms", "lower")]
    + [m for e in EMITTERS for m in ((f"output.{e}.ms", "ms", "lower"),
                                     (f"output.{e}.bytes", "B", "lower"))]
    + [(f"cli.main.{c}.ms", "ms", "lower") for c in CLI_COMMANDS]
    + [("cli.mesh.integrate_calls", "count", "lower"),
       ("cli.sweep.busy_ms", "ms", "lower"),
       ("cli.sweep.wait_ms", "ms", "lower"),
       ("cli.sweep.parallel_eff", "ratio", "higher"),
       ("trace.overhead_frac", "ratio", "lower")]
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}
# Counts that must repeat exactly between passes of the same inputs.
DETERMINISTIC = tuple(name for name, unit, _ in PER_LAYER if unit in ("count", "B"))


def _file_bytes(fn):
    sig = signature(fn)

    def info(args, kwargs, result):
        path = sig.bind(*args, **kwargs).arguments["path"]
        return {"bytes": os.path.getsize(path)}
    return info


def targets() -> list[Target]:
    """The functions wrapped in a traced run; wlw must already be imported."""
    import wlw.output

    def eval_points(args, kwargs, result):
        s = args[1] if len(args) > 1 else kwargs["s"]
        return {"points": int(np.size(s))}

    def main_command(args, kwargs, result):
        argv = args[0] if args else kwargs["argv"]
        return {"command": argv[0]}

    def report_bytes(args, kwargs, result):
        # as the sweep writes it: json.dump(doc, fh, indent=2) plus a newline
        return {"bytes": len(json.dumps(result, indent=2)) + 1}

    out = [
        Target("wlw.integrate", "integrate", "integrate.integrate",
               lambda a, k, r: {"samples": len(r.s), "events": [e.kind.value for e in r.events]}),
        Target("wlw.integrate", "Trajectory.eval", "integrate.eval", eval_points),
        Target("wlw.integrate", "find_self_intersections", "integrate.find_self_intersections",
               lambda a, k, r: {"hits": len(r)}),
        Target("wlw.integrate", "detect_period", "integrate.detect_period"),
        Target("wlw.integrate", "check_horizontal_symmetry", "integrate.check_horizontal_symmetry"),
        Target("wlw.classify", "classify_surface", "classify.classify_surface",
               lambda a, k, r: {"tag": r.surface.tag.value}, cpu=True),
        Target("wlw.phaseplane", "find_separatrix", "phaseplane.find_separatrix"),
        Target("wlw.phaseplane", "phase_portrait", "phaseplane.phase_portrait"),
        Target("wlw.variational", "el_residual_power", "variational.el_residual"),
        Target("wlw.variational", "el_residual_exp", "variational.el_residual"),
        Target("wlw.output", "report_to_dict", "output.report_to_dict", report_bytes),
        Target("wlw.cli", "main", "cli.main", main_command),
        Target("wlw.cli", "run_sweep", "cli.run_sweep"),
    ]
    out += [Target("wlw.output", e, f"output.{e}", _file_bytes(getattr(wlw.output, e)))
            for e in FILE_EMITTERS]
    return out


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac, for one pass."""
    by = defaultdict(list)
    for sp in spans:
        by[sp.name].append(sp)

    def ms(name, where=None):
        return 1e3 * sum(sp.duration for sp in by[name] if where is None or where(sp))

    m: dict[str, float] = {}
    integ = by["integrate.integrate"]
    samples = sum(sp.info.get("samples", 0) for sp in integ)
    m["integrate.calls"] = len(integ)
    m["integrate.ms"] = ms("integrate.integrate")
    m["integrate.samples"] = samples
    m["integrate.us_per_sample"] = 1e3 * m["integrate.ms"] / samples if samples else 0.0
    kinds = Counter(k for sp in integ for k in sp.info.get("events", ()))
    for k in EVENT_KINDS:
        m[f"integrate.events.{k}"] = kinds[k]

    evals = by["integrate.eval"]
    m["integrate.eval.calls"] = len(evals)
    m["integrate.eval.points"] = sum(sp.info.get("points", 0) for sp in evals)
    m["integrate.eval.ms"] = ms("integrate.eval")
    fsi = by["integrate.find_self_intersections"]
    m["integrate.find_self_intersections.calls"] = len(fsi)
    m["integrate.find_self_intersections.ms"] = ms("integrate.find_self_intersections")
    m["integrate.find_self_intersections.hits"] = sum(sp.info.get("hits", 0) for sp in fsi)
    m["integrate.detect_period.ms"] = ms("integrate.detect_period")
    m["integrate.check_horizontal_symmetry.ms"] = ms("integrate.check_horizontal_symmetry")

    cls = by["classify.classify_surface"]
    own = self_times(spans)
    m["classify.classify_surface.self_ms"] = 1e3 * sum(own[id(sp)] for sp in cls)
    for t in TAGS:
        durs = [sp.duration for sp in cls if sp.info.get("tag") == t]
        m[f"classify.tag.{t}.p50_ms"] = 1e3 * statistics.median(durs) if durs else 0.0

    m["phaseplane.find_separatrix.ms"] = ms("phaseplane.find_separatrix")
    m["phaseplane.find_separatrix.shots"] = sum(
        1 for sp in integ if ancestor(sp, "phaseplane.find_separatrix") is not None)
    m["phaseplane.phase_portrait.ms"] = ms("phaseplane.phase_portrait")
    m["variational.el_residual.ms"] = ms("variational.el_residual")
    for e in EMITTERS:
        m[f"output.{e}.ms"] = ms(f"output.{e}")
        m[f"output.{e}.bytes"] = sum(sp.info.get("bytes", 0) for sp in by[f"output.{e}"])

    for c in CLI_COMMANDS:
        m[f"cli.main.{c}.ms"] = ms("cli.main", lambda sp: sp.info.get("command") == c)
    meshes = [sp for sp in by["cli.main"] if sp.info.get("command") == "mesh"]
    mesh_ids = {id(sp) for sp in meshes}
    under_mesh = sum(1 for sp in integ if id(ancestor(sp, "cli.main")) in mesh_ids)
    m["cli.mesh.integrate_calls"] = under_mesh / len(meshes) if meshes else 0

    # Sweep cells run on pool threads, so their spans are roots that start
    # inside the run_sweep span.  Busy is the cells' thread CPU time; wait is
    # the rest of their wall time, spent waiting for the interpreter lock.
    wall = sum(sp.duration for sp in by["cli.run_sweep"])
    cells = [sp for sp in cls if sp.parent is None and any(
        sw.start <= sp.start <= sw.end for sw in by["cli.run_sweep"])]
    busy = sum(sp.cpu for sp in cells)
    workers = len({sp.thread for sp in cells})
    m["cli.sweep.busy_ms"] = 1e3 * busy
    m["cli.sweep.wait_ms"] = 1e3 * sum(sp.duration - sp.cpu for sp in cells)
    m["cli.sweep.parallel_eff"] = busy / (wall * workers) if workers else 0.0
    return m


def sweep_threads(spans: list[Span]) -> int:
    """Distinct threads that ran classify_surface as a root span."""
    return len({sp.thread for sp in spans
                if sp.name == "classify.classify_surface" and sp.parent is None})
