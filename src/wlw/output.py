"""File emitters: trajectory CSV, report/event JSON, SVG plots, OBJ meshes.

Everything written here is byte-deterministic for identical inputs: floats
in CSV, JSON and OBJ use the shortest round-trip decimal (repr), SVG
coordinates use a fixed six-decimal format, and no timestamps or environment
data are embedded.  The CSV and OBJ writers format their floats as whole
arrays: floatrepr.repr_table finds each value's shortest digits with
Schubfach on uint64 arrays and lays them out as repr does, one NUL-padded
row of ASCII per value.  Their lines are assembled as bytes, each field in a fixed
column: CSV rows and OBJ vertex and normal lines gather rows of that table,
and OBJ face lines gather rows of a table of the "k//k" references
(_ref_table); the padding is deleted when a block is written.  The SVG
writers fill %-templates with Python floats, never numpy scalars, whose repr
differs under numpy 2: a profile's path is one template, and the phase
plot's arrows and its polylines are one template each, one element per
line.  The coordinates are whole columns through _Frame.map, all of a
plot's orbit points in one call, and the arrows' lengths and tips are
elementwise in the per-arrow order of operations, off math.hypot per
arrow: numpy's x0 + sx * col rounds each element as the scalar expression
does, so every coordinate is the one a per-point loop would print.  An OBJ
ring revolves the profile at angles whose cos and sin come from an exactly
symmetric table (_unit_circle): where 4 divides the angle count n, libm
gives the first octant and every other entry is an exact image under the
n-gon's symmetries, so mirror vertices print the same digits and a ring
formats n/4 + 1 distinct magnitudes (8 | n) instead of about n.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .classify import ClassificationReport
from .errors import DegenerateProfile, InvalidParameter
from .integrate import EventKind, IntersectionRecord, Trajectory
from .floatrepr import repr_table
from .phaseplane import BOX_TOP, CriticalPoint, PhasePortrait

CSV_HEADER = "s,x,z,theta,kappa1,kappa2"


def fnum(v: float) -> str:
    """Shortest decimal that round-trips to the same binary64."""
    return repr(float(v))


def write_json(doc, path) -> None:
    """doc as cli.main prints it: indent 2, LF line ends, a trailing newline; one write."""
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


# write_trajectory_csv formats this many rows at a time.
_CSV_ROWS = 1024


def _line_array(count: int, k: int, width: int, separators: bytes,
                prefix: bytes = b"") -> tuple[np.ndarray, np.ndarray]:
    """An uint8 array of count lines of text and its (count, k, width) view
    of field cells.  Each line is the prefix, then k cells of width bytes,
    each followed by its separator; fill the cells with NUL-padded fields
    and write the lines' bytes with the NULs deleted."""
    lines = np.empty((count, len(prefix) + k * (width + 1)), dtype=np.uint8)
    lines[:, :len(prefix)] = np.frombuffer(prefix, dtype=np.uint8)
    cells = lines[:, len(prefix):].reshape(count, k, width + 1)
    cells[:, :, width] = np.frombuffer(separators, dtype=np.uint8)
    return lines, cells[:, :, :width]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """One row per accepted integration step: s, x, z, theta, kappa1, kappa2.

    sin(theta) is math.sin per sample; the array divide, multiply and add
    round as the scalar ones do, so every float is the one a per-row loop
    would print.  _CSV_ROWS rows at a time are formatted by repr_table and
    their fields set in fixed columns of an array of lines, which is written
    with the padding deleted."""
    a, b = traj.params.a, traj.params.b
    k2 = np.array([math.sin(t) for t in traj.theta.tolist()]) / traj.x
    rows = np.column_stack((traj.s, traj.x, traj.z, traj.theta, a * k2 + b, k2))
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode("ascii") + b"\n")
        for i in range(0, len(rows), _CSV_ROWS):
            table = repr_table(rows[i:i + _CSV_ROWS])
            lines, fields = _line_array(len(table) // 6, 6, table.shape[1], b",,,,,\n")
            fields[:] = table.reshape(fields.shape)
            fh.write(lines.tobytes().translate(None, b"\0"))


def events_to_dict(traj: Trajectory,
                   intersections: Optional[Sequence[IntersectionRecord]] = None) -> dict:
    events = [{
        "kind": e.kind.value,
        "s": e.s,
        "state": {"s": e.state.s, "x": e.state.x, "z": e.state.z, "theta": e.state.theta},
    } for e in traj.events]
    if intersections:
        for r in intersections:
            events.append({
                "kind": EventKind.SELF_INTERSECTION.value,
                "s": r.s_a,
                "state": {"s": r.s_a, "x": r.x, "z": r.z,
                          "theta": float(traj.eval(r.s_a)[2])},
                "s_partner": r.s_b,
            })
    events.sort(key=lambda d: d["s"])
    return {
        "termination": traj.termination.value,
        "termination_backward": traj.termination_backward.value,
        "events": events,
    }


def write_events_json(traj: Trajectory, path,
                      intersections: Optional[Sequence[IntersectionRecord]] = None) -> None:
    write_json(events_to_dict(traj, intersections), path)


def report_to_dict(report: ClassificationReport) -> dict:
    return {
        "class": report.surface.tag.value,
        "radius": report.surface.radius,
        "pole_z": list(report.pole_z) if report.pole_z is not None else None,
        "period": report.period,
        "z_shift": report.z_shift,
        "self_intersections": report.self_intersections,
        "theta_range": list(report.theta_range) if report.theta_range is not None else "unbounded",
        "asymptotic_radius": report.asymptotic_radius,
        "canonicalized_b": report.canonicalized_b,
        "params": {"a": report.params.a, "b": report.params.b},
        "initial_conditions": {"x0": report.ic.x0, "theta0": report.ic.theta0},
    }


# ---------------------------------------------------------------------------
# SVG
# ---------------------------------------------------------------------------

_SVG_STYLE = (
    "path.profile{fill:none;stroke:#1f4e80;stroke-width:1.5}"
    "line.axis{stroke:#888;stroke-dasharray:4 3;stroke-width:1}"
    "polyline.orbit{fill:none;stroke:#1f4e80;stroke-width:1}"
    "line.arrow{stroke:#b0b8c0;stroke-width:0.8}"
    "circle.AxisApproach{fill:#c03020}"
    "circle.VerticalTangent{fill:#208040}"
    "circle.FullTurn{fill:#8040a0}"
    "circle.EquilibriumHold{fill:#e0a020}"
    "circle.SelfIntersection{fill:#d06010}"
    "circle.Blowup{fill:#000}"
    "circle.Saddle,circle.ImproperSaddle{fill:#c03020}"
    "circle.Center{fill:#208040}"
    "circle.UnstableNode,circle.ImproperNode{fill:#8040a0}"
    "circle.StableNode{fill:#204080}"
    "line.separatrix{stroke:#c03020;stroke-width:1;stroke-dasharray:2 2}"
    "text{font-family:sans-serif;font-size:11px;fill:#333}"
)
# Plot sizes in SVG user units, and the most points a profile plot resamples.
_PROFILE_SVG_SIZE, _PHASE_SVG_SIZE = (640.0, 480.0), (720.0, 540.0)
_PROFILE_SVG_SAMPLES = 1200


def _f(v: float) -> str:
    return f"{v:.6f}"


def _elements(templates: list[str], *columns: np.ndarray) -> list[str]:
    """SVG elements of one kind as one body entry: the templates, joined by
    newlines, filled with the columns' values row by row; none without
    templates."""
    if not templates:
        return []
    return ["\n".join(templates) % tuple(np.column_stack(columns).ravel().tolist())]


class _Frame:
    """Affine data-to-screen map with equal or independent axis scales."""

    def __init__(self, xlim, ylim, width, height, margin=40.0, equal=True):
        self.width, self.height = width, height
        x_span = max(xlim[1] - xlim[0], 1e-12)
        y_span = max(ylim[1] - ylim[0], 1e-12)
        sx = (width - 2 * margin) / x_span
        sy = (height - 2 * margin) / y_span
        if equal:
            sx = sy = min(sx, sy)
        self.sx, self.sy = sx, sy
        self.x0 = margin - xlim[0] * sx
        self.y0 = height - margin + ylim[0] * sy

    def map(self, x, y):
        return self.x0 + self.sx * x, self.y0 - self.sy * y


def _svg_document(width, height, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width:g}" height="{height:g}" '
            f'viewBox="0 0 {width:g} {height:g}">')
    return "\n".join([head, f"<style>{_SVG_STYLE}</style>", *body, "</svg>"]) + "\n"


def write_profile_svg(traj: Trajectory, path) -> None:
    """Profile curve in the (x, z) half-plane with event markers."""
    width, height = _PROFILE_SVG_SIZE
    pts = traj.resample(min(_PROFILE_SVG_SAMPLES, max(64, 4 * len(traj.s))))
    x, z = pts[:, 1], pts[:, 2]
    xlim = (min(0.0, float(x.min())), float(x.max()) * 1.05 + 1e-9)
    zlim = (float(z.min()), float(z.max()) + 1e-9)
    fr = _Frame(xlim, zlim, width, height)

    ax_top = fr.map(0.0, zlim[1])
    ax_bot = fr.map(0.0, zlim[0])
    body = [f'<line class="axis" x1="{_f(ax_top[0])}" y1="{_f(ax_top[1])}" '
            f'x2="{_f(ax_bot[0])}" y2="{_f(ax_bot[1])}"/>']
    body += _elements(['<path class="profile" d="M' + "L".join(["%.6f %.6f"] * len(x)) + '"/>'],
                      *fr.map(x, z))
    for e in traj.events:
        u, v = fr.map(e.state.x, e.state.z)
        body.append(f'<circle class="{e.kind.value}" cx="{_f(u)}" cy="{_f(v)}" r="3"/>')
    body.append(f'<text x="8" y="16">a={traj.params.a:g} b={traj.params.b:g} '
                f'x0={traj.ic.x0:g} theta0={traj.ic.theta0:g}</text>')
    with open(path, "w", newline="\n") as fh:
        fh.write(_svg_document(width, height, body))


def write_phase_svg(portrait: PhasePortrait, points: Sequence[CriticalPoint], path,
                    separatrix: Optional[tuple[float, float]] = None) -> None:
    """Vector field, orbits and marked rest points; optional separatrix tick.

    separatrix, when given, is a (theta0, x_bar) pair drawn as a dashed
    vertical tick with its value annotated.
    """
    width, height = _PHASE_SVG_SIZE
    grid = portrait.grid
    tlim = (float(grid[:, 0].min()), float(grid[:, 0].max()))
    xlim = (0.0, float(grid[:, 1].max()) * BOX_TOP)
    fr = _Frame(tlim, xlim, width, height, equal=False)

    mags = np.hypot(grid[:, 2], grid[:, 3])
    scale = 0.35 * (tlim[1] - tlim[0]) / max(len(set(grid[:, 0])), 1)
    vmax = float(mags.max()) or 1.0
    # Arrow lengths and ends elementwise, in the per-arrow order of operations.
    m = np.array(list(map(math.hypot, grid[:, 2].tolist(), grid[:, 3].tolist())))
    th, xx, dth, dx = grid[m != 0.0].T
    m = m[m != 0.0]
    L = scale * (0.2 + 0.8 * m / vmax)
    tip = fr.map(th + L * dth / m, xx + L * dx / m * (tlim[1] - tlim[0]) / (xlim[1] - xlim[0]))
    body = _elements(['<line class="arrow" x1="%.6f" y1="%.6f" x2="%.6f" y2="%.6f"/>'] * len(m),
                     *fr.map(th, xx), *tip)
    orbits = portrait.orbits
    pts = np.concatenate(orbits) if orbits else np.empty((0, 2))
    body += _elements(['<polyline class="orbit" points="' + " ".join(["%.6f,%.6f"] * len(o))
                       + '"/>' for o in orbits], *fr.map(pts[:, 0], pts[:, 1]))
    for cp in points:
        u, v = fr.map(cp.theta, cp.x)
        body.append(f'<circle class="{cp.kind.value}" cx="{_f(u)}" cy="{_f(v)}" r="5"/>')
        body.append(f'<text x="{_f(u + 8)}" y="{_f(v - 6)}">{cp.kind.value}</text>')
    if separatrix is not None:
        th0, xbar = separatrix
        u0, v0 = fr.map(th0, 0.0)
        u1, v1 = fr.map(th0, xbar)
        body.append(f'<line class="separatrix" x1="{_f(u0)}" y1="{_f(v0)}" '
                    f'x2="{_f(u1)}" y2="{_f(v1)}"/>')
        body.append(f'<circle class="Saddle" cx="{_f(u1)}" cy="{_f(v1)}" r="3"/>')
        body.append(f'<text x="{_f(u1 + 6)}" y="{_f(v1 - 4)}">x&#773;={xbar:.4f}</text>')
    with open(path, "w", newline="\n") as fh:
        fh.write(_svg_document(width, height, body))


# ---------------------------------------------------------------------------
# OBJ
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MeshSpec:
    """Sampling density of the revolved triangle mesh, mesh's --n-profile and
    --n-revolve; a refusal names the flag."""

    n_profile: int = 96
    n_revolve: int = 48

    def __post_init__(self):
        if self.n_profile < 16:
            raise InvalidParameter("--n-profile must be at least 16")
        if self.n_revolve < 8:
            raise InvalidParameter("--n-revolve must be at least 8")


def _unit_circle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi j / n for j < n, with the n-gon's symmetries exact.

    Where 4 divides n, math.cos and math.sin are called only on the first
    octant, 2 pi j / n <= pi/4, and j = n/8 gets sqrt(1/2) twice (libm's
    cos and sin of pi/4 differ by one ulp).  The rest of the table is exact
    images: j -> n/4 - j swaps cos and sin, j -> n/2 - j negates cos and
    j -> n - j negates sin, so a quarter turn maps (c, s) to (-s, c).  For
    other n only the maps that n admits are used: for even n libm gives
    j <= n/4 and the last two maps the rest, for odd n libm gives j <= n/2
    and the last map the rest.  Exact zeros are +0.0.
    """
    def libm(ks):
        return [(math.cos(2.0 * math.pi * k / n), math.sin(2.0 * math.pi * k / n)) for k in ks]

    if n % 4 == 0:
        q = n // 4
        arc = libm(range((q + 1) // 2))
        if q % 2 == 0:
            arc.append((math.sqrt(0.5), math.sqrt(0.5)))
        arc += [(s, c) for c, s in reversed(arc[:q + 1 - len(arc)])]
    else:
        arc = libm(range(n // 4 + 1))
    if n % 2 == 0:
        arc += [(-c, s) for c, s in reversed(arc[:n // 2 + 1 - len(arc)])]
    else:
        arc += libm(range(len(arc), n // 2 + 1))
    arc += [(c, -s) for c, s in reversed(arc[1:n - n // 2])]
    cos, sin = np.array(arc).T + 0.0
    return cos, sin


# OBJ vertex, normal and face lines are assembled this many rings at a time.
_RINGS = 32


def _ref_table(n: int) -> np.ndarray:
    """The OBJ references "k//k" for k = 0 .. n as a uint8 table of ASCII.

    Row k holds the reference left-aligned in 2 d + 2 bytes, d the digit
    count of n, padded with NUL.  The rows of each digit width are one
    slice, filled a digit column at a time.
    """
    d = len(str(n))
    table = np.zeros((n + 1, 2 * d + 2), dtype=np.uint8)
    for w in range(1, d + 1):
        lo, hi = 10 ** (w - 1) if w > 1 else 0, min(n, 10 ** w - 1)
        rows, k = table[lo:hi + 1], np.arange(lo, hi + 1)
        for p in range(w - 1, -1, -1):
            k, digit = np.divmod(k, 10)
            rows[:, p] = rows[:, w + 2 + p] = digit + ord("0")
        rows[:, w:w + 2] = ord("/")
    return table


def write_obj_mesh(traj: Trajectory, path, spec: MeshSpec = MeshSpec(),
                   window: Optional[tuple[float, float]] = None) -> None:
    """Triangulated surface of revolution X(s, phi) = (x cos phi, x sin phi, z).

    The profile is resampled to n_profile points on the window, revolved at
    the n_revolve angles phi_j = 2 pi j / n_revolve (seam closed by index
    wrap-around), and written with per-vertex analytic normals and coherent
    winding.  cos phi_j and sin phi_j come from _unit_circle, which keeps
    the n-gon's symmetries exact: where 4 divides n_revolve, the vertex at
    phi = pi/2 has x = 0.0, and vertices j and n_revolve - j mirror each
    other to the bit.

    Floats are the shortest round-trip repr, formatted by repr_table.  A
    ring's coordinates are r cos phi_j and r sin phi_j, and |r c| =
    |r| |c| exactly, so each ring formats |r| u once for each distinct u
    among the |cos phi_j| and |sin phi_j| (n_revolve/4 + 1 of them where 8
    divides n_revolve) and its third coordinate (z, or -cos theta for a
    normal) once.  Each vertex's line gathers its three rows into fixed
    columns and puts '-' in the sign column where the sign bit of r c is
    set, as for -0.0: every string is the repr a per-vertex loop would print.

    The faces' references k//k are rows of _ref_table, NUL-padded to one
    width, gathered by index in the same way: the same bytes as
    f"f {a}//{a} {c}//{c} {b}//{b}".  Vertex, normal and face lines are
    written _RINGS rings at a time, with the padding deleted; a face block
    whose references all have the same digit count has none.
    """
    lo = window[0] if window else traj.s_min
    hi = window[1] if window else traj.s_max
    pts = traj.resample(spec.n_profile, (lo, hi))
    usable = pts[:, 1] > 0.0
    if int(usable.sum()) < 16:
        raise DegenerateProfile(f"only {int(usable.sum())} usable profile samples")
    pts = pts[usable]
    n_prof, n_rev = len(pts), spec.n_revolve
    trig = np.column_stack(_unit_circle(n_rev))
    units, slot = np.unique(np.abs(trig), return_inverse=True)
    slot = slot.reshape(n_rev, 2)
    flip = np.signbit(trig)

    def rings(prefix: bytes, radius: np.ndarray, third: np.ndarray):
        # Row j of a ring's table is the repr of |r| units[j]; its last row
        # is the third coordinate.
        table = repr_table(np.column_stack((np.abs(radius)[:, None] * units, third)))
        table = table.reshape(len(radius), len(units) + 1, -1)
        for i in range(0, len(radius), _RINGS):
            block, neg = table[i:i + _RINGS], np.signbit(radius[i:i + _RINGS])
            lines, fields = _line_array(len(block) * n_rev, 3, table.shape[2], b"  \n", prefix)
            fields = fields.reshape(len(block), n_rev, 3, -1)
            fields[:, :, :2] = block[:, slot]
            fields[:, :, 2] = block[:, -1:]
            fields[:, :, :2, 0] = np.where(flip ^ neg[:, None, None], ord("-"), 0)
            yield lines.tobytes().translate(None, b"\0")

    def faces():
        # winding chosen so face normals agree with the emitted vertex
        # normals: faces (a, c, b) and (a, d, c) on the quad a = (i, j),
        # b = (i + 1, j), c = (i + 1, j + 1), d = (i, j + 1).  quad holds
        # ring 0's 1-based vertex indices, one face per row; ring i adds
        # i * n_rev.  The reference table is built only once the rings are
        # written, so that it and a ring block never take memory together.
        j = np.arange(n_rev)
        j1 = (j + 1) % n_rev
        quad = np.stack((j, n_rev + j1, n_rev + j, j, j1, n_rev + j1), axis=1).reshape(-1, 3) + 1
        # A block whose least reference, n_rev i + 1, has the table's full
        # digit count d holds no padding.
        table = _ref_table(n_prof * n_rev)
        least_unpadded = 10 ** (table.shape[1] // 2 - 2)
        lines, fields = _line_array(_RINGS * len(quad), 3, table.shape[1], b"  \n", b"f ")
        for i in range(0, n_prof - 1, _RINGS):
            shifts = n_rev * np.arange(i, min(i + _RINGS, n_prof - 1))
            refs = (quad + shifts[:, None, None]).reshape(-1, 3)
            fields[:len(refs)] = np.take(table, refs, axis=0)
            block = lines[:len(refs)].tobytes()
            yield block if n_rev * i + 1 >= least_unpadded else block.translate(None, b"\0")

    with open(path, "wb") as fh:
        fh.write(f"# surface of revolution: {n_prof} x {n_rev} vertices\n".encode("ascii"))
        fh.writelines(rings(b"v ", pts[:, 1], pts[:, 2]))
        theta = pts[:, 3].tolist()
        fh.writelines(rings(b"vn ", np.array([math.sin(t) for t in theta]),
                            np.array([-math.cos(t) for t in theta])))
        fh.writelines(faces())
