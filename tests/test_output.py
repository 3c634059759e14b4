import json
import math
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wlw.classify import classify_surface
from wlw.errors import DegenerateProfile, InvalidParameter
from wlw.floatrepr import repr_table
from wlw.integrate import (
    IntegrationControls,
    Termination,
    detect_period,
    find_self_intersections,
    integrate,
)
from wlw.model import InitialConditions, Params
from wlw.output import (
    BOX_TOP,
    MeshSpec,
    _f,
    _Frame,
    _ref_table,
    _svg_document,
    _unit_circle,
    events_to_dict,
    fnum,
    load_report_schema,
    report_to_dict,
    write_events_json,
    write_json,
    write_obj_mesh,
    write_phase_svg,
    write_profile_svg,
    write_trajectory_csv,
)
from wlw.phaseplane import PortraitSpec, critical_points, find_separatrix, phase_portrait

PI = math.pi


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    with open(path, "r", newline="\n") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(tok) for tok in line.strip().split(",")] for line in fh if line.strip()]
    data = np.array(rows) if rows else np.empty((0, len(header)))
    return {name: data[:, i] for i, name in enumerate(header)}


def rewrite_trajectory_csv(columns: dict[str, np.ndarray], path) -> None:
    names = list(columns)
    lines = [",".join(names)]
    for row in zip(*(columns[n] for n in names)):
        lines.append(",".join(fnum(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_obj_mesh(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vertices, normals and triangle index array (0-based) from an OBJ file."""
    verts, norms, faces = [], [], []
    with open(path) as fh:
        for line in fh:
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "v":
                verts.append([float(t) for t in tok[1:4]])
            elif tok[0] == "vn":
                norms.append([float(t) for t in tok[1:4]])
            elif tok[0] == "f":
                faces.append([int(t.split("/")[0]) - 1 for t in tok[1:4]])
    return np.array(verts), np.array(norms), np.array(faces, dtype=int)


def _write_trajectory_csv_loop(traj, path) -> None:
    """Reference: the per-row CSV writer the block writer must match byte for byte."""
    lines = ["s,x,z,theta,kappa1,kappa2"]
    a, b = traj.params.a, traj.params.b
    for s, x, z, theta in zip(traj.s, traj.x, traj.z, traj.theta):
        k2 = math.sin(theta) / x
        k1 = a * k2 + b
        lines.append(",".join(fnum(v) for v in (s, x, z, theta, k1, k2)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_obj_mesh_loop(traj, path, spec=MeshSpec(), window=None) -> None:
    """Reference: the per-vertex OBJ writer the block writer must match byte for byte."""
    lo = window[0] if window else traj.s_min
    hi = window[1] if window else traj.s_max
    pts = traj.resample(spec.n_profile, (lo, hi))
    pts = pts[pts[:, 1] > 0.0]
    n_prof = len(pts)
    cos, sin = _unit_circle(spec.n_revolve)
    angles = list(zip(cos.tolist(), sin.tolist()))

    lines = [f"# surface of revolution: {n_prof} x {spec.n_revolve} vertices"]
    for _, x, z, _ in pts:
        for c, s in angles:
            lines.append(f"v {fnum(x * c)} {fnum(x * s)} {fnum(z)}")
    for _, x, z, theta in pts:
        st, ct = math.sin(theta), math.cos(theta)
        for c, s in angles:
            lines.append(f"vn {fnum(st * c)} {fnum(st * s)} {fnum(-ct)}")

    def vid(i: int, j: int) -> int:
        return i * spec.n_revolve + (j % spec.n_revolve) + 1

    for i in range(n_prof - 1):
        for j in range(spec.n_revolve):
            a_, b_, c_, d_ = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a_}//{a_} {c_}//{c_} {b_}//{b_}")
            lines.append(f"f {a_}//{a_} {d_}//{d_} {c_}//{c_}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_profile_svg_loop(traj, path, width=640.0, height=480.0, n_samples=1200) -> None:
    """Reference: the per-point profile SVG writer the block writer must match byte for byte."""
    pts = traj.resample(min(n_samples, max(64, 4 * len(traj.s))))
    x, z = pts[:, 1], pts[:, 2]
    xlim = (min(0.0, float(x.min())), float(x.max()) * 1.05 + 1e-9)
    zlim = (float(z.min()), float(z.max()) + 1e-9)
    fr = _Frame(xlim, zlim, width, height)

    ax_top = fr.map(0.0, zlim[1])
    ax_bot = fr.map(0.0, zlim[0])
    body = [f'<line class="axis" x1="{_f(ax_top[0])}" y1="{_f(ax_top[1])}" '
            f'x2="{_f(ax_bot[0])}" y2="{_f(ax_bot[1])}"/>']
    coords = [fr.map(xi, zi) for xi, zi in zip(x, z)]
    d = "M" + "L".join(f"{_f(u)} {_f(v)}" for u, v in coords)
    body.append(f'<path class="profile" d="{d}"/>')
    for e in traj.events:
        u, v = fr.map(e.state.x, e.state.z)
        body.append(f'<circle class="{e.kind.value}" cx="{_f(u)}" cy="{_f(v)}" r="3"/>')
    body.append(f'<text x="8" y="16">a={traj.params.a:g} b={traj.params.b:g} '
                f'x0={traj.ic.x0:g} theta0={traj.ic.theta0:g}</text>')
    with open(path, "w", newline="\n") as fh:
        fh.write(_svg_document(width, height, body))


def _write_phase_svg_loop(portrait, points, path, separatrix=None,
                          width=720.0, height=540.0) -> None:
    """Reference: the per-point phase SVG writer the block writer must match byte for byte."""
    grid = portrait.grid
    tlim = (float(grid[:, 0].min()), float(grid[:, 0].max()))
    xlim = (0.0, float(grid[:, 1].max()) * BOX_TOP)
    fr = _Frame(tlim, xlim, width, height, equal=False)

    mags = np.hypot(grid[:, 2], grid[:, 3])
    scale = 0.35 * (tlim[1] - tlim[0]) / max(len(set(grid[:, 0])), 1)
    vmax = float(mags.max()) or 1.0
    body = []
    for th, xx, dth, dx in grid:
        m = math.hypot(dth, dx)
        if m == 0.0:
            continue
        L = scale * (0.2 + 0.8 * m / vmax)
        u0, v0 = fr.map(th, xx)
        u1, v1 = fr.map(th + L * dth / m, xx + L * dx / m * (tlim[1] - tlim[0]) / (xlim[1] - xlim[0]))
        body.append(f'<line class="arrow" x1="{_f(u0)}" y1="{_f(v0)}" '
                    f'x2="{_f(u1)}" y2="{_f(v1)}"/>')
    for orbit in portrait.orbits:
        pts = " ".join(f"{_f(u)},{_f(v)}" for u, v in (fr.map(t, xx) for t, xx in orbit))
        body.append(f'<polyline class="orbit" points="{pts}"/>')
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


class TestBlockWritersMatchLoops:
    """The block-formatting emitters write the same bytes as per-line loops."""

    @pytest.mark.parametrize("name", ["nodoid_traj", "antinodoid_traj"])
    def test_csv(self, name, request, tmp_path):
        traj = request.getfixturevalue(name)
        write_trajectory_csv(traj, tmp_path / "block.csv")
        _write_trajectory_csv_loop(traj, tmp_path / "loop.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    def test_csv_negative_s_and_exponent_reprs(self, vesicle_traj, tmp_path):
        write_trajectory_csv(vesicle_traj, tmp_path / "block.csv")
        _write_trajectory_csv_loop(vesicle_traj, tmp_path / "loop.csv")
        text = (tmp_path / "block.csv").read_text()
        assert vesicle_traj.s[0] < 0.0 and "\n-" in text
        assert "e-" in text
        assert text == (tmp_path / "loop.csv").read_text()

    def test_csv_in_short_blocks(self, nodoid_traj, tmp_path, monkeypatch):
        # Blocks of 7 rows, their 42 values formatted 17 at a time: the last
        # block and each block's last chunk are part-filled.
        monkeypatch.setattr("wlw.output._CSV_ROWS", 7)
        monkeypatch.setattr("wlw.floatrepr._REPR_CHUNK", 17)
        assert len(nodoid_traj.s) % 7
        write_trajectory_csv(nodoid_traj, tmp_path / "block.csv")
        _write_trajectory_csv_loop(nodoid_traj, tmp_path / "loop.csv")
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "loop.csv").read_bytes()

    @pytest.mark.parametrize("name,spec", [
        ("vesicle_traj", MeshSpec()),
        ("nodoid_traj", MeshSpec()),
        ("vesicle_traj", MeshSpec(n_profile=40, n_revolve=8)),
        ("nodoid_traj", MeshSpec(n_profile=50, n_revolve=128)),
        ("antinodoid_traj", MeshSpec(n_profile=33, n_revolve=13)),
    ])
    def test_obj(self, name, spec, request, tmp_path):
        traj = request.getfixturevalue(name)
        write_obj_mesh(traj, tmp_path / "block.obj", spec)
        _write_obj_mesh_loop(traj, tmp_path / "loop.obj", spec)
        assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "loop.obj").read_bytes()

    def test_obj_two_period_window(self, nodoid_traj, tmp_path):
        T, _ = detect_period(nodoid_traj)
        spec, window = MeshSpec(n_profile=128, n_revolve=16), (0.0, 2.0 * T)
        write_obj_mesh(nodoid_traj, tmp_path / "block.obj", spec, window=window)
        _write_obj_mesh_loop(nodoid_traj, tmp_path / "loop.obj", spec, window=window)
        assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "loop.obj").read_bytes()

    @pytest.mark.parametrize("n_revolve", [8, 48, 128])
    @pytest.mark.parametrize("name", ["nodoid_traj", "antinodoid_traj"])
    def test_obj_rings_of_both_signs(self, name, n_revolve, request, tmp_path):
        # Winding profiles: sin(theta), the normals' ring radius, takes both signs.
        traj = request.getfixturevalue(name)
        spec = MeshSpec(n_profile=64, n_revolve=n_revolve)
        sin_theta = np.sin(traj.resample(spec.n_profile)[:, 3])
        assert sin_theta.min() < 0.0 < sin_theta.max()
        write_obj_mesh(traj, tmp_path / "block.obj", spec)
        _write_obj_mesh_loop(traj, tmp_path / "loop.obj", spec)
        assert (tmp_path / "block.obj").read_bytes() == (tmp_path / "loop.obj").read_bytes()

    @pytest.mark.parametrize("n_profile,n_revolve", [(16, 8), (100, 101), (79, 128), (801, 128)])
    def test_obj_faces_across_digit_widths(self, n_profile, n_revolve, nodoid_traj, tmp_path):
        # 128, 10,100, 10,112 and 102,528 vertices: the face references
        # cross every power of ten up to 10^5, and the last gather chunk is
        # short.
        spec = MeshSpec(n_profile=n_profile, n_revolve=n_revolve)
        write_obj_mesh(nodoid_traj, tmp_path / "block.obj", spec)
        _write_obj_mesh_loop(nodoid_traj, tmp_path / "loop.obj", spec)
        block = (tmp_path / "block.obj").read_bytes()
        faces = [line for line in block.splitlines(keepends=True) if line.startswith(b"f ")]
        assert block.startswith(f"# surface of revolution: {n_profile} x {n_revolve} ".encode())
        assert len(faces) == 2 * n_revolve * (n_profile - 1)
        assert faces[-1].startswith(f"f {n_revolve * (n_profile - 1)}//".encode())
        assert block == (tmp_path / "loop.obj").read_bytes()

    def test_obj_negative_zero(self, antinodoid_traj, tmp_path):
        # theta0 = 3pi/2: sin(theta) < 0, so sin(theta) * sin(0) is -0.0
        spec = MeshSpec(n_profile=16, n_revolve=8)
        write_obj_mesh(antinodoid_traj, tmp_path / "block.obj", spec)
        _write_obj_mesh_loop(antinodoid_traj, tmp_path / "loop.obj", spec)
        text = (tmp_path / "block.obj").read_text()
        assert " -0.0 " in text
        assert text == (tmp_path / "loop.obj").read_text()


    @pytest.mark.parametrize("name", ["nodoid_traj", "vesicle_traj", "antinodoid_traj"])
    def test_profile_svg(self, name, request, tmp_path):
        traj = request.getfixturevalue(name)
        write_profile_svg(traj, tmp_path / "block.svg")
        _write_profile_svg_loop(traj, tmp_path / "loop.svg")
        assert (tmp_path / "block.svg").read_bytes() == (tmp_path / "loop.svg").read_bytes()

    @pytest.mark.parametrize("a,b,separatrix", [
        (3.0, 1.0, True),      # the CI saddle portrait, with its separatrix tick
        (-2.0, 1.0, False),    # centre cycles
        (2.0, 0.0, False),     # b = 0: x_max 5, no rest point with x > 0
        (150.0, 2.0, True),    # |a| >= 100: coordinates far from the unit scale
    ])
    def test_phase_svg(self, a, b, separatrix, tmp_path):
        params = Params(a, b)
        x_max = 2.5 * abs(a / b) if b != 0.0 else 5.0
        portrait = phase_portrait(params, PortraitSpec(x_max=x_max))
        assert portrait.orbits
        points = critical_points(params)
        tick = None
        if separatrix:
            ratio = a / b
            tick = (0.0, find_separatrix(params, 0.0, (0.5 * ratio, 6.0 * max(ratio, 1.0))))
        write_phase_svg(portrait, points, tmp_path / "block.svg", tick)
        _write_phase_svg_loop(portrait, points, tmp_path / "loop.svg", tick)
        assert (tmp_path / "block.svg").read_bytes() == (tmp_path / "loop.svg").read_bytes()


class TestCsv:
    def test_round_trip_is_byte_identical(self, vesicle_traj, tmp_path):
        p1 = tmp_path / "t.csv"
        p2 = tmp_path / "t2.csv"
        write_trajectory_csv(vesicle_traj, p1)
        cols = read_trajectory_csv(p1)
        rewrite_trajectory_csv(cols, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_curvature_relation(self, nodoid_traj, tmp_path):
        p = tmp_path / "t.csv"
        write_trajectory_csv(nodoid_traj, p)
        cols = read_trajectory_csv(p)
        assert list(cols) == ["s", "x", "z", "theta", "kappa1", "kappa2"]
        np.testing.assert_allclose(cols["kappa1"], -2.0 * cols["kappa2"] + 1.0, atol=1e-12)

    def test_lf_line_endings(self, vesicle_traj, tmp_path):
        p = tmp_path / "t.csv"
        write_trajectory_csv(vesicle_traj, p)
        assert b"\r" not in p.read_bytes()

    def test_shortest_round_trip_formatting(self):
        assert fnum(1.0 / 3.0) == repr(1.0 / 3.0)
        assert float(fnum(0.1 + 0.2)) == 0.1 + 0.2


def repr_texts(values) -> list[str]:
    """The rows of repr_table(values) with their NUL padding deleted."""
    table = repr_table(values)
    lines = np.column_stack((table, np.full(len(table), ord("\n"), dtype=np.uint8)))
    return lines.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def neighbours(v: float, count: int) -> list[float]:
    """v and the count doubles on either side of it."""
    below, above = [v], [v]
    for _ in range(count):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


def edge_values() -> list[float]:
    """Powers of two and ten, the positional/scientific switch points,
    the float range's ends, signed zeros, infinities, NaN and small integers."""
    values = [s * 2.0 ** k for k in range(-1074, 1024) for s in (1.0, -1.0)]
    values += [float(f"1e{k}") for k in range(-323, 309)]
    for v in (1e-4, 1e-5, 1e15, 1e16):
        values += neighbours(v, 8)
    values += [9999999999999998.0, 5e-324, -5e-324, 1e-323, 1.5e-323, 5e-323,
               sys.float_info.max, -sys.float_info.max, sys.float_info.min,
               0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    values += [float(i) for i in range(-1000, 1001)]
    return values


class TestReprTable:
    """repr_table's rows are repr(float(v)) byte for byte."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20180823)
        for _ in range(8):
            values = rng.integers(0, 2 ** 64, size=2 ** 17, dtype=np.uint64).view(np.float64)
            assert repr_texts(values) == [repr(v) for v in values.tolist()]

    def test_edge_values(self):
        values = edge_values()
        assert repr_texts(np.array(values)) == [repr(v) for v in values]

    @given(st.floats())
    @settings(max_examples=500)
    def test_any_float(self, v):
        assert repr_texts(np.array([v])) == [repr(v)]

    def test_rows_are_left_aligned_after_the_sign(self):
        values = np.array([-0.0, 0.0, -1.5, 1.5, 1e100, -1e-100, math.inf, -math.inf, math.nan,
                           -123456789.0, 0.00012345678901234567])
        table = repr_table(values)
        assert table.dtype == np.uint8
        assert table.shape == (len(values), 1 + max(len(repr(abs(v))) for v in values.tolist()))
        for row, v in zip(table.tolist(), values.tolist()):
            text = repr(v).encode()
            sign = text[:1] if text.startswith(b"-") else b"\0"
            assert bytes(row) == sign + text.lstrip(b"-").ljust(table.shape[1] - 1, b"\0")

    def test_empty_and_any_shape(self):
        assert repr_table(np.empty(0)).shape[0] == 0
        grid = np.arange(12.0).reshape(3, 4) / 7.0
        assert repr_texts(grid) == [repr(v) for v in grid.ravel().tolist()]


@pytest.fixture(scope="module")
def schema():
    return load_report_schema()


class TestReportJson:

    @pytest.mark.parametrize("a,b,x0,theta0", [
        (-2.0, 1.0, 4.0, PI / 2),     # nodoid
        (-2.0, 1.0, 3.0, PI / 2),     # sphere
        (-2.0, 1.0, 2.0, PI / 2),     # cylinder
        (3.0, 1.0, 1.0, 0.0),         # vesicle
        (-2.0, 0.0, 1.0, PI / 2),     # catenoid
        (2.0, -1.0, 1.0, PI),         # reflected input
    ])
    def test_reports_validate_against_schema(self, schema, a, b, x0, theta0):
        report = classify_surface(Params(a, b), InitialConditions(x0, theta0))
        jsonschema.validate(report_to_dict(report), schema)

    def test_written_file_parses(self, tmp_path):
        report = classify_surface(Params(-2, 1), InitialConditions(4.0, PI / 2))
        path = tmp_path / "report.json"
        write_json(report_to_dict(report), path)
        # the text cli.main prints: indent 2, LF line ends, a trailing newline
        assert path.read_bytes() == (json.dumps(report_to_dict(report), indent=2) + "\n").encode()
        doc = json.loads(path.read_text())
        assert doc["class"] == "Nodoid"
        assert doc["theta_range"] == "unbounded"
        assert doc["period"] > 0

    def test_events_json(self, vesicle_traj, tmp_path):
        path = tmp_path / "events.json"
        write_events_json(vesicle_traj, path, find_self_intersections(vesicle_traj))
        doc = json.loads(path.read_text())
        kinds = [e["kind"] for e in doc["events"]]
        assert kinds.count("AxisApproach") == 2
        assert doc["termination"] == "AxisReached"
        ss = [e["s"] for e in doc["events"]]
        assert ss == sorted(ss)


class TestSvg:
    def test_profile_deterministic(self, nodoid_traj, tmp_path):
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_profile_svg(nodoid_traj, p1)
        write_profile_svg(nodoid_traj, p2)
        content = p1.read_bytes()
        assert content == p2.read_bytes()
        assert content.startswith(b"<svg")
        assert b"path" in content

    def test_phase_deterministic_with_annotations(self, tmp_path):
        params = Params(2, 1)
        portrait = phase_portrait(params, PortraitSpec(x_max=5.0))
        points = critical_points(params)
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_phase_svg(portrait, points, p1, separatrix=(0.0, 4.8))
        write_phase_svg(portrait, points, p2, separatrix=(0.0, 4.8))
        content = p1.read_text()
        assert content == p2.read_text()
        assert "Saddle" in content
        assert "4.8000" in content

    def test_no_timestamps(self, vesicle_traj, tmp_path):
        p = tmp_path / "a.svg"
        write_profile_svg(vesicle_traj, p)
        text = p.read_text().lower()
        assert "date" not in text and "time" not in text


class TestUnitCircle:
    """The revolve angles' table keeps the n-gon's symmetries to the bit."""

    NS = [8, 12, 13, 16, 48, 128, 256]

    @pytest.mark.parametrize("n", NS)
    def test_symmetries_are_exact(self, n):
        cos, sin = _unit_circle(n)
        assert cos.shape == sin.shape == (n,)
        j = np.arange(n)
        mirror = -j % n
        assert np.array_equal(cos[mirror], cos) and np.array_equal(sin[mirror], -sin)
        if n % 2 == 0:
            half = (j + n // 2) % n
            assert np.array_equal(cos[half], -cos) and np.array_equal(sin[half], -sin)
        if n % 4 == 0:
            quarter, swap = (j + n // 4) % n, (n // 4 - j) % n
            assert np.array_equal(cos[quarter], -sin) and np.array_equal(sin[quarter], cos)
            assert np.array_equal(cos[swap], sin) and np.array_equal(sin[swap], cos)

    @pytest.mark.parametrize("n", NS)
    def test_quarter_turns_are_exact_and_zeros_positive(self, n):
        cos, sin = _unit_circle(n)
        axes = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
        for k, (c, s) in enumerate(axes):
            if k * n % 4 == 0:
                assert (cos[k * n // 4], sin[k * n // 4]) == (c, s)
        assert not np.signbit(cos[cos == 0.0]).any()
        assert not np.signbit(sin[sin == 0.0]).any()

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63, reason="needs an 80-bit long double")
    @pytest.mark.parametrize("n", [n for n in NS if n % 4 == 0])
    def test_within_an_ulp_of_the_circle(self, n):
        pi = np.longdouble("3.14159265358979323846264338327950288")
        phi = 2 * pi * np.arange(n).astype(np.longdouble) / n
        cos, sin = _unit_circle(n)
        assert np.abs(cos - np.cos(phi)).max() <= 1.2e-16
        assert np.abs(sin - np.sin(phi)).max() <= 1.2e-16

    @pytest.mark.parametrize("n", [n for n in NS if n % 8 == 0])
    def test_a_ring_formats_a_quarter_of_its_angles(self, n):
        # write_obj_mesh formats |r| u once per distinct u among |cos| and |sin|
        units = np.unique(np.abs(np.concatenate(_unit_circle(n))))
        assert len(units) == n // 4 + 1


class TestObjMesh:
    def test_ref_table_rows_are_the_references(self):
        n = 1_000_001
        table = _ref_table(n)
        assert table.shape == (n + 1, 16) and table.dtype == np.uint8
        expected = b"".join(f"{k}//{k}".encode().ljust(16, b"\0") for k in range(n + 1))
        assert table.tobytes() == expected

    def test_sphere_vertices_on_sphere(self, tmp_path):
        # The umbilical sphere of radius 3: its default run reaches the axis
        # both ways, at z = -3 and z = 3.
        traj = integrate(Params(1, 0), InitialConditions(3.0, PI / 2))
        assert traj.termination is traj.termination_backward is Termination.AXIS_REACHED
        path = tmp_path / "sphere.obj"
        write_obj_mesh(traj, path, MeshSpec(n_profile=64, n_revolve=32))
        verts, norms, faces = read_obj_mesh(path)
        assert len(verts) == 64 * 32
        z_center = 0.5 * (traj.z[0] + traj.z[-1])
        radii = np.linalg.norm(verts - [0.0, 0.0, z_center], axis=1)
        np.testing.assert_allclose(radii, 3.0, atol=1e-4)

    def test_cylinder_vertices_at_radius(self, tmp_path):
        traj = integrate(Params(-2, 1), InitialConditions(2.0, PI / 2),
                         IntegrationControls(max_arclength=5.0))
        path = tmp_path / "cyl.obj"
        write_obj_mesh(traj, path, MeshSpec(n_profile=16, n_revolve=8))
        verts, _, _ = read_obj_mesh(path)
        radii = np.hypot(verts[:, 0], verts[:, 1])
        np.testing.assert_allclose(radii, 2.0, atol=1e-9)

    def test_nodoid_two_periods_z_extent(self, nodoid_traj, tmp_path):
        T, z_shift = detect_period(nodoid_traj)
        path = tmp_path / "nodoid.obj"
        write_obj_mesh(nodoid_traj, path, MeshSpec(n_profile=128, n_revolve=16),
                       window=(0.0, 2.0 * T))
        verts, _, _ = read_obj_mesh(path)
        start_ring_z = verts[:16, 2]
        end_ring_z = verts[-16:, 2]
        np.testing.assert_allclose(end_ring_z - start_ring_z, 2.0 * z_shift, atol=1e-5)

    def test_orientation_coherent(self, vesicle_traj, tmp_path):
        path = tmp_path / "v.obj"
        write_obj_mesh(vesicle_traj, path, MeshSpec(n_profile=24, n_revolve=12))
        _, _, faces = read_obj_mesh(path)
        seen = {}
        for tri in faces:
            for k in range(3):
                edge = (int(tri[k]), int(tri[(k + 1) % 3]))
                seen[edge] = seen.get(edge, 0) + 1
        # a directed edge is never traversed twice, and each interior edge
        # appears once in each direction
        assert all(count == 1 for count in seen.values())
        interior = [e for e in seen if (e[1], e[0]) in seen]
        assert len(interior) > 0.8 * len(seen)

    def test_normals_match_winding(self, tmp_path):
        traj = integrate(Params(-2, 1), InitialConditions(2.0, PI / 2),
                         IntegrationControls(max_arclength=5.0))
        path = tmp_path / "cyl.obj"
        write_obj_mesh(traj, path, MeshSpec(n_profile=16, n_revolve=16))
        verts, norms, faces = read_obj_mesh(path)
        agree = 0
        for tri in faces:
            p0, p1, p2 = verts[tri]
            face_n = np.cross(p1 - p0, p2 - p0)
            if np.dot(face_n, norms[tri].mean(axis=0)) > 0:
                agree += 1
        assert agree == len(faces)

    @pytest.mark.parametrize("name", ["nodoid_traj", "antinodoid_traj"])
    def test_rings_mirror_exactly(self, name, request, tmp_path):
        # The vertex at phi = pi/2 lies on the plane x = 0, and vertices j
        # and n - j of every ring mirror across y = 0, normals alike.
        n = 128
        path = tmp_path / "ring.obj"
        write_obj_mesh(request.getfixturevalue(name), path, MeshSpec(n_profile=40, n_revolve=n))
        verts, norms, _ = read_obj_mesh(path)
        for points in (verts, norms):
            rings = points.reshape(-1, n, 3)
            assert np.all(rings[:, n // 4, 0] == 0.0)
            mirror = rings[:, -np.arange(n) % n]
            assert np.array_equal(mirror[..., 0], rings[..., 0])
            assert np.array_equal(mirror[..., 1], -rings[..., 1])
            assert np.array_equal(mirror[..., 2], rings[..., 2])

    def test_spec_validation(self):
        with pytest.raises(InvalidParameter):
            MeshSpec(n_profile=8)
        with pytest.raises(InvalidParameter):
            MeshSpec(n_revolve=4)

    def test_degenerate_profile(self, vesicle_traj, tmp_path, monkeypatch):
        orig = vesicle_traj.resample

        def too_few(n, window=None):
            pts = orig(n, window)
            pts[:, 1] = 0.0
            return pts

        monkeypatch.setattr(vesicle_traj, "resample", too_few)
        with pytest.raises(DegenerateProfile):
            write_obj_mesh(vesicle_traj, tmp_path / "bad.obj", MeshSpec())
