import json
import math

import jsonschema
import numpy as np
import pytest

from wlw.classify import classify_surface
from wlw.errors import DegenerateProfile, InvalidParameter
from wlw.integrate import IntegrationControls, detect_period, find_self_intersections, integrate
from wlw.model import InitialConditions, Params
from wlw.output import (
    MeshSpec,
    events_to_dict,
    fnum,
    load_report_schema,
    report_to_dict,
    write_events_json,
    write_obj_mesh,
    write_phase_svg,
    write_profile_svg,
    write_report_json,
    write_trajectory_csv,
)
from wlw.phaseplane import PortraitSpec, critical_points, phase_portrait

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
    phis = [2.0 * math.pi * j / spec.n_revolve for j in range(spec.n_revolve)]

    lines = [f"# surface of revolution: {n_prof} x {spec.n_revolve} vertices"]
    for _, x, z, _ in pts:
        for phi in phis:
            lines.append(f"v {fnum(x * math.cos(phi))} {fnum(x * math.sin(phi))} {fnum(z)}")
    for _, x, z, theta in pts:
        st, ct = math.sin(theta), math.cos(theta)
        for phi in phis:
            lines.append(f"vn {fnum(st * math.cos(phi))} {fnum(st * math.sin(phi))} {fnum(-ct)}")

    def vid(i: int, j: int) -> int:
        return i * spec.n_revolve + (j % spec.n_revolve) + 1

    for i in range(n_prof - 1):
        for j in range(spec.n_revolve):
            a_, b_, c_, d_ = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            lines.append(f"f {a_}//{a_} {c_}//{c_} {b_}//{b_}")
            lines.append(f"f {a_}//{a_} {d_}//{d_} {c_}//{c_}")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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

    def test_obj_negative_zero(self, antinodoid_traj, tmp_path):
        # theta0 = 3pi/2: sin(theta) < 0, so sin(theta) * sin(0) is -0.0
        spec = MeshSpec(n_profile=16, n_revolve=8)
        write_obj_mesh(antinodoid_traj, tmp_path / "block.obj", spec)
        _write_obj_mesh_loop(antinodoid_traj, tmp_path / "loop.obj", spec)
        text = (tmp_path / "block.obj").read_text()
        assert " -0.0 " in text
        assert text == (tmp_path / "loop.obj").read_text()


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
        write_report_json(report, path)
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
        portrait = phase_portrait(params, PortraitSpec(x_max=5.0, n_theta=13, n_x=7))
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


class TestObjMesh:
    def test_sphere_vertices_on_sphere(self, tmp_path):
        traj = integrate(Params(-2, 1), InitialConditions(3.0, PI / 2),
                         IntegrationControls(axis_epsilon=3e-4))
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
