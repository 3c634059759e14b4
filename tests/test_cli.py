import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wlw import cli, levelset
from wlw.cli import EXIT_FAILURE, EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, main
from wlw.model import InitialConditions, Params


def run(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr()


def run_json(capsys, argv):
    code, captured = run(capsys, argv)
    return code, json.loads(captured.out)


NODOID = ["classify", "-a", "-2", "-b", "1", "--x0", "4", "--theta0", "pi/2"]


def test_classify_nodoid_exits_ok(capsys):
    code, doc = run_json(capsys, NODOID)
    assert code == EXIT_OK
    assert doc["class"] == "Nodoid"


@pytest.mark.parametrize("extra", [[], ["--rel-tol", "1e-11"]])
def test_classify_rescaled_nodoid_keeps_scaled_budget(capsys, extra):
    # The benchmark nodoid rescaled by 50: the arclength budget must scale
    # with x0 whether or not a tolerance flag is given.
    code, doc = run_json(capsys, ["classify", "-a", "-2", "-b", "0.02", "--x0", "200",
                                  "--theta0", "pi/2", *extra])
    assert code == EXIT_OK
    assert doc["class"] == "Nodoid"


def test_periodic_class_reports_whatever_the_budget(capsys):
    # A periodic orbit is read off its level set, so no run budget binds it.
    code, doc = run_json(capsys, NODOID)
    assert code == EXIT_OK
    assert doc["class"] == "Nodoid" and "termination" not in doc


def test_mesh_integrates_a_periodic_profile_once(capsys, tmp_path, monkeypatch):
    # Periodic and axis-to-axis classes are read off the level set, so the
    # mesh's own run is the only one.
    calls, integrate = [], cli.integrate

    def spy(*args):
        calls.append(args)
        return integrate(*args)
    monkeypatch.setattr(cli, "integrate", spy)
    for flags, tag in [
        (["-a", "-2", "-b", "1", "--x0", "4", "--theta0", "pi/2", "--periods", "2"], "Nodoid"),
        (["-a", "3", "-b", "1", "--x0", "1", "--theta0", "0"], "Vesicle"),
    ]:
        calls.clear()
        code, doc = run_json(capsys, ["mesh", *flags, "-o", str(tmp_path / tag)])
        assert code == EXIT_OK and doc["class"] == tag
        assert len(calls) == 1


def test_mesh_meshes_the_periods_of_an_unduloid(capsys, tmp_path):
    # An Unduloid's report has no period; mesh takes T from orbit_period and
    # meshes s in [0, 2 T]: z rises from 0 to 2 dz, and the first and last
    # rings have radius x0.
    code, doc = run_json(capsys, ["mesh", "-a=-2", "-b", "1", "--x0", "0.5", "--theta0", "pi/2",
                                  "--periods", "2", "-o", str(tmp_path)])
    assert code == EXIT_OK and (doc["class"], doc["periods"]) == ("Unduloid", 2)
    dz = levelset.winding(levelset.level(Params(-2, 1), levelset.Anchor(0.5, 1.0))).shift
    lines = (tmp_path / "surface.obj").read_text().splitlines()
    v = np.array([line.split()[1:] for line in lines if line.startswith("v ")], dtype=float)
    assert (v[:, 2].min(), v[:, 2].max()) == pytest.approx((0.0, 2.0 * dz), rel=1e-9, abs=1e-12)
    rings = np.hypot(v[:, 0], v[:, 1]).reshape(doc["n_profile"], doc["n_revolve"])
    assert (rings[0], rings[-1]) == pytest.approx((0.5, 0.5), rel=1e-8)


@pytest.mark.parametrize("flags,tag,ends", [
    # The a < 0 sphere: its run leaves the sphere and ends at the budget both
    # ways, with z reaching +-128.
    (["-a", "-2", "-b", "1", "--x0", "3", "--theta0", "pi/2"], "Sphere",
     ("MaxArclength", "MaxArclength")),
    # A b = 0 Ovaloid whose outer turning radius lies beyond the budget.
    (["-a", "0.3", "-b", "0", "--x0", "1", "--theta0", "0.1"], "Ovaloid",
     ("AxisReached", "MaxArclength")),
])
def test_mesh_refuses_a_closed_class_whose_run_misses_a_pole(capsys, tmp_path, flags, tag,
                                                               ends):
    code, captured = run(capsys, ["mesh", *flags, "-o", str(tmp_path / "mesh")])
    assert code == EXIT_FAILURE and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["error"] == "VerificationFailed"
    assert tag in doc["message"] and all(end in doc["message"] for end in ends)
    assert not (tmp_path / "mesh").exists()


def test_separatrix_bracket_comes_from_the_saddle_level(capsys, tmp_path):
    # A guess from a/b searched [0.0715, 6.0] here and exited 1 with NoBracket.
    a, b = 0.0316257376803106, 0.22103866156983776
    code, doc = run_json(capsys, ["phase", "-a", repr(a), "-b", repr(b), "--separatrix",
                                  "--theta0", "0.9442337383644338", "-o", str(tmp_path)])
    assert code == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["critical_points.json", "phase.svg"]
    assert doc["separatrix"]["x_bar"] > a / b


def test_invalid_parameter_exits_invalid(capsys):
    code, doc = run_json(capsys, ["classify", "-a", "0", "-b", "1", "--x0", "1"])
    assert code == EXIT_INVALID
    assert set(doc) == {"error", "message"}
    assert doc["error"] == "InvalidParameter"


@pytest.mark.parametrize("a", ["abc", "1:2:2.5"])
def test_unparsable_sweep_range_exits_invalid(capsys, tmp_path, a):
    code, doc = run_json(capsys, ["sweep", "-a", a, "-b", "1", "--x0", "1",
                                  "-o", str(tmp_path)])
    assert code == EXIT_INVALID
    assert doc["error"] == "InvalidParameter"
    assert a in doc["message"]


def test_missing_required_flag_exits_invalid(capsys):
    code, captured = run(capsys, ["classify", "-a", "1", "-b", "1"])
    assert code == EXIT_INVALID
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["error"] == "InvalidParameter" and "--x0" in doc["message"]


# sin(theta) = -1 at this orbit's inner turning radius, about 1e-602, below
# the float range, so its level set cannot be resolved, whatever the flags.
BELOW_THE_FLOATS = ["-a=-5e-4", "-b", "1e-3", "--x0", "1", "--theta0", "5.7607"]


def test_tiny_budget_exits_inconclusive(capsys):
    code, doc = run_json(capsys, ["classify", *BELOW_THE_FLOATS])
    assert code == EXIT_INCONCLUSIVE
    assert set(doc) == {"error", "message", "diagnostics"}
    assert doc["error"] == "Inconclusive"
    assert doc["diagnostics"] == {"reason": "the inner turning radius lies below the float range",
                                  "x_lo": 0.0, "x_hi": 1498.959082627963, "term_size": None}


def test_sweep_summary_follows_grid_order(capsys, tmp_path):
    # Descending ranges, so that grid order differs from sorted order.
    code, doc = run_json(capsys, ["sweep", "-a=-1:-2:2", "-b", "1", "--x0", "4:0.5:2",
                                  "--theta0-list", "pi/2", "-o", str(tmp_path)])
    assert code == EXIT_OK
    assert doc["cells"] == 4
    rows = (tmp_path / "summary.csv").read_text().splitlines()
    assert rows[0] == "a,b,x0,theta0,class"
    cells = [tuple(float(v) for v in row.split(",")[:3]) for row in rows[1:]]
    assert cells == [(-1.0, 1.0, 4.0), (-1.0, 1.0, 0.5), (-2.0, 1.0, 4.0), (-2.0, 1.0, 0.5)]
    # x0 = 4 lies beyond x_sph = (1 - a)/b = 2 for a = -1: a Nodoid.
    assert rows[1].split(",")[4] == "Nodoid"
    assert len(list(tmp_path.glob("report_*.json"))) == 4


def test_sweep_prints_a_label_tally(capsys, tmp_path):
    code, doc = run_json(capsys, ["sweep", "-a=-2:0:2", "-b", "1", "--x0", "4:0.5:2",
                                  "--theta0-list", "pi/2", "-o", str(tmp_path)])
    assert code == EXIT_OK
    assert doc["cells"] == 4
    assert doc["labels"] == {"Error:InvalidParameter": 2, "Nodoid": 1, "Unduloid": 1}


def test_sweep_pools_only_a_grid_that_pays_for_it():
    assert cli._sweep_workers(cli.MIN_POOLED_CELLS - 1) == 1
    assert cli._sweep_workers(cli.MIN_POOLED_CELLS) == min(len(os.sched_getaffinity(0)),
                                                          cli.MIN_POOLED_CELLS)


def test_sweep_files_do_not_depend_on_the_worker_count(tmp_path, monkeypatch):
    # Several classes and an a = 0 cell, which is Error:InvalidParameter.
    grid = ([-2.0, 0.0, 3.0], [1.0], [0.5, 4.0], [math.pi / 2, 0.0])
    files = []
    for workers in (1, 2):
        monkeypatch.setattr(cli, "_sweep_workers", lambda n_cells: workers)
        out = tmp_path / f"workers{workers}"
        cli.run_sweep(cli.SweepSpec(*grid, output_dir=out))
        files.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert files[0] == files[1]
    assert len(files[0]) == 13
    rows = [row.split(",") for row in files[0]["summary.csv"].decode().splitlines()[1:]]
    spec = cli.SweepSpec(*grid, output_dir=tmp_path)
    assert [tuple(float(v) for v in row[:4]) for row in rows] == [
        values for _, values in spec.cells()]
    labels = {row[4] for row in rows}
    assert "Error:InvalidParameter" in labels
    assert len(labels - {"Error:InvalidParameter"}) >= 3


def test_sweep_isolates_a_cell_that_raises(capsys, tmp_path, monkeypatch):
    classify_surface = cli.classify_surface

    def fail_on_one_cell(params, ic):
        if (params.a, ic.x0) == (-2.0, 4.0):
            raise RuntimeError(f"defect on one cell in process {os.getpid()}")
        return classify_surface(params, ic)

    monkeypatch.setattr(cli, "classify_surface", fail_on_one_cell)
    # Two workers, so that the cell raises inside a forked worker.
    monkeypatch.setattr(cli, "_sweep_workers", lambda n_cells: 2)
    code, doc = run_json(capsys, ["sweep", "-a=-1:-2:2", "-b", "1", "--x0", "4:0.5:2",
                                  "--theta0-list", "pi/2", "-o", str(tmp_path)])
    assert code == EXIT_OK
    rows = [row.split(",") for row in (tmp_path / "summary.csv").read_text().splitlines()[1:]]
    assert [tuple(float(v) for v in row[:3]) for row in rows] == [
        (-1.0, 1.0, 4.0), (-1.0, 1.0, 0.5), (-2.0, 1.0, 4.0), (-2.0, 1.0, 0.5)]
    assert [row[4] for row in rows] == ["Nodoid", "Unduloid", "Error:RuntimeError", "Unduloid"]
    report = json.loads((tmp_path / "report_a1_b0_x0_t0.json").read_text())
    assert report["error"] == "RuntimeError"
    assert report["message"].startswith("defect on one cell in process ")
    assert report["message"] != f"defect on one cell in process {os.getpid()}"
    assert f"RuntimeError: {report['message']}" in report["traceback"]


def test_b_zero_ovaloid_with_a_just_above_one_exits_ok(capsys):
    # A spurious critical radius at 7.8e-295 made its quadrature overflow: exit 3.
    code, doc = run_json(capsys, ["classify", "-a", "1.054156139605086", "-b", "0", "--x0",
                                  "3.114244983210228", "--theta0", "0.8936654329701469"])
    assert code == EXIT_OK and doc["class"] == "Ovaloid"


def test_mesh_classifies_with_the_given_flags(capsys, tmp_path):
    code, doc = run_json(capsys, ["mesh", *BELOW_THE_FLOATS, "-o", str(tmp_path)])
    assert code == EXIT_INCONCLUSIVE
    assert doc["error"] == "Inconclusive"


def test_phase_resolves_a_turning_radius_next_to_the_least_normal_float(capsys, tmp_path):
    # The b = 0 level through (pi, 25/6) turns at x = 8.2e-308; it exited 3.
    code, doc = run_json(capsys, ["phase", "-a=-0.05171173686873847", "-b", "0",
                                  "-o", str(tmp_path)])
    assert code == EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["critical_points.json", "phase.svg"]
    assert doc["files"] == [str(tmp_path / "phase.svg"), str(tmp_path / "critical_points.json")]


@pytest.mark.parametrize("a", ["1e-15", "-1e-15", "1e15"])
def test_phase_draws_rest_points_far_from_a_one(capsys, tmp_path, a):
    # The axis points' eigenvalues (a, 1) are exact for every a != 0; an
    # eigenvalue solver reads |a| below about 1e-14 of 1, or 1 below that of
    # a, as zero.
    code, doc = run_json(capsys, ["phase", f"-a={a}", "-b", "1", "-o", str(tmp_path)])
    assert code == EXIT_OK
    assert doc["critical_points"][0]["eigenvalues"] == [[float(a), 0.0], [1.0, 0.0]]


@pytest.mark.parametrize("flags,message", [
    # 2.5 |a/b| = 2.5e308 overflows: the box was [0, inf] and numpy warned
    (["-a", "1e8", "-b", "1e-300"],
     "the default box 2.5*|a/b| = 2.5*1e+308 overflows; give --x-max"),
    # |a/b| = 1e-600 rounds to 0: the box was empty, and with --x-max the
    # cylinder radius 0 was refused
    (["-a", "1e-300", "-b", "1e300"],
     "|a/b| = |1e-300/1e+300| rounds to 0.0, outside the float range"),
    (["-a", "1e-300", "-b", "1e300", "--x-max", "5"],
     "|a/b| = |1e-300/1e+300| rounds to 0.0, outside the float range"),
    # |a/b| = 1e310 overflows: exit 3, Inconclusive on a portrait level
    (["-a", "1e10", "-b", "1e-300", "--x-max", "5"],
     "|a/b| = |10000000000.0/1e-300| rounds to inf, outside the float range"),
    # a box given as inf failed as the first one did
    (["-a", "1", "-b", "1", "--x-max", "inf"],
     "portrait box must be non-empty and finite, got x_max = inf"),
], ids=["default-box-overflows", "ratio-underflows", "ratio-underflows-given-box",
        "ratio-overflows-given-box", "infinite-box"])
def test_phase_refuses_a_ratio_or_box_outside_the_float_range(capsys, recwarn, tmp_path,
                                                              flags, message):
    code, captured = run(capsys, ["phase", *flags, "-o", str(tmp_path)])
    assert code == EXIT_INVALID
    assert json.loads(captured.out)["message"] == message
    assert captured.err == "" and not recwarn.list
    assert not any(tmp_path.iterdir())


def test_phase_takes_a_huge_ratio_in_a_given_box(capsys, tmp_path):
    code, doc = run_json(capsys, ["phase", "-a", "1e8", "-b", "1e-300", "--x-max", "5",
                                  "-o", str(tmp_path)])
    assert code == EXIT_OK
    assert doc["critical_points"][-1]["x"] == 1e8 / 1e-300


PHASE = ["phase", "-a", "3", "-b", "1"]
CLASSIFY = ["classify", "-a", "3", "-b", "1", "--x0", "1"]
CHECK = ["check", "-a", "3", "-b", "1", "--x0", "1"]
INTEGRATE = ["integrate", "-a", "-2", "-b", "1", "--x0", "0.5", "--theta0", "pi/2"]
MESH = ["mesh", "-a", "-2", "-b", "1", "--x0", "4", "--theta0", "pi/2"]


@pytest.mark.parametrize("command,flag", [
    pytest.param(PHASE, "--rel-tol", id="--rel-tol"),
    pytest.param(PHASE, "--abs-tol", id="--abs-tol"),
    pytest.param(PHASE, "--max-arclength", id="--max-arclength"),
    # classify runs nothing, so it takes no run tolerance or budget
    pytest.param(CLASSIFY, "--abs-tol", id="classify---abs-tol"),
    pytest.param(CLASSIFY, "--max-arclength", id="classify---max-arclength"),
    # mesh runs its class's periods, or to the end of its run, so it takes
    # no run tolerance or budget either
    pytest.param(MESH, "--abs-tol", id="mesh---abs-tol"),
    pytest.param(MESH, "--max-arclength", id="mesh---max-arclength"),
    # a run's atol is a hundredth of its rel_tol, and check sizes its run
    # from the level set
    pytest.param(INTEGRATE, "--abs-tol", id="integrate---abs-tol"),
    pytest.param(CHECK, "--abs-tol", id="check---abs-tol"),
    pytest.param(CHECK, "--max-arclength", id="check---max-arclength"),
    # check's energy is exponent_map's, and the separatrix bracket comes
    # from the saddle's level
    pytest.param(CHECK, "--p-override", id="check---p-override"),
    pytest.param(CHECK, "--nu-override", id="check---nu-override"),
    pytest.param(PHASE, "--bracket", id="--bracket"),
])
def test_phase_rejects_integration_flags(capsys, tmp_path, command, flag):
    code, captured = run(capsys, [*command, flag, "1e-4", "-o", str(tmp_path)])
    assert code == EXIT_INVALID
    assert captured.err == ""
    assert json.loads(captured.out) == {"error": "InvalidParameter",
                                        "message": f"unrecognized arguments: {flag} 1e-4"}


def test_classify_rejects_a_zero_rel_tol(capsys):
    code, doc = run_json(capsys, [*CLASSIFY, "--rel-tol", "0"])
    assert code == EXIT_INVALID
    assert doc == {"error": "InvalidParameter", "message": "rel_tol must be > 0"}


@pytest.mark.parametrize("flags", [
    ["-a", "3", "-b", "1", "--x0", "1", "--theta0", "0"],
    ["-a=-2", "-b", "0", "--x0", "1", "--theta0", "pi/2"],
    # b = 0 with sin(theta) passing near 0, where the relative drift of
    # sin(theta)^2 x^(-2a) reaches 2.3e-6; sin(theta) - f_H(x) stays small.
    ["-a=-2.7306265397312766", "-b", "0", "--x0", "1.2679057680477201",
     "--theta0", "5.405360098830371"],
])
def test_check_follows_the_first_integral(capsys, flags):
    code, doc = run_json(capsys, ["check", *flags])
    assert code == EXIT_OK and doc["pass"] is True
    first_integral = doc["checks"]["first_integral"]
    assert set(first_integral) == {"max_residual", "pass"}
    assert first_integral["pass"] is True and first_integral["max_residual"] < 1e-6


def test_check_reports_run_drift_from_the_first_integral(capsys):
    # A b != 0 run that drifts off its level by 6e-6 at the default rel_tol;
    # at rel_tol 1e-12 it stays within 1e-7.
    flags = ["check", "-a=-2.888327587966785", "-b=-1.1075061834383728",
             "--x0", "0.06801736210820271", "--theta0", "1.6822075535049197"]
    code, doc = run_json(capsys, flags)
    assert code == EXIT_FAILURE and doc["pass"] is False
    assert doc["checks"]["first_integral"]["pass"] is False
    code, doc = run_json(capsys, flags + ["--rel-tol", "1e-12"])
    assert code == EXIT_OK and doc["checks"]["first_integral"]["pass"] is True
    assert doc["checks"]["first_integral"]["max_residual"] < 1e-7


@pytest.mark.parametrize("flags,failing,error", [
    # The exact (3, 1) separatrix: detect_period's translation residual is 11.
    (["-a", "3", "-b", "1", "--x0", "5.196152422706632", "--theta0", "0"],
     "periodicity", "VerificationFailed"),
])
def test_check_reports_every_entry_when_one_raises(capsys, flags, failing, error):
    code, doc = run_json(capsys, ["check", *flags])
    assert code == EXIT_FAILURE and doc["pass"] is False
    entry = doc["checks"][failing]
    assert entry["pass"] is False and entry["error"] == error and entry["message"]
    assert doc["checks"]["first_integral"]["max_residual"] < 1e-6


def test_check_accepts_a_steep_vertical_tangent(capsys):
    # At rel_tol 1e-12 the inner vertical tangents lie at x = 1.69e-6, where
    # |theta'| = 1.05e5, so a located event has |cos theta| up to 1.363e-8:
    # within |theta'| times brentq's location tolerance, though beyond a
    # fixed 1e-8.
    flags = ["-a=-0.17825297174398624", "-b", "0.6365410278767536", "--x0",
             "0.32088661230122567", "--theta0", "2.849508887535608", "--rel-tol", "1e-12"]
    code, doc = run_json(capsys, ["check", *flags])
    assert code == EXIT_OK and doc["pass"] is True
    assert doc["checks"]["horizontal_symmetry"]["max_residual"] < 1e-8


@pytest.mark.parametrize("flags,entries", [
    # rest points of a = 1, exact vertical lines with a constant theta'
    (["-a", "1", "-b", "1", "--x0", "1", "--theta0", "3pi/2"], ["first_integral"]),
    (["-a", "1", "-b", "2", "--x0", "0.5", "--theta0=-pi/2"], ["first_integral"]),
    # the umbilical round sphere
    (["-a", "1", "-b", "0", "--x0", "1", "--theta0", "pi/4"],
     ["first_integral", "horizontal_symmetry"]),
])
def test_check_passes_at_a_one(capsys, flags, entries):
    # The Euler-Lagrange entry aborted check on the rest points (NotApplicable
    # on a constant theta') and failed the sphere (Unsupported: no energy at
    # b = 0); check now tests only the run.
    code, doc = run_json(capsys, ["check", *flags])
    assert code == EXIT_OK and doc["pass"] is True
    assert sorted(doc["checks"]) == entries
    assert all(entry["max_residual"] < 1e-9 for entry in doc["checks"].values())


def test_saddle_level_below_the_float_range_is_inconclusive(capsys):
    # x0/x_r = 5e-324/1e300 underflows to 0 on the saddle's level, where
    # f_H's log of it raised a bare ValueError.
    code, captured = run(capsys, ["classify", "-a", "3", "-b", "3e-300", "--x0", "5e-324",
                                  "--theta0", "0"])
    assert code == EXIT_INCONCLUSIVE and captured.err == ""
    doc = json.loads(captured.out)
    assert doc["error"] == "Inconclusive" and doc["diagnostics"]["reason"]


def test_one_parser_serves_many_calls(capsys, tmp_path, monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    code, _ = run(capsys, ["--bogus"])
    assert code == EXIT_INVALID
    first, second = run(capsys, NODOID), run(capsys, NODOID)
    assert first[0] == second[0] == EXIT_OK
    assert first[1].out == second[1].out
    # A check at --rel-tol 1e-12, then a mesh without it: the mesh must run
    # at its own default, not the check's value.
    controls, integrate = [], cli.integrate

    def spy(params, ic, c):
        controls.append(c)
        return integrate(params, ic, c)
    monkeypatch.setattr(cli, "integrate", spy)
    code, _ = run(capsys, ["check", "-a", "3", "-b", "1", "--x0", "1", "--rel-tol", "1e-12"])
    assert code == EXIT_OK
    code, doc = run_json(capsys, ["mesh", "-a", "3", "-b", "1", "--x0", "1", "--theta0", "0",
                                  "-o", str(tmp_path)])
    assert code == EXIT_OK and doc["class"] == "Vesicle"
    assert (doc["n_profile"], doc["n_revolve"]) == (96, 48)
    assert [c.rel_tol for c in controls] == [1e-12, cli.REL_TOL]
    assert controls == [cli.default_controls(Params(3, 1), InitialConditions(1.0, 0.0), 1e-12),
                        cli.IntegrationControls()]


@pytest.mark.parametrize("argv", [
    ["classify", "-a", "1e19", "-b", "1", "--x0", "1", "--theta0", "0"],
    ["phase", "-a", "1e300", "-b", "1"],
])
def test_a_step_that_rounds_to_one_is_inconclusive(tmp_path, argv):
    # Above |a| ~ 2.4e18 the outward step of a turning-radius search rounds
    # to 1.  The command runs in its own process, so that a search that
    # never ends fails this test by its timeout instead of hanging the suite.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-m", "wlw.cli", *argv, "-o", str(tmp_path)],
                          capture_output=True, text=True, timeout=60, env=env)
    assert done.returncode == EXIT_INCONCLUSIVE, done.stderr
    assert json.loads(done.stdout)["error"] == "Inconclusive"


@pytest.mark.parametrize("argv,name", [(NODOID, "report.json"), (CHECK, "check.json")])
def test_classify_and_check_write_their_document_only_with_out(capsys, tmp_path, monkeypatch,
                                                               argv, name):
    # Without -o nothing is written, not even into the working directory;
    # with -o, an explicit "." included, the file holds the printed bytes.
    monkeypatch.chdir(tmp_path)
    code, captured = run(capsys, argv)
    assert code == EXIT_OK and not any(tmp_path.iterdir())
    for out in (tmp_path / "out", Path(".")):
        code, again = run(capsys, [*argv, "-o", str(out)])
        assert code == EXIT_OK and again.out == captured.out
        assert (out / name).read_text() == captured.out


@pytest.mark.parametrize("a,b,x0,theta0,code", [
    ("-2", "1", "4", "pi/2", EXIT_OK),
    ("-5e-4", "1e-3", "1", "5.7607", EXIT_INCONCLUSIVE),
    ("0", "1", "1", "pi/2", EXIT_INVALID),
], ids=["Nodoid", "Inconclusive", "InvalidParameter"])
def test_a_one_cell_sweep_writes_what_classify_prints(capsys, tmp_path, a, b, x0, theta0, code):
    # One document per outcome: a sweep cell's report, or its error
    # document, is the document classify prints, byte for byte.
    got, captured = run(capsys, ["classify", f"-a={a}", "-b", b, "--x0", x0, "--theta0", theta0,
                                 "-o", str(tmp_path / "classify")])
    assert got == code and captured.err == ""
    assert run(capsys, ["sweep", f"-a={a}", "-b", b, "--x0", x0, "--theta0-list", theta0,
                        "-o", str(tmp_path / "sweep")])[0] == EXIT_OK
    cell = (tmp_path / "sweep" / "report_a0_b0_x0_t0.json").read_text()
    assert cell == captured.out
    report = tmp_path / "classify" / "report.json"
    assert report.read_text() == cell if code == EXIT_OK else not report.exists()
