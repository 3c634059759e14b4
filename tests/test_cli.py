import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wlw.integrate
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


def test_integrate_writes_the_samples_and_events_it_counts(capsys, tmp_path, monkeypatch):
    # A Nodoid over 40 of arclength each way: 1,167 samples and 43 events,
    # 10 of them self-crossings, each listed once at its earlier arclength.
    runs, integrate = [], cli.integrate

    def spy(*args):
        runs.append(integrate(*args))
        return runs[-1]
    monkeypatch.setattr(cli, "integrate", spy)
    code, doc = run_json(capsys, ["integrate", "-a", "-2", "-b", "1", "--x0", "4", "--theta0",
                                  "pi/2", "--max-arclength", "40", "-o", str(tmp_path)])
    assert code == EXIT_OK and len(runs) == 1
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()
    events = json.loads((tmp_path / "events.json").read_text())["events"]
    assert (doc["samples"], doc["events"]) == (len(rows) - 1, len(events))
    assert [e["s"] for e in events] == sorted(e["s"] for e in events)
    crossings = [e for e in events if e["kind"] == "SelfIntersection"]
    assert crossings
    for e in crossings:
        assert e["s"] < e["s_partner"]
        x, z, _ = runs[0].eval(e["s_partner"])
        assert (x, z) == pytest.approx((e["state"]["x"], e["state"]["z"]), rel=0, abs=1e-9 * 4)


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


def vesicle_vertices(capsys, out, lam):
    code, doc = run_json(capsys, ["mesh", "-a", "3", "-b", repr(1 / lam), "--x0", str(lam),
                                  "--theta0", "0", "-o", str(out)])
    assert code == EXIT_OK and doc["class"] == "Vesicle"
    lines = (out / "surface.obj").read_text().splitlines()
    return np.array([line.split()[1:] for line in lines if line.startswith("v ")], dtype=float)


@pytest.mark.parametrize("lam", [1, 100, 1000])
def test_mesh_runs_a_rescaled_vesicle_to_both_poles(capsys, tmp_path, lam):
    # rescale(lam) maps (3, 1, 1) to (3, 1/lam, lam), the same Vesicle lam
    # times larger.  A run of 200 each way stopped short of its poles, and
    # mesh refused it; its run now grows with the surface.
    v = vesicle_vertices(capsys, tmp_path / "scaled", lam)
    assert len(v) == 4608
    one = vesicle_vertices(capsys, tmp_path / "one", 1)
    assert np.abs(v / lam - one).max() <= 1e-7 * np.abs(one).max()


@pytest.mark.parametrize("flags,tag,ends", [
    # The a < 0 sphere: its run leaves the sphere and ends at the budget both
    # ways, 600 = 200 x0, with z reaching +-381.
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


def test_sweep_writes_a_report_and_a_row_per_cell(tmp_path):
    # Several classes and an a = 0 cell, which is Error:InvalidParameter.
    spec = cli.SweepSpec([-2.0, 0.0, 3.0], [1.0], [0.5, 4.0], [math.pi / 2, 0.0],
                         output_dir=tmp_path)
    cli.run_sweep(spec)
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(files) == 13
    rows = [row.split(",") for row in files["summary.csv"].decode().splitlines()[1:]]
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
    assert json.loads(captured.out) == {"error": "InvalidParameter", "message": message}
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
    # whole argvs, flag and value included, and no -o
    pytest.param([*CLASSIFY, "--abs-tol", "1e-12"], "--abs-tol", id="classify-argv"),
    pytest.param(["integrate", "-a", "-2", "-b", "1", "--x0", "0.5", "--abs-tol", "1e-12"],
                 "--abs-tol", id="integrate-argv"),
    pytest.param([*CHECK, "--max-arclength", "5"], "--max-arclength", id="check-argv"),
])
def test_phase_rejects_integration_flags(capsys, tmp_path, command, flag):
    argv = command if flag in command else [*command, flag, "1e-4", "-o", str(tmp_path)]
    code, captured = run(capsys, argv)
    assert code == EXIT_INVALID
    assert captured.err == ""
    value = argv[argv.index(flag) + 1]
    assert json.loads(captured.out) == {"error": "InvalidParameter",
                                        "message": f"unrecognized arguments: {flag} {value}"}


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
                        cli.IntegrationControls(max_arclength=600.0)]


@pytest.mark.parametrize("argv,code", [
    (["classify", "-a", "1e19", "-b", "1", "--x0", "1", "--theta0", "0"], EXIT_INCONCLUSIVE),
    (["phase", "-a", "1e300", "-b", "1"], EXIT_INCONCLUSIVE),
    (["classify", "-a=-1e9", "-b", "1", "--x0", "1", "--theta0", "0"], EXIT_INCONCLUSIVE),
    (["phase", "-a=-1e15", "-b", "1"], EXIT_OK),
], ids=["huge-a-classify", "huge-a-phase", "decaying-power-classify", "decaying-power-phase"])
def test_a_step_that_rounds_to_one_is_inconclusive(tmp_path, argv, code):
    # Above |a| ~ 2.4e18 the outward step of a turning-radius search rounds
    # to 1.  For a < 0 the search stepped by 2^(512/|a|), where the power
    # decays, and did not end.  The command runs in its own process, so that
    # a search that never ends fails this test by its timeout instead of
    # hanging the suite.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1])] + env.get("PYTHONPATH", "").split(os.pathsep))
    done = subprocess.run([sys.executable, "-m", "wlw.cli", *argv, "-o", str(tmp_path)],
                          capture_output=True, text=True, timeout=20, env=env)
    assert (done.returncode, done.stderr) == (code, "")
    if code == EXIT_INCONCLUSIVE:
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


def no_run(*args):
    raise AssertionError("the stepper ran")


def invalid(message):
    return {"error": "InvalidParameter", "message": message}


# The CLI gates: an argv, its exit code and an assertion on the document it
# prints.  Each row runs with the stepper patched to raise: classify and phase
# read every orbit off the first integral's level set.  A refused input is
# refused before any run, classification or portrait: its rows run with
# classify_surface and phase_portrait patched to raise too.  The ids name
# the gates.
GATES = [
    # The centre's portrait: every orbit is drawn off the level through its
    # seed.
    pytest.param(["phase", "-a=-2", "-b", "1"], EXIT_OK,
                 lambda doc: "critical_points" in doc, id="phase-plots-without-integrating"),
    # sqrt(27) lies on the level of the (3, 1) saddle, so its orbit is the
    # CylindricalAntinodoid; a = -2 < -1 at b = 0 is the CatenoidBounded.
    pytest.param(["classify", "-a", "3", "-b", "1", "--x0", "5.196152422706632", "--theta0", "0"],
                 EXIT_OK, lambda doc: doc["class"] == "CylindricalAntinodoid",
                 id="separatrix-without-integrating"),
    pytest.param(["classify", "-a", "-2", "-b", "0", "--x0", "1", "--theta0", "pi/2"], EXIT_OK,
                 lambda doc: doc["class"] == "CatenoidBounded", id="b-zero-without-integrating"),
    # A closed form's gate takes a state only to rounding: the rescale of
    # (-2, 1, 2.0002, pi/2) is not the Cylinder, 3e-9 at theta0 = 0 is not on
    # the a < 0 sphere, and sin(pi) is 0 to rounding, so that is the Plane.
    pytest.param(["classify", "-a=-2", "-b", "1e-9", "--x0", "2000200000", "--theta0", "pi/2"],
                 EXIT_OK, lambda doc: doc["class"] == "Unduloid",
                 id="closed-form-gates-rescaled-unduloid"),
    pytest.param(["classify", "-a=-2", "-b", "1", "--x0", "3e-9", "--theta0", "0"], EXIT_OK,
                 lambda doc: doc["class"] != "Sphere", id="closed-form-gates-off-the-sphere"),
    pytest.param(["classify", "-a", "2", "-b", "0", "--x0", "1", "--theta0", "pi"], EXIT_OK,
                 lambda doc: doc["class"] == "Plane", id="closed-form-gates-plane"),
    # The first integral is anchored at the initial state, so it keeps its
    # digits as a -> 1.
    pytest.param(["classify", "-a", "1.0000000001", "-b", "1", "--x0", "3", "--theta0", "4"],
                 EXIT_OK, lambda doc: doc["class"] == "Antinodoid", id="near-a-one"),
    # sqrt(27) (1 +- 1e-8), next to the (3, 1) separatrix: beyond it the
    # orbit winds, and inside it the orbit passes the saddle and returns to
    # the axis.  The extreme level is a Nodoid read off its end anchors.
    pytest.param(["classify", "-a", "3", "-b", "1", "--x0", "5.196152474668156", "--theta0", "0"],
                 EXIT_OK, lambda doc: doc["class"] == "Antinodoid",
                 id="neighbourhoods-antinodoid"),
    pytest.param(["classify", "-a", "3", "-b", "1", "--x0", "5.196152370745107", "--theta0", "0"],
                 EXIT_OK, lambda doc: doc["class"] == "ImmersedSpheroid",
                 id="neighbourhoods-immersed-spheroid"),
    pytest.param(["classify", "-a=-218.89030969559963", "-b", "15.444113812318664",
                  "--x0", "10.677482104432686", "--theta0", "0.40232139186544674"], EXIT_OK,
                 lambda doc: doc["class"] == "Nodoid", id="neighbourhoods-nodoid"),
    # The zero of f_H of this near-1 draw and of its a = 1 neighbour lies
    # near 6e-176, 176 decades below its bracket; that of the Vesicle lies
    # near 1e-346, below the float range, so its crossings come from its tag.
    pytest.param(["classify", "-a", "0.9999992731880258", "-b", "0.0014858953275460607",
                  "--x0", "1.5447316940218563", "--theta0", "1.9556505834239677"], EXIT_OK,
                 lambda doc: "class" in doc, id="extreme-level-sets-near-one"),
    pytest.param(["classify", "-a", "1.0", "-b", "0.0014858953275460607",
                  "--x0", "1.5447316940218563", "--theta0", "1.9556505834239677"], EXIT_OK,
                 lambda doc: "class" in doc, id="extreme-level-sets-a-one"),
    pytest.param(["classify", "-a", "0.9912770475292776", "-b", "1.353342387675414",
                  "--x0", "0.0064519337476683985", "--theta0", "pi/2"], EXIT_OK,
                 lambda doc: (doc["class"], doc["self_intersections"]) == ("Vesicle", 0),
                 id="extreme-level-sets-vesicle"),
    # pi/0 raised a bare ZeroDivisionError.  A flag's error names the flag
    # and keeps its reason: that of --theta0 read "invalid parse_angle value",
    # and those of sweep named no flag.
    pytest.param(["classify", "-a", "3", "-b", "1", "--x0", "1", "--theta0", "pi/0"],
                 EXIT_INVALID, lambda doc: doc == invalid("argument --theta0: angle 'pi/0' "
                                                          "divides by zero"),
                 id="angle-over-zero-classify"),
    pytest.param(["phase", "-a", "3", "-b", "1", "--separatrix", "--theta0", "pi/0"],
                 EXIT_INVALID, lambda doc: doc == invalid("argument --theta0: angle 'pi/0' "
                                                          "divides by zero"),
                 id="angle-over-zero-phase"),
    pytest.param(["sweep", "-a", "3", "-b", "1", "--x0", "1", "--theta0-list", "pi/0"],
                 EXIT_INVALID, lambda doc: doc == invalid("argument --theta0-list: angle 'pi/0' "
                                                          "divides by zero"),
                 id="angle-over-zero-sweep"),
    pytest.param(["classify", "-a", "3", "-b", "1", "--x0", "1", "--theta0", "abc"],
                 EXIT_INVALID, lambda doc: doc == invalid("argument --theta0: cannot parse "
                                                          "angle 'abc'"),
                 id="unparsable-angle-classify"),
    pytest.param(["sweep", "-a", "abc", "-b", "1", "--x0", "1"],
                 EXIT_INVALID, lambda doc: doc == invalid("argument -a: cannot parse range 'abc'"),
                 id="unparsable-range-sweep"),
    # --periods 0 meshed one ring 96 times and exited 0; --periods -1 blamed
    # max_arclength, a flag mesh does not take.
    pytest.param([*MESH, "--periods", "0"], EXIT_INVALID,
                 lambda doc: doc["error"] == "InvalidParameter" and "--periods" in doc["message"],
                 id="mesh-periods-zero"),
    pytest.param([*MESH, "--periods", "-1"], EXIT_INVALID,
                 lambda doc: doc["error"] == "InvalidParameter" and "--periods" in doc["message"],
                 id="mesh-periods-negative"),
    # A bad --n-profile was refused only after the classification, which on
    # this input ends Inconclusive (exit 3).
    pytest.param(["mesh", "-a=-5e-4", "-b", "1e-3", "--x0", "1", "--theta0", "5.7607",
                  "--n-profile", "3"], EXIT_INVALID,
                 lambda doc: doc == invalid("--n-profile must be at least 16"),
                 id="mesh-n-profile-before-classify"),
    pytest.param(["mesh", "-a=-5e-4", "-b", "1e-3", "--x0", "1", "--theta0", "5.7607",
                  "--n-revolve", "4"], EXIT_INVALID,
                 lambda doc: doc == invalid("--n-revolve must be at least 8"),
                 id="mesh-n-revolve-before-classify"),
    # phase --separatrix outside a > 0, b > 0 drew the whole portrait before
    # its refusal, and where floats could not resolve a level of the
    # portrait it exited 3 and never refused.
    *[pytest.param(["phase", a, b, "--separatrix"], EXIT_INVALID,
                   lambda doc: doc == invalid("the separatrix requires a > 0 and b > 0"),
                   id=name)
      for a, b, name in [("-a=-2", "-b=1", "phase-separatrix-before-portrait"),
                         ("-a=-1e300", "-b=1", "phase-separatrix-before-unresolved-level-a"),
                         ("-a=1e300", "-b=-1", "phase-separatrix-before-unresolved-level-b")]],
    # --rel-tol inf made the first step's z weight NaN, so the step retries
    # of integrate, check and mesh never ended; classify exited 0.
    *[pytest.param([*argv, "--rel-tol", value], EXIT_INVALID,
                   lambda doc, value=value: doc == invalid(f"argument --rel-tol: must be "
                                                           f"finite, got {value!r}"),
                   id=f"rel-tol-{value}-{argv[0]}")
      for argv in (INTEGRATE, CHECK, MESH, CLASSIFY) for value in ("inf", "nan")],
]


@pytest.mark.parametrize("argv,code,check", GATES)
def test_cli_gate(capsys, tmp_path, monkeypatch, argv, code, check):
    monkeypatch.setattr(wlw.integrate, "_run_direction", no_run)
    if code == EXIT_INVALID:
        monkeypatch.setattr(cli, "classify_surface", no_run)
        monkeypatch.setattr(cli, "phase_portrait", no_run)
    got, captured = run(capsys, [*argv, "-o", str(tmp_path)])
    assert (got, captured.err) == (code, "")
    assert check(json.loads(captured.out))


def test_mesh_refuses_periods_its_run_does_not_reach(capsys, tmp_path, monkeypatch):
    # A run cut short of the window raised eval's "s outside integrated span".
    monkeypatch.setattr(wlw.integrate, "MAX_STEPS", 500)
    code, doc = run_json(capsys, [*MESH, "--periods", "50", "-o", str(tmp_path)])
    assert (code, doc["error"]) == (EXIT_INVALID, "InvalidParameter")
    assert doc["message"].startswith("--periods 50 needs s up to ")
    assert "the run ends MaxSteps at s = " in doc["message"]
    assert not (tmp_path / "surface.obj").exists()


def test_a_critical_radius_next_to_the_axis_prints_a_class_or_inconclusive(capsys):
    # x_c is 6e-17 of x_hi, where the quadrature's anchors rounded below the
    # axis and raised a bare ValueError.
    code, captured = run(capsys, ["classify", "-a", "0.9999999308681532",
                                  "-b", "0.10914905680954545", "--x0", "0.1914197696557015",
                                  "--theta0", "2.2866004944678098"])
    doc = json.loads(captured.out)
    assert captured.err == ""
    assert ((code, "class" in doc) == (EXIT_OK, True)
            or (code, doc.get("error")) == (EXIT_INCONCLUSIVE, "Inconclusive"))


def test_mesh_keeps_the_ring_symmetries_to_the_bit(capsys, tmp_path):
    # The revolve angles' cos and sin keep the 128-gon's symmetries: in every
    # ring of vertices and of normals, the vertex at phi = pi/2 has x = 0.0,
    # and vertices j and 128 - j print the same x and z and opposite y.
    n = 128
    code, _ = run_json(capsys, [*MESH, "--n-revolve", str(n), "-o", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "surface.obj").read_text().splitlines()
    for kind in ("v ", "vn "):
        rings = np.array([line.split()[1:] for line in lines if line.startswith(kind)],
                         dtype=float).reshape(-1, n, 3)
        assert len(rings) and np.all(rings[:, n // 4, 0] == 0.0)
        assert np.array_equal(rings[:, -np.arange(n) % n] * [1.0, -1.0, 1.0], rings)


@pytest.mark.parametrize("n_profile", [400, 801])
def test_mesh_face_references_past_five_digits(capsys, tmp_path, n_profile):
    # The face lines are gathered from a table of "k//k" references.  At 400 x
    # 128 the mesh has 51,200 vertices, and at 801 x 128 102,528, so its
    # references reach six digits.  Each line is the one a per-face loop prints.
    n_rev = 128
    code, _ = run_json(capsys, [*MESH, "--periods", "2", "--n-profile", str(n_profile),
                                "--n-revolve", str(n_rev), "-o", str(tmp_path)])
    assert code == EXIT_OK
    lines = (tmp_path / "surface.obj").read_bytes().splitlines(keepends=True)
    assert (sum(line.startswith(b"v ") for line in lines)
            == sum(line.startswith(b"vn ") for line in lines) == n_profile * n_rev)
    loop = []
    for i in range(n_profile - 1):
        for j in range(n_rev):
            a, b = i * n_rev + j + 1, (i + 1) * n_rev + j + 1
            c, d = (i + 1) * n_rev + (j + 1) % n_rev + 1, i * n_rev + (j + 1) % n_rev + 1
            loop.append(f"f {a}//{a} {c}//{c} {b}//{b}\n".encode())
            loop.append(f"f {a}//{a} {d}//{d} {c}//{c}\n".encode())
    assert [line for line in lines if line.startswith(b"f ")] == loop
