import json
import math
import os

import pytest

from wlw import cli
from wlw.cli import EXIT_FAILURE, EXIT_INCONCLUSIVE, EXIT_INVALID, EXIT_OK, main


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
    code, doc = run_json(capsys, NODOID + ["--max-arclength", "0.5"])
    assert code == EXIT_OK
    assert (doc["class"], doc["termination"]) == ("Nodoid", None)


def test_mesh_integrates_a_periodic_profile_once(capsys, tmp_path, monkeypatch):
    # Periodic and axis-to-axis classes are read off the level set, so the
    # mesh's own run is the only one.
    calls, integrate = [], cli.integrate

    def spy(*args):
        calls.append(args)
        return integrate(*args)
    monkeypatch.setattr(cli, "integrate", spy)
    monkeypatch.setattr("wlw.classify.integrate", spy)
    for flags, tag in [
        (["-a", "-2", "-b", "1", "--x0", "4", "--theta0", "pi/2", "--periods", "2"], "Nodoid"),
        (["-a", "3", "-b", "1", "--x0", "1", "--theta0", "0"], "Vesicle"),
    ]:
        calls.clear()
        code, doc = run_json(capsys, ["mesh", *flags, "-o", str(tmp_path / tag)])
        assert code == EXIT_OK and doc["class"] == tag
        assert len(calls) == 1


def test_no_bracket_exits_failure(capsys, tmp_path):
    code, doc = run_json(capsys, ["phase", "-a", "3", "-b", "1", "--separatrix",
                                  "--bracket", "0.1:0.2", "-o", str(tmp_path)])
    assert code == EXIT_FAILURE
    assert doc == {"error": "NoBracket", "message": doc["message"]}


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
    assert "--x0" in captured.err


# Next to the separatrix of (3, 1) at theta0 = 0, sqrt(27) (1 - 1e-4), on the
# side of the orbits that reach the axis: it passes the saddle, so it is
# integrated and the budget flags bind it.
NEAR_SEPARATRIX = ["-a", "3", "-b", "1", "--x0", "5.195632807464362", "--theta0", "0"]


def test_tiny_budget_exits_inconclusive(capsys):
    code, doc = run_json(capsys, ["classify", *NEAR_SEPARATRIX, "--max-arclength", "0.5"])
    assert code == EXIT_INCONCLUSIVE
    assert set(doc) == {"error", "message", "diagnostics"}
    assert doc["error"] == "Inconclusive"
    assert doc["diagnostics"]["termination"] == "MaxArclength"


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


def test_mesh_classifies_with_the_given_flags(capsys, tmp_path):
    code, doc = run_json(capsys, ["mesh", *NEAR_SEPARATRIX, "--max-arclength", "0.5",
                                  "-o", str(tmp_path)])
    assert code == EXIT_INCONCLUSIVE
    assert doc["error"] == "Inconclusive"


@pytest.mark.parametrize("flag", ["--rel-tol", "--abs-tol", "--max-arclength"])
def test_phase_rejects_integration_flags(capsys, tmp_path, flag):
    code, captured = run(capsys, ["phase", "-a", "3", "-b", "1", flag, "1e-4",
                                  "-o", str(tmp_path)])
    assert code == EXIT_INVALID
    assert flag in captured.err
