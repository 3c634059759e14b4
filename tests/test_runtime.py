"""The package runs on numpy alone: no command imports scipy.  The modules
that work on levels, states and floats import no run, and the package binds
each module by its own name."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Blocks scipy, runs each command through wlw.cli.main and reports any
# scipy module that got loaded.
SCRIPT = """
import sys
sys.modules["scipy"] = None
sys.path.insert(0, sys.argv[1])
out = sys.argv[2]
import wlw.cli

commands = [
    ["classify", "-a", "-2", "-b", "1", "--x0", "4", "--theta0", "pi/2"],
    ["classify", "-a", "-2", "-b", "0", "--x0", "1", "--theta0", "pi/2"],
    ["sweep", "-a=-2:3:3", "-b", "1", "--x0", "0.5:4:2", "--theta0-list", "pi/2,0",
     "-o", out + "/sweep"],
    ["integrate", "-a", "-2", "-b", "1", "--x0", "0.5", "--theta0", "pi/2",
     "--max-arclength", "40", "--svg", "-o", out + "/integrate"],
    ["mesh", "-a", "-2", "-b", "1", "--x0", "4", "--theta0", "pi/2", "-o", out + "/mesh"],
    ["check", "-a", "3", "-b", "1", "--x0", "1", "--theta0", "0", "-o", out + "/check"],
    ["phase", "-a", "3", "-b", "1", "--separatrix", "-o", out + "/phase"],
]
for cmd in commands:
    code = wlw.cli.main(cmd)
    if code != 0:
        sys.exit(f"{cmd[0]} exited {code}")
loaded = sorted(m for m, v in sys.modules.items() if m.split(".")[0] == "scipy" and v is not None)
if loaded:
    sys.exit(f"scipy modules loaded: {loaded}")
"""


def test_every_command_runs_without_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(SRC), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


def _imports(module):
    """The modules a source file of wlw imports, relative ones with their dots."""
    tree = ast.parse((SRC / "wlw" / module).read_text())
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            out.add(base)
            if node.module is None:
                out.update(base + alias.name for alias in node.names)
    return out


def test_run_free_modules_import_no_integrate():
    # classify reads every class off the level set or a closed form,
    # levelset and phaseplane work on levels of the first integral,
    # variational evaluates states (x, theta) and theta'(s) profiles, and
    # numerics works on floats: none needs integrate, and numerics no numpy.
    for module in ("classify.py", "levelset.py", "phaseplane.py", "variational.py", "numerics.py"):
        assert not _imports(module) & {".integrate", "wlw.integrate"}, module
    assert not {m for m in _imports("numerics.py") if m.split(".")[0] == "numpy"}


def test_the_package_binds_its_modules():
    # import wlw.integrate as m binds the package's attribute, which must be
    # the module and not a function of its name.  And import wlw loads
    # variational, which perfbench's tracer looks up in sys.modules though
    # no workload imports it.
    script = ("import sys; sys.path.insert(0, sys.argv[1]); import wlw; "
              "assert 'wlw.variational' in sys.modules; "
              "import wlw.integrate as m; assert m is sys.modules['wlw.integrate'], m")
    proc = subprocess.run([sys.executable, "-c", script, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
