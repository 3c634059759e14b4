"""The package runs on numpy alone: no command imports scipy.  The modules
that work on levels, states and floats import no run, and the package binds
each module by its own name.  Every function of the package is called by a
command or allowed by name, and every perfbench trace target exists."""

import ast
import inspect
import json
import subprocess
import sys
import types
from pathlib import Path

from test_cli import GATES

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
    ["phase", "-a=-2", "-b", "1", "-o", out + "/phase-centre"],
    ["phase", "-a", "2", "-b", "0", "-o", out + "/phase-lines"],
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


# The reachability gate's corpus, besides test_cli.GATES.  The artifacts
# workload's commands at seeds 0 and 1 (perfbench/workloads.py), written out.
ARTIFACTS = [
    [["integrate", "-a", "-2", "-b", "1", "--x0", x_int, "--theta0", "pi/2",
      "--max-arclength", "120", "--svg"],
     ["mesh", "-a", "-2", "-b", "1", "--x0", x_mesh, "--theta0", "pi/2", "--periods", "2",
      "--n-profile", "400", "--n-revolve", "128"],
     ["check", "-a", "3", "-b", "1", "--x0", x_check, "--theta0", "0"],
     ["check", "-a", "-2", "-b", "0", "--x0", x_catenoid, "--theta0", "pi/2"],
     ["phase", "-a", "3", "-b", "1", "--separatrix"]]
    for x_int, x_mesh, x_check, x_catenoid in [
        ("0.5", "4.0", "1.0", "1.0"),
        ("0.48171821220562006", "4.138973494774893", "1.0263774618976613", "0.9755069025739421"),
    ]
]
# (a, b, x0, theta0) of one input per SurfaceTag, in the enum's order, and the
# b < 0 Nodoid: the classify workload's inputs.
TAG_INPUTS = [
    ("2", "0", "1", "0"),                                   # Plane
    ("1", "0", "1", "pi/4"),                                # Sphere
    ("-2", "1", "2", "pi/2"),                               # Cylinder
    ("3", "1", "1", "3pi/2"),                               # Ovaloid
    ("-1", "0", "1", "pi/2"),                               # CatenoidEntire
    ("-2", "0", "1", "pi/2"),                               # CatenoidBounded
    ("3", "1", "1", "0"),                                   # Vesicle
    ("3", "1", "2.0080658942461014", "0"),                  # PinchedSpheroid
    ("3", "1", "3", "0"),                                   # ImmersedSpheroid
    ("3", "1", "5.196152422706631", "0"),                   # CylindricalAntinodoid
    ("3", "1", "6", "0"),                                   # Antinodoid
    ("-2", "1", "0.5", "pi/2"),                             # Unduloid
    ("-2", "1", "4", "pi/2"),                               # Nodoid
    ("-2", "-1", "4", "3pi/2"),                             # Nodoid, b < 0
]
TAG_COMMANDS = [["classify"], ["check"], ["mesh"], ["integrate", "--svg"]]
SWEEP = ["sweep", "-a=-2:3:3", "-b", "0.5:1:2", "--x0", "0.5:4:2", "--theta0-list", "pi/2,0"]
BAD_FLAG = ["classify", "--no-such-flag"]

# Functions of wlw that no command calls, each with why it stays in the
# package: a module's name allows the whole module.
UNREACHED = {
    "model.rescale": "the homothety, a property test of the north star; five test files use it",
    "variational": "ROADMAP item 9 decides its fate, and perfbench traces two of its functions "
                   "(test_every_perfbench_trace_target_resolves)",
}

# Runs each argv of the JSON list on stdin through wlw.cli.main under
# sys.setprofile and prints the (module, first line, name) of every code
# object of wlw that was called.
PROFILE_SCRIPT = """
import contextlib, io, json, os, sys
sys.path.insert(0, sys.argv[1])
import wlw.cli
root = os.path.dirname(wlw.cli.__file__) + os.sep
assert wlw.cli.__file__ == os.path.join(sys.argv[1], "wlw", "cli.py"), wlw.cli.__file__
called = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(root):
        called.add((os.path.basename(code.co_filename)[:-3], code.co_firstlineno, code.co_name))

argvs = json.load(sys.stdin)
sys.setprofile(profile)
for argv in argvs:
    with contextlib.redirect_stdout(io.StringIO()):
        wlw.cli.main(argv)
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _functions(module):
    """{(module, first line, name): qualified name} of every function of a
    source file of wlw, nested ones included, from its code objects: a
    decorated function's first line is its decorator's, as in a frame.
    Lambdas and comprehensions are left out, and a class body only names
    its methods."""
    path = SRC / "wlw" / f"{module}.py"
    out = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            name = prefix + const.co_name
            if const.co_flags & inspect.CO_OPTIMIZED:   # a function, not a class body
                out[(module, const.co_firstlineno, const.co_name)] = f"{module}.{name}"
                walk(const, name + ".<locals>.")
            else:
                walk(const, name + ".")

    walk(compile(path.read_text(), str(path), "exec"), "")
    return out


def _raised_or_caught(tree):
    """The names that a module raises or catches."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            out.add(getattr(exc, "id", None))
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            out.update(getattr(k, "id", None) for k in kinds)
    return out


def test_every_function_is_reached_by_a_command_or_allowed(tmp_path):
    argvs = [list(p.values[0]) for p in GATES]
    argvs += [cmd for seed in ARTIFACTS for cmd in seed]
    argvs += [[*cmd[:1], "-a", a, "-b", b, "--x0", x0, "--theta0", t0, *cmd[1:]]
              for a, b, x0, t0 in TAG_INPUTS for cmd in TAG_COMMANDS]
    argvs += [SWEEP, BAD_FLAG]
    argvs = [[*argv, "-o", str(tmp_path / str(i))] for i, argv in enumerate(argvs)]
    proc = subprocess.run([sys.executable, "-c", PROFILE_SCRIPT, str(SRC)],
                          input=json.dumps(argvs), capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    called = {tuple(key) for key in json.loads(proc.stdout)}

    modules = sorted(p.stem for p in (SRC / "wlw").glob("*.py"))
    functions = {k: v for m in modules for k, v in _functions(m).items()}
    unreached = {name for key, name in functions.items() if key not in called}

    def allowed(name):
        return name in UNREACHED or name.split(".")[0] in UNREACHED

    stray = sorted(n for n in unreached if not allowed(n))
    assert not stray, "no command calls " + ", ".join(stray)
    # An entry must name functions that exist and that no command calls.
    for entry in UNREACHED:
        named = {n for n in functions.values() if n == entry or n.split(".")[0] == entry}
        assert named and named <= unreached, (entry, sorted(named - unreached))

    errors = ast.parse((SRC / "wlw" / "errors.py").read_text())
    used = set().union(*(_raised_or_caught(ast.parse((SRC / "wlw" / f"{m}.py").read_text()))
                         for m in modules if m != "errors"))
    defined = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    assert sorted(defined - used) == []


# Resolves every function perfbench's tracer wraps, without writing bytecode
# under perfbench/.
TARGETS_SCRIPT = """
import functools, importlib, sys
sys.path[:0] = sys.argv[1:3]
import layers
missing = []
for t in layers.targets():
    try:
        functools.reduce(getattr, t.attr.split("."), importlib.import_module(t.module))
    except (ImportError, AttributeError) as exc:
        missing.append(f"{t.module}.{t.attr}: {exc}")
print(len(layers.targets()))
if missing:
    sys.exit("\\n".join(missing))
"""


def test_every_perfbench_trace_target_resolves():
    perfbench = SRC.parent / "perfbench"
    proc = subprocess.run([sys.executable, "-B", "-c", TARGETS_SCRIPT, str(SRC), str(perfbench)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout) > 0
