"""Unit tests of the benchmark's tracer, its speed scaling and its metric names.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
import threading
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from probe import REFERENCE_S, Prober  # noqa: E402
from tracer import Span, Target, Tracer, ancestor, self_times  # noqa: E402


def test_self_time_on_synthetic_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8].  A span on
    # another thread over the same interval is a root of its own.
    root = Span("root", 0.0, 10.0, thread=1)
    a = Span("a", 1.0, 4.0, parent=root, thread=1)
    b = Span("b", 5.0, 9.0, parent=root, thread=1)
    c = Span("c", 6.0, 8.0, parent=b, thread=1)
    other = Span("root", 0.0, 10.0, thread=2)
    own = self_times([c, a, b, root, other])
    assert own[id(root)] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[id(a)] == pytest.approx(3.0)
    assert own[id(b)] == pytest.approx(4.0 - 2.0)
    assert own[id(c)] == pytest.approx(2.0)
    assert own[id(other)] == pytest.approx(10.0)
    assert ancestor(c, "root") is root
    assert ancestor(c, "missing") is None


@pytest.fixture
def fake_package():
    """pkg.core defines leaf and outer; pkg.user imported leaf by name."""
    core = types.ModuleType("pkg.core")
    user = types.ModuleType("pkg.user")
    pkg = types.ModuleType("pkg")

    def leaf(x):
        return x + 1

    def outer(x):
        return core.leaf(x) * 2

    class Box:
        def get(self, x):
            return user.leaf(x)

    core.leaf, core.outer, core.Box = leaf, outer, Box
    user.leaf = leaf
    mods = {"pkg": pkg, "pkg.core": core, "pkg.user": user}
    sys.modules.update(mods)
    yield core, user
    for name in mods:
        del sys.modules[name]


def test_wraps_every_binding_and_restores(fake_package):
    core, user = fake_package
    leaf, outer, get = core.leaf, core.outer, core.Box.get
    targets = [Target("pkg.core", "leaf", "leaf", lambda a, k, r: {"arg": a[0]}),
               Target("pkg.core", "outer", "outer"),
               Target("pkg.core", "Box.get", "get")]
    with Tracer(targets, "pkg") as tracer:
        assert core.leaf is not leaf and user.leaf is core.leaf
        assert outer(1) == 4                 # the original outer calls the wrapped leaf
        assert core.outer(1) == 4
        assert core.Box().get(5) == 6
    assert (core.leaf, user.leaf, core.outer, core.Box.get) == (leaf, leaf, outer, get)

    spans = tracer.take()
    assert [sp.name for sp in spans] == ["leaf", "leaf", "outer", "leaf", "get"]
    nested = spans[1]
    assert nested.parent is spans[2] and spans[0].parent is None
    assert spans[3].parent is spans[4]
    assert [sp.info["arg"] for sp in spans if sp.name == "leaf"] == [1, 1, 5]
    assert tracer.take() == []


def test_threads_do_not_nest(fake_package):
    core, _ = fake_package
    with Tracer([Target("pkg.core", "leaf", "leaf"), Target("pkg.core", "outer", "outer")],
                "pkg") as tracer:
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait(timeout=10)        # all alive at once, so idents differ
            core.outer(i)

        workers = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in workers)
    spans = tracer.take()
    for sp in spans:
        if sp.name == "leaf":
            assert sp.parent.name == "outer" and sp.parent.thread == sp.thread
        else:
            assert sp.parent is None
    assert len({sp.thread for sp in spans}) == 4


def test_errors_are_recorded_and_reraised(fake_package):
    core, _ = fake_package
    with Tracer([Target("pkg.core", "leaf", "leaf")], "pkg") as tracer:
        with pytest.raises(TypeError):
            core.leaf(None)
    (span,) = tracer.take()
    assert span.info == {"error": "TypeError"} and span.end >= span.start


def test_declared_metrics_match_benchmark_json():
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    import layers
    import run
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS


def test_scaling_of_short_and_long_requests():
    prober = Prober(Path("unused"))
    prober.times = [1.0, 2.0, 5.0, 6.0]
    prober.cpu = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S, 2 * REFERENCE_S]
    r = REFERENCE_S
    # a short request uses the probes taken right around it
    assert prober.scaled(1.5, 0.5, r, 3 * r) == pytest.approx(0.5 / 2)
    # a long one the samples that end within [1.5, 1.5 + 4.45 + one period]
    assert prober.scaled(1.5, 4.45, r, r) == pytest.approx(4.45 / 2)
    # and with none there, the sample nearest its start
    prober.times = [1.0, 9.0]
    prober.cpu = [2 * REFERENCE_S, REFERENCE_S]
    assert prober.scaled(1.5, 4.0, r, r) == pytest.approx(4.0 / 2)
