"""Self-time arithmetic of the benchmark's span tracer."""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tracer import Tracer  # noqa: E402

SOURCE = '''
now = [0.0]

def inner():
    now[0] += 10.0

def rec(depth):
    now[0] += 5.0
    if depth:
        rec(depth - 1)

def outer():
    now[0] += 1.0
    inner()
    now[0] += 2.0
    inner()
    rec(3)
'''


def _fake_module(name):
    module = types.ModuleType(name)
    exec(SOURCE, module.__dict__)
    sys.modules[name] = module
    return module


def test_nested_self_time_and_direct_recursion_counted_once():
    module = _fake_module("perfbench_fake_layers")
    tracer = Tracer(clock=lambda: module.now[0])
    tracer.install([
        ("fake.outer", module.__name__, "outer", None),
        ("fake.inner", module.__name__, "inner", None),
        ("fake.rec", module.__name__, "rec", None),
    ])
    try:
        module.outer()
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["fake.outer"] == {"calls": 1, "self_s": 3.0, "items": 0}
    assert summary["fake.inner"] == {"calls": 2, "self_s": 20.0, "items": 0}
    # rec(3) runs four levels of 5; only the outermost call is a span.
    assert summary["fake.rec"] == {"calls": 1, "self_s": 20.0, "items": 0}
    assert tracer.root_time() == 43.0
    assert sum(entry["self_s"] for entry in summary.values()) == 43.0


def test_uninstall_restores_and_reset_clears():
    module = _fake_module("perfbench_fake_restore")
    original = module.inner
    tracer = Tracer(clock=lambda: module.now[0])
    tracer.install([("fake.inner", module.__name__, "inner", None)])
    assert module.inner is not original
    module.inner()
    tracer.reset()
    assert tracer.summary()["fake.inner"]["calls"] == 0
    tracer.uninstall()
    assert module.inner is original


def test_item_counter_and_missing_names_read_as_zero():
    module = _fake_module("perfbench_fake_items")
    module.batch = lambda f, points: len(points)
    tracer = Tracer(clock=lambda: module.now[0])
    tracer.install([
        ("fake.batch", module.__name__, "batch",
         lambda args, kwargs: len(args[1])),
        ("fake.gone", module.__name__, "kahan_sum", None),
        ("gone.module", "perfbench_no_such_module", "evaluate", None),
    ])
    try:
        module.batch(None, [1, 2, 3])
        module.batch(None, [4])
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["fake.batch"]["calls"] == 2
    assert summary["fake.batch"]["items"] == 4
    assert tracer.missing == ["fake.gone", "gone.module"]
    assert summary["fake.gone"] == {"calls": 0, "self_s": 0.0, "items": 0}
    assert summary["gone.module"] == {"calls": 0, "self_s": 0.0, "items": 0}
