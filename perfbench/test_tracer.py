"""Tests of the benchmark's tracer: self time, spans, wrapping and hooks.

    python3 -m pytest perfbench
"""

import types

from tracer import Tracer, public_functions


class FakeClock:
    """A clock that each traced function advances by a known amount."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_layer(clock):
    """A fake module: outer spends 1 s itself around two 2.5 s inner calls."""
    layer = types.ModuleType("fake_layer")

    def inner():
        clock.advance(2.5)

    def outer():
        clock.advance(0.5)
        layer.inner()
        layer.inner()
        clock.advance(0.5)

    def _private():
        return None

    for fn in (inner, outer, _private):
        fn.__module__ = layer.__name__
        setattr(layer, fn.__name__, fn)
    return layer


def test_self_time_is_duration_minus_child_spans():
    clock = FakeClock()
    layer = make_layer(clock)
    tracer = Tracer({"fake": layer}, clock=clock)
    tracer.install()
    try:
        layer.outer()
    finally:
        tracer.uninstall()
    stats = tracer.take()
    assert stats["fake.outer"].s == 6.0
    assert stats["fake.inner"].calls == 2 and stats["fake.inner"].s == 5.0
    assert stats["fake.outer"].self_s == stats["fake.outer"].s - stats["fake.inner"].s
    assert stats["fake.inner"].self_s == 5.0
    spans = {span[0]: span for span in tracer.spans}
    outer = next(s for s in spans.values() if s[1] == "fake.outer")
    assert [s[4] for s in spans.values() if s[1] == "fake.inner"] == [outer[0], outer[0]]


def test_hot_functions_keep_sums_but_no_spans():
    clock = FakeClock()
    layer = make_layer(clock)
    tracer = Tracer({"fake": layer}, hot=("fake.inner",), clock=clock)
    tracer.install()
    layer.outer()
    tracer.uninstall()
    assert [span[1] for span in tracer.spans] == ["fake.outer"]
    assert tracer.stats["fake.outer"].self_s == 1.0


def test_uninstall_restores_originals_and_private_names_are_left_alone():
    clock = FakeClock()
    layer = make_layer(clock)
    original = layer.outer
    alias = types.ModuleType("alias")
    alias.outer = layer.outer
    tracer = Tracer({"fake": layer}, alias_modules=[alias], clock=clock)
    assert set(public_functions(layer)) == {"inner", "outer"}
    tracer.install()
    assert alias.outer is not original and alias.outer.__wrapped__ is original
    assert layer._private.__name__ == "_private" and not hasattr(layer._private, "__wrapped__")
    tracer.uninstall()
    assert layer.outer is original and alias.outer is original


def test_a_failing_hook_does_not_break_the_traced_call():
    clock = FakeClock()
    layer = make_layer(clock)
    tracer = Tracer({"fake": layer}, hooks={"fake.inner": lambda args, kwargs: 1 / 0},
                    clock=clock)
    tracer.install()
    layer.outer()
    tracer.uninstall()
    assert tracer.hook_errors == 2 and tracer.stats["fake.inner"].calls == 2
