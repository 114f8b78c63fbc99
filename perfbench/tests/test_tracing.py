"""Span folding and self time on hand-built span trees."""

import sys
import types

import pytest

import tracing
from ledger import Ledger, layer_shares


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def build_tree():
    """root(rec) [0,10] > a(fold) [1,4] > b(fold) [2,3]; c(rec) [5,9] > d(fold) [6,8]."""
    clock = FakeClock()
    t = tracing.Tracer(clock)
    steps = [
        (0, "enter", ("L1", "root"), True),
        (1, "enter", ("L2", "a"), False),
        (2, "enter", ("L3", "b"), False),
        (3, "exit",), (4, "exit",),
        (5, "enter", ("L2", "c"), True),
        (6, "enter", ("L3", "d"), False),
        (8, "exit",), (9, "exit",),
        (10, "exit",),
    ]
    for step in steps:
        clock.now = float(step[0])
        if step[1] == "enter":
            t.enter(step[2], step[3])
        else:
            t.exit()
    return t


def test_self_time_is_duration_minus_children():
    st = build_tree().stats
    assert st[("L1", "root")][:3] == [1, 10.0, 10.0 - 3.0 - 4.0]
    assert st[("L2", "a")][:3] == [1, 3.0, 2.0]
    assert st[("L3", "b")][:3] == [1, 1.0, 1.0]
    assert st[("L2", "c")][:3] == [1, 4.0, 2.0]
    assert st[("L3", "d")][:3] == [1, 2.0, 2.0]


def test_self_times_sum_to_root_duration():
    st = build_tree().stats
    assert sum(v[2] for v in st.values()) == pytest.approx(10.0)


def test_child_counts_feed_the_overhead_correction():
    st = build_tree().stats
    # root has two direct children (a, c); a has one (b); c has one (d)
    assert st[("L1", "root")][3] == 2
    assert st[("L2", "a")][3] == 1
    assert st[("L3", "b")][3] == 0


def test_folded_calls_land_on_nearest_recorded_ancestor():
    t = build_tree()
    root, c = t.spans
    assert (root.name, c.name, c.parent_id) == ("root", "c", root.span_id)
    assert root.folded == {("L2", "a"): [1, 3.0, 2.0], ("L3", "b"): [1, 1.0, 1.0]}
    assert c.folded == {("L3", "d"): [1, 2.0, 2.0]}
    assert (c.start, c.end, c.self_s) == (5.0, 9.0, 2.0)


def test_dispatch_children_are_counted_apart():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.enter(("emulation.events", "run_until"), True)
    for i in range(3):
        clock.now = float(i)
        t.enter(("emulation.link", "dispatch"))
        clock.now += 0.5
        t.exit()
    t.exit()
    assert t.stats[("emulation.events", "run_until")][3:] == [0, 3]


def test_shares_sum_to_one_with_tracer_cost():
    t = build_tree()
    ledger = Ledger(stats=t.stats, traced_wall=12.0,
                    overhead={"call_inner": 0.1, "call_outer": 0.2})
    shares = dict(layer_shares(ledger))
    assert sum(shares.values()) == pytest.approx(1.0)
    # tracer: 5 spans x 0.1 inner + 4 child calls x 0.2 outer
    assert shares["(tracer)"] == pytest.approx(1.3 / 12.0)
    assert shares["(outside spans)"] == pytest.approx(2.0 / 12.0)


def test_layer_of_module():
    assert tracing.layer_of_module("repro.quic.cc.bbr") == "quic.cc"
    assert tracing.layer_of_module("repro.multipath.scheduler.minrtt") == "multipath.scheduler"
    assert tracing.layer_of_module("repro.core.rlnc") == "core.rlnc"
    assert tracing.layer_of_module("repro.video.receiver") == "video"
    assert tracing.layer_of_module("repro.fleet.runner") == "fleet"
    assert tracing.layer_of_module("repro.emulation.emulator") == "emulation.link"


@pytest.fixture
def toy_module():
    mod = types.ModuleType("toymod")

    def helper(x):
        return x + 1

    class Box:
        def grow(self, n):
            return mod.helper(n) * 2  # looked up at call time, like a module global

        @classmethod
        def make(cls):
            return cls()

    mod.helper, mod.Box = helper, Box
    sys.modules["toymod"] = mod
    yield mod
    del sys.modules["toymod"]


def test_install_wraps_call_sites_and_uninstall_restores(toy_module):
    t = tracing.Tracer()
    seen = []
    original_helper = toy_module.helper
    table = (("toymod", None, ("helper",), "toy.fn", False),
             ("toymod", "Box", ("grow", "make"), "toy.box", True))
    undo = tracing.install(t, {("toy.fn", "helper"): lambda a, r: seen.append((a, r))},
                           table=table)
    try:
        box = toy_module.Box.make()
        assert box.grow(2) == 6  # grow's body calls the wrapped module global
        assert seen == [((2,), 3)]
        assert t.stats[("toy.box", "grow")][0] == 1
        assert t.stats[("toy.fn", "helper")][0] == 1
        assert t.stats[("toy.box", "make")][0] == 1
        assert [s.name for s in t.spans] == ["make", "grow"]
    finally:
        tracing.uninstall(undo)
    assert toy_module.helper is original_helper
    assert isinstance(vars(toy_module.Box)["make"], classmethod)
    import repro.obs

    assert repro.obs.SimProfiler.__name__ == "SimProfiler"


def test_calibration_is_non_negative():
    cost = tracing.calibrate(calls=2000, rounds=1)
    assert set(cost) == {"call_outer", "call_inner", "dispatch_outer", "dispatch_inner"}
    assert all(v >= 0.0 for v in cost.values())
