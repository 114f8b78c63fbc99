"""The disabled-overhead gate: one layer table, one 5 % verdict per layer.

These drive ``tools/check_overhead.py`` with a stand-in stream function,
so no test here runs a simulation.
"""

import time
from types import SimpleNamespace

import pytest

import tools.check_overhead as gate
from tools.check_overhead import LAYERS, Layer, main

BASELINE_S = 0.02


class FakeStream:
    """Stands in for ``run_stream``: a fixed wall time, no simulation."""

    def __init__(self):
        self.calls = []

    def __call__(self, transport, duration, seed, **kwargs):
        self.calls.append(kwargs)
        time.sleep(BASELINE_S)
        return SimpleNamespace()


def planted(sites, guard="if tel.enabled:\n    tel.count('x')", verdict=""):
    return Layer("planted", "tel = NULL_TELEMETRY", guard,
                 lambda seed, duration: {"telemetry": True},
                 lambda armed, base: sites, verdict=verdict)


def test_table_gates_every_instrumented_layer():
    assert [row.name for row in LAYERS] == [
        "sanitizer", "state guard", "telemetry", "spans",
        "profiler dispatch", "fault hook"]
    assert {row.verdict for row in LAYERS
            if row.name in ("spans", "profiler dispatch")} == {"spans+profiler"}


def test_layer_over_budget_exits_1(capsys):
    # an unguarded call costs tens of ns; 10**9 of them dwarf 5 % of 20 ms
    over = planted(10**9, guard="tel.count('x')")
    assert main(["--runs", "1"], layers=(over,), stream=FakeStream()) == 1
    assert "FAIL: disabled planted overhead bound" in capsys.readouterr().out


def test_layers_under_budget_exit_0_and_share_one_baseline(capsys):
    stream = FakeStream()
    rows = (planted(1, verdict="pair"), planted(2, verdict="pair"))
    assert main(["--runs", "2"], layers=rows, stream=stream) == 0
    out = capsys.readouterr().out
    assert out.count("OK: disabled pair overhead bound") == 1
    # two baseline runs, then one armed run shared by both rows
    assert stream.calls == [{"sanitize": False}] * 2 + [{"telemetry": True}]


def test_sanitizer_violation_in_an_armed_run_fails(monkeypatch):
    monkeypatch.setattr(gate, "totals",
                        lambda: {"checks": 10, "violations": 1})
    with pytest.raises(SystemExit, match="1 violations"):
        main(["--runs", "1"], layers=(planted(1),), stream=FakeStream())
