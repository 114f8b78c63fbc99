"""Telemetry-layer overhead guardrail.

Two promises from docs/telemetry.md are enforced here:

* the *disabled* layer (the ``NULL_TELEMETRY`` fast path every hot call
  site guards on) costs under 5 % of a streaming run — checked with the
  telemetry row of ``tools/check_overhead.py``;
* the *enabled* layer captures all three record kinds (lifecycle events,
  metrics, per-path timeline samples) for a standard run, snapshotted to
  ``benchmarks/results/`` as JSONL.
"""

import sys
from pathlib import Path

from conftest import bench_duration, write_result, write_telemetry_snapshot
from repro.experiments.runner import run_stream

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

from check_overhead import (  # noqa: E402
    LAYERS,
    THRESHOLD_PCT,
    armed_run,
    best_wall_time,
    measure_guard_ns,
)


def test_disabled_overhead_bound(once):
    duration = bench_duration(4.0)
    layer = next(row for row in LAYERS if row.name == "telemetry")

    def run():
        guard_ns = measure_guard_ns(layer.guard, layer.setup)
        off, base = best_wall_time(run_stream, duration, seed=1, runs=2)
        armed = armed_run(run_stream, layer.armed(1, duration), duration, seed=1)
        activations = layer.count(armed, base)
        bound_pct = activations * guard_ns * 1e-9 / off * 100.0
        return guard_ns, activations, off, armed.wall, bound_pct

    guard_ns, activations, off, on, bound_pct = once(run)
    write_result(
        "telemetry_overhead",
        "telemetry overhead (cellfusion, %.0fs run):\n"
        "  disabled guard      %6.0f ns/site x %d sites -> %.2f%% bound\n"
        "  wall time           off %.3fs  on %.3fs (+%.1f%%)"
        % (duration, guard_ns, activations, bound_pct,
           off, on, (on - off) / off * 100.0),
    )
    assert bound_pct < THRESHOLD_PCT, (
        "disabled telemetry overhead bound %.2f%% exceeds %.1f%%"
        % (bound_pct, THRESHOLD_PCT)
    )


def test_telemetry_snapshot_complete(once):
    result = once(
        run_stream, "cellfusion", duration=bench_duration(4.0), seed=1,
        telemetry=True,
    )
    tel = result.telemetry
    path = write_telemetry_snapshot("fig_run_cellfusion", tel)
    kinds = {r["type"] for r in tel.records()}
    assert {"meta", "event", "metric", "path_sample", "stats"} <= kinds, kinds
    assert tel.trace.emitted > 0 and Path(path).exists()
