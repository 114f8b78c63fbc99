#!/usr/bin/env python3
"""Gate every instrumentation layer's disabled cost under 5 % of a streaming run.

Each layer follows the null-singleton contract: when it is off, every
instrumented call site pays one attribute load (or local test) plus a
branch against a shared disabled handle, and nothing else.  For every
row of :data:`LAYERS` the gate

1. **micro-benchmarks the guard**: the row's guarded statement in a tight
   loop versus the same loop without it, giving ns/site;
2. **counts activations**: how many guarded sites fire in a seeded
   ``run_stream("cellfusion")``, read off one run with that layer armed
   (rows armed alike share the run; the fault hook fires on every wire
   packet of the fault-free run);
3. **bounds the disabled overhead**: sites x ns as a fraction of the
   fault-free best-of-N wall time, measured once for all layers.  Rows
   sharing a verdict are summed; any verdict above
   :data:`THRESHOLD_PCT` exits 1.

The armed run's wall time is printed for information only: armed runs
are debug and CI tools, not the benchmark path.  A sanitizer violation
during an armed run fails the gate outright.

Usage::

    PYTHONPATH=src python tools/check_overhead.py
    PYTHONPATH=src python tools/check_overhead.py --duration 6 --runs 5
"""

import argparse
import sys
import time
import timeit
from dataclasses import dataclass
from typing import Callable, Dict, NamedTuple

from repro.experiments.runner import run_stream
from repro.faults import random_plan
from repro.obs import NULL_SPANS, NULL_TELEMETRY  # noqa: F401 -- named by guards
from repro.sanitizer import NULL_SANITIZER, NULL_STATE_GUARD  # noqa: F401
from repro.sanitizer import reset_totals, totals

#: The documented disabled-overhead budget, in percent of a streaming run.
THRESHOLD_PCT = 5.0


class _Carrier:
    """Stand-in link: ``fault`` is None whenever no fault is active."""

    __slots__ = ("fault",)

    def __init__(self):
        self.fault = None


def measure_guard_ns(guard: str, setup: str = "pass",
                     iterations: int = 2_000_000) -> float:
    """Per-site cost of the disabled ``guard`` statement, in nanoseconds.

    ``setup`` and ``guard`` run in this module's namespace, so they can
    name the null singletons imported above.
    """
    guarded = timeit.Timer("acc += 1\n" + guard, "acc = 0\n" + setup,
                           globals=globals())
    bare = timeit.Timer("acc += 1", "acc = 0\n" + setup, globals=globals())
    guarded.timeit(iterations // 10)  # warm up
    bare.timeit(iterations // 10)
    with_guard = guarded.timeit(iterations)
    without = bare.timeit(iterations)
    return max(0.0, (with_guard - without) / iterations * 1e9)


class Armed(NamedTuple):
    """One armed run: its result, sanitizer checks fired, and wall time."""

    result: object
    checks: int
    wall: float


@dataclass(frozen=True)
class Layer:
    """One instrumentation layer: its disabled guard and activation count."""

    name: str
    #: Binds the disabled handle the guard reads.
    setup: str
    #: The statement every guarded site runs when the layer is off.
    guard: str
    #: ``run_stream`` keyword arguments that arm the layer, from (seed, duration).
    armed: Callable[[int, float], dict]
    #: Activations from (armed run, fault-free baseline result).
    count: Callable[[Armed, object], int]
    #: Rows sharing a verdict are gated on their summed bound.
    verdict: str = ""


def telemetry_hits(tel) -> int:
    """Guarded telemetry sites fired: trace events, metric updates, samples.

    Event sites usually also bump a counter, so counting both
    overestimates and the bound is conservative.
    """
    hits = tel.trace.emitted
    for metric in tel.metrics.snapshot():
        # counters report their sum; histograms their sample count; each
        # gauge set is at least one hit per recorded update
        hits += int(metric.get("count", metric.get("value", 1)) or 1)
    for samples in tel.timelines.values():
        hits += len(samples)
    return hits


def wire_packets(result) -> int:
    """Link drains in one run: every wire packet sent, plus every ACK."""
    s = result.client_stats
    return (s.first_tx_packets + s.retx_packets + s.recovery_packets
            + s.duplicate_packets + s.probe_packets + s.acks_received)


LAYERS = (
    Layer("sanitizer", "san = NULL_SANITIZER",
          "if san.enabled:\n    san.check_timer_progress('x', 0.0)",
          lambda seed, duration: {"sanitize": True},
          lambda armed, base: armed.checks),
    # the two ``state_guard.enabled`` tests around snapshot() and verify()
    Layer("state guard", "guard = NULL_STATE_GUARD",
          "if guard.enabled:\n    guard.snapshot()",
          lambda seed, duration: {"sanitize": True}, lambda armed, base: 2),
    Layer("telemetry", "tel = NULL_TELEMETRY",
          "if tel.enabled:\n    tel.count('x')",
          lambda seed, duration: {"telemetry": True},
          lambda armed, base: telemetry_hits(armed.result.telemetry)),
    # each open pairs with a close and at most one bind/annotate, so
    # 4 x opens bounds the guarded span sites from above; spans and the
    # profiler share one armed run and one verdict
    Layer("spans", "sp = NULL_SPANS",
          "if sp.enabled:\n    sp.instant('x', 0.0)",
          lambda seed, duration: {"spans": True, "profile": True},
          lambda armed, base: 4 * armed.result.telemetry.spans.opened,
          verdict="spans+profiler"),
    # the event loop's local ``profiler is None`` test, once per dispatch
    Layer("profiler dispatch", "profiler = None",
          "if profiler is not None:\n    profiler.call(int, (), 0.0)",
          lambda seed, duration: {"spans": True, "profile": True},
          lambda armed, base: armed.result.profile["calls"],
          verdict="spans+profiler"),
    # the link drain: one attribute load, then the per-stage branches
    Layer("fault hook", "link = _Carrier()",
          "fault = link.fault\n"
          "if fault is not None:\n    acc += 1\n"
          "if fault is not None:\n    acc += 1\n"
          "if fault is not None:\n    acc += 1",
          lambda seed, duration: {"faults": random_plan(seed, duration),
                                  "fault_seed": seed},
          lambda armed, base: wire_packets(base)),
)


def best_wall_time(stream, duration: float, seed: int, runs: int):
    """Best-of-N wall time of the fault-free run, and its (seeded) result."""
    best, result = float("inf"), None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = stream("cellfusion", duration=duration, seed=seed,
                        sanitize=False)
        best = min(best, time.perf_counter() - t0)
    return best, result


def armed_run(stream, kwargs: dict, duration: float, seed: int) -> Armed:
    """One run with a layer armed; a sanitizer violation fails the gate."""
    reset_totals()
    t0 = time.perf_counter()
    result = stream("cellfusion", duration=duration, seed=seed, **kwargs)
    wall = time.perf_counter() - t0
    fired = totals()
    reset_totals()
    if fired["violations"]:
        raise SystemExit("sanitizer reported %d violations during the armed "
                         "run" % fired["violations"])
    return Armed(result, fired["checks"], wall)


def main(argv=None, layers=LAYERS, stream=run_stream) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=4.0,
                        help="seconds of simulated streaming per run")
    parser.add_argument("--seed", type=int, default=1, help="trace seed")
    parser.add_argument("--runs", type=int, default=3,
                        help="best-of-N baseline runs")
    args = parser.parse_args(argv)

    off, base = best_wall_time(stream, args.duration, args.seed, args.runs)
    print("baseline: fault-free %.0fs run, best of %d: %.3fs"
          % (args.duration, args.runs, off))

    armed_cache: Dict[str, Armed] = {}
    bounds: Dict[str, float] = {}
    for layer in layers:
        ns = measure_guard_ns(layer.guard, layer.setup)
        kwargs = layer.armed(args.seed, args.duration)
        key = repr(sorted(kwargs.items()))
        armed = armed_cache.get(key)
        if armed is None:
            armed = armed_cache[key] = armed_run(stream, kwargs,
                                                 args.duration, args.seed)
        sites = layer.count(armed, base)
        pct = sites * ns * 1e-9 / off * 100.0
        verdict = layer.verdict or layer.name
        bounds[verdict] = bounds.get(verdict, 0.0) + pct
        print("%-18s %7d sites x %3.0f ns = %7.2f ms = %.4f%%  "
              "(armed %.3fs, %+.1f%%, informational)"
              % (layer.name, sites, ns, sites * ns * 1e-6, pct,
                 armed.wall, (armed.wall - off) / off * 100.0))

    failed = 0
    for verdict, pct in bounds.items():
        ok = pct <= THRESHOLD_PCT
        failed += not ok
        print("%s: disabled %s overhead bound %.4f%% %s %.1f%%"
              % ("OK" if ok else "FAIL", verdict, pct,
                 "<=" if ok else "exceeds", THRESHOLD_PCT))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
