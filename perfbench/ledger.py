"""Metric arithmetic: percentiles with sample counts, and the per-layer
ledger with every ratio's base.

Everything here is pure: the workloads and the tracer hand in counts and
times, these functions turn them into numbers.  ``BENCHMARK.json`` holds
every metric's name, unit and direction; :data:`PER_LAYER` maps each
per-layer name there to the function that computes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PER_LAYER",
    "TABLE_LAYERS",
    "Ledger",
    "Percentile",
    "histogram_quantile",
    "nearest_rank",
    "ratio",
    "layer_metrics",
]

#: Delay charged to a packet that never arrived (``censored_packet_delays``).
CENSOR_S = 1.0


def ratio(num: float, base: float) -> float:
    """``num / base``, or 0 when the base is empty."""
    return num / base if base else 0.0


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half (the lowest and highest quarter dropped):
    robust to a few pathological sessions, yet it moves with every
    session in the middle, unlike a median."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    k = len(xs) // 4
    middle = xs[k:len(xs) - k]
    return sum(middle) / len(middle)


@dataclass(frozen=True)
class Percentile:
    """A percentile with the sample count behind it."""

    value: float
    samples: int
    #: Samples strictly above the percentile's rank.
    beyond: int


def nearest_rank(sorted_values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-percentile (0 < q <= 1) of sorted samples."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("q must lie in (0, 1]")
    idx = max(0, math.ceil(q * n) - 1)
    return Percentile(sorted_values[idx], n, n - idx - 1)


def histogram_quantile(state: dict, q: float, count: Optional[int] = None) -> Percentile:
    """``q``-quantile of the lowest ``count`` samples of a geometric
    histogram (``repro.obs.metrics.Histogram.state_dict`` layout).

    The value is interpolated geometrically inside the bucket holding
    the rank, so it moves with the counts instead of snapping to bucket
    midpoints; it is clamped to the recorded extremes.
    """
    total = int(state["count"])
    n = total if count is None else min(int(count), total)
    if n <= 0:
        raise ValueError("no samples")
    growth, min_value = float(state["growth"]), float(state["min_value"])
    rank = q * n
    seen = 0
    for key in sorted(state["buckets"], key=int):
        idx, in_bucket = int(key), int(state["buckets"][key])
        if seen + in_bucket >= rank:
            frac = (rank - seen) / in_bucket
            lo = min_value * growth ** (idx - 1) if idx > 0 else min_value
            value = lo * growth ** frac if idx > 0 else min_value
            value = min(max(value, float(state["min"])), float(state["max"]))
            return Percentile(value, n, n - math.ceil(rank))
        seen += in_bucket
    return Percentile(float(state["max"]), n, 0)


def delay_percentiles(delays: Sequence[float], missing: int) -> Tuple[Percentile, Percentile]:
    """One session's (p50, p99) packet delay in seconds: the median over
    delays censored at 1 s (``missing`` packets never arrived), the p99
    over delivered packets only."""
    delivered = sorted(delays)
    censored = sorted(delivered + [CENSOR_S] * missing) if missing else delivered
    return nearest_rank(censored, 0.50), nearest_rank(delivered, 0.99)


def histogram_delay_percentiles(state: dict, delivered: int) -> Tuple[Percentile, Percentile]:
    """:func:`delay_percentiles` for a censored-delay histogram: the
    censored samples sit at 1 s, above every delivered one, so the p99 of
    the delivered packets is the quantile of the lowest ``delivered``."""
    return histogram_quantile(state, 0.50), histogram_quantile(state, 0.99, count=delivered)


# -- per-layer ----------------------------------------------------------------

@dataclass
class Ledger:
    """Counts and times of one traced run, the input of :func:`layer_metrics`."""

    #: Tracer totals: (layer, function) -> [calls, total_s, self_s].
    stats: Dict[Tuple[str, str], List[float]] = field(default_factory=dict)
    #: Values observed at call sites (ACK ranges, plan outcomes, ...).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Application packets the sources emitted (the ``_per_pkt`` base).
    app_pkts: int = 0
    #: Fleet vehicles simulated (the ``_per_vehicle`` base).
    vehicles: int = 0
    #: Stream sessions or fleet runs traced (the per-run base).
    sessions: int = 0
    traced_wall: float = 0.0
    untraced_wall: float = 0.0
    #: Calibrated tracer cost per span (``tracing.calibrate``); empty
    #: means self times are reported as measured.
    overhead: Dict[str, float] = field(default_factory=dict)

    def calls(self, layer: str, names: Optional[Sequence[str]] = None) -> int:
        """Function calls into ``layer`` (loop dispatches excluded)."""
        return int(sum(st[0] for (lay, name), st in self.stats.items()
                       if lay == layer and name != "dispatch"
                       and (names is None or name in names)))

    def dispatches(self) -> int:
        return int(sum(st[0] for (_l, name), st in self.stats.items()
                       if name == "dispatch"))

    def inclusive_s(self, layer: str, name: str) -> float:
        st = self.stats.get((layer, name))
        return st[1] if st is not None else 0.0

    def tracer_s(self, key: Tuple[str, str]) -> float:
        """Tracer cost inside the self time of one (layer, function): the
        inner part of its own spans plus the outer part of its children's."""
        st, oh = self.stats[key], self.overhead
        inner = oh.get("dispatch_inner" if key[1] == "dispatch" else "call_inner", 0.0)
        return (inner * st[0] + oh.get("call_outer", 0.0) * st[3]
                + oh.get("dispatch_outer", 0.0) * st[4])

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer, tracer cost taken out."""
        out: Dict[str, float] = {}
        for key, st in self.stats.items():
            out[key[0]] = out.get(key[0], 0.0) + st[2] - self.tracer_s(key)
        return out

    def self_s(self, layer: str) -> float:
        return self.layer_self().get(layer, 0.0)

    def tracer_total_s(self) -> float:
        return sum(self.tracer_s(key) for key in self.stats)

    def per_pkt(self, x: float) -> float:
        return ratio(x, self.app_pkts)

    def per_vehicle(self, x: float) -> float:
        return ratio(x, self.vehicles)

    def self_us_per_pkt(self, layer: str) -> float:
        return self.per_pkt(self.self_s(layer) * 1e6)

    def self_s_per_run(self, layer: str) -> float:
        return ratio(self.self_s(layer), self.sessions)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


#: Path-health predicates counted by ``multipath.path.health_checks_per_pkt``.
HEALTH_CHECKS = ("is_usable", "potentially_failed", "ack_silence", "can_send")


def _pkt(layer: str, names: Sequence[str]) -> Callable[[Ledger], float]:
    return lambda L: L.per_pkt(L.calls(layer, names))


def _self(layer: str) -> Callable[[Ledger], float]:
    return lambda L: L.self_us_per_pkt(layer)


def _unattributed(L: Ledger) -> float:
    selfs = L.layer_self()
    attributed = sum(selfs.get(layer, 0.0) for layer in TABLE_LAYERS)
    return ratio(L.traced_wall - L.tracer_total_s() - attributed, L.traced_wall)


#: name -> fn(ledger).  ``_per_pkt`` divides by application
#: packets emitted, ``_per_vehicle`` by fleet vehicles, ``self_s`` and
#: the ``fleet.*_s`` times by fleet runs; every other ratio names its
#: base in perfbench/README.md.
PER_LAYER: Dict[str, Callable[[Ledger], float]] = {
    "emulation.events.dispatches_per_pkt": lambda L: L.per_pkt(L.dispatches()),
    "emulation.events.schedules_per_pkt": _pkt("emulation.events", ("schedule",)),
    "emulation.events.self_us_per_pkt": _self("emulation.events"),
    "emulation.link.sends_per_pkt": _pkt("emulation.link", ("send",)),
    "emulation.link.self_us_per_pkt": _self("emulation.link"),
    "emulation.link.drop_ratio": lambda L: ratio(
        L.counter("link.dropped"), L.counter("link.enqueued")),
    "transport.base.send_us_per_pkt": lambda L: L.per_pkt(
        L.inclusive_s("transport.base", "send_app_packet") * 1e6),
    "transport.base.acks_per_pkt": _pkt("transport.base", ("_process_ack",)),
    "transport.base.self_us_per_pkt": _self("transport.base"),
    "multipath.path.health_checks_per_pkt": _pkt("multipath.path", HEALTH_CHECKS),
    "multipath.path.self_us_per_pkt": _self("multipath.path"),
    "multipath.scheduler.selects_per_pkt": _pkt("multipath.scheduler", ("select",)),
    "multipath.scheduler.self_us_per_pkt": _self("multipath.scheduler"),
    "quic.cc.calls_per_pkt": _pkt("quic.cc", None),
    "quic.cc.self_us_per_pkt": _self("quic.cc"),
    "quic.ack.builds_per_pkt": _pkt("quic.ack", ("build_ack",)),
    "quic.ack.us_per_build": lambda L: ratio(
        L.inclusive_s("quic.ack", "build_ack") * 1e6, L.calls("quic.ack", ("build_ack",))),
    "quic.ack.ranges_per_ack": lambda L: ratio(
        L.counter("ack.ranges"), L.counter("ack.frames")),
    "quic.ack.self_us_per_pkt": _self("quic.ack"),
    "quic.rtt.calls_per_pkt": _pkt("quic.rtt", None),
    "quic.rtt.self_us_per_pkt": _self("quic.rtt"),
    "core.loss_detection.detects_per_pkt": _pkt("core.loss_detection", None),
    "core.loss_detection.self_us_per_pkt": _self("core.loss_detection"),
    "core.ranges.builds_per_pkt": _pkt("core.ranges", ("build_ranges",)),
    "core.ranges.self_us_per_pkt": _self("core.ranges"),
    "core.recovery.plans_per_pkt": _pkt("core.recovery", ("plan_recovery",)),
    "core.recovery.sent_plan_ratio": lambda L: ratio(
        L.counter("recovery.coded_plans"), L.calls("core.recovery", ("plan_recovery",))),
    "core.recovery.self_us_per_pkt": _self("core.recovery"),
    "core.rlnc.encodes_per_pkt": _pkt("core.rlnc", ("encode",)),
    "core.rlnc.us_per_encode": lambda L: ratio(
        L.inclusive_s("core.rlnc", "encode") * 1e6, L.calls("core.rlnc", ("encode",))),
    "core.rlnc.pushes_per_pkt": _pkt("core.rlnc", ("push",)),
    "core.rlnc.useful_coded_ratio": lambda L: ratio(
        L.counter("decode.coded") - L.counter("decode.dependent"), L.counter("decode.coded")),
    "core.rlnc.self_us_per_pkt": _self("core.rlnc"),
    "core.gf256.calls_per_pkt": _pkt("core.gf256", None),
    "core.gf256.bytes_per_pkt": lambda L: L.per_pkt(L.counter("gf.bytes")),
    "core.gf256.self_us_per_pkt": _self("core.gf256"),
    "core.endpoint.self_us_per_pkt": _self("core.endpoint"),
    "video.self_us_per_pkt": _self("video"),
    "video.qoe_analyze_s": lambda L: ratio(
        L.inclusive_s("video", "analyze_qoe"), L.calls("video", ("analyze_qoe",))),
    "cloud.nat.translates_per_vehicle": lambda L: L.per_vehicle(
        L.calls("cloud.nat", ("translate",))),
    "cloud.nat.entries_scanned_per_expire": lambda L: ratio(
        L.counter("nat.scanned"), L.calls("cloud.nat", ("expire_idle",))),
    "cloud.nat.evict_yield": lambda L: ratio(
        L.counter("nat.evicted"), L.counter("nat.scanned")),
    "cloud.nat.self_s": lambda L: L.self_s_per_run("cloud.nat"),
    "cloud.controller.calls_per_vehicle": lambda L: L.per_vehicle(
        L.calls("cloud.controller")),
    "cloud.controller.self_s": lambda L: L.self_s_per_run("cloud.controller"),
    "cloud.autoscaler.calls_per_vehicle": lambda L: L.per_vehicle(
        L.calls("cloud.autoscaler")),
    "cloud.autoscaler.self_s": lambda L: L.self_s_per_run("cloud.autoscaler"),
    "fleet.plan_s": lambda L: ratio(
        L.inclusive_s("fleet", "plan_fleet"), L.calls("fleet", ("plan_fleet",))),
    "fleet.vehicle_ms": lambda L: ratio(
        L.inclusive_s("fleet", "simulate_vehicle") * 1e3, L.calls("fleet", ("simulate_vehicle",))),
    "fleet.report_s": lambda L: ratio(
        L.inclusive_s("fleet", "build"), L.calls("fleet", ("build",))),
    "obs.aggregate.merge_us_per_vehicle": lambda L: L.per_vehicle(
        (L.inclusive_s("obs.aggregate", "merge")
         + L.inclusive_s("obs.aggregate", "from_state")) * 1e6),
    "trace.overhead_ratio": lambda L: ratio(L.traced_wall, L.untraced_wall),
    "trace.unattributed_share": _unattributed,
}

#: The layers of the per-layer table (the ``trace`` rows are views of the
#: whole run, not layers).
TABLE_LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    name.rsplit(".", 1)[0] for name in PER_LAYER if not name.startswith("trace.")))


def layer_metrics(ledger: Ledger) -> Dict[str, float]:
    """Every per-layer metric: name -> value."""
    return {name: float(fn(ledger)) for name, fn in PER_LAYER.items()}


def layer_shares(ledger: Ledger) -> List[Tuple[str, float]]:
    """(layer, self-time share of the traced wall), largest first, for
    every layer that ran — in the table or not — plus the tracer's own
    cost and the time outside all spans; the shares sum to 1."""
    selfs = ledger.layer_self()
    tracer = ledger.tracer_total_s()
    rows = [(layer, ratio(s, ledger.traced_wall)) for layer, s in selfs.items()]
    rows.append(("(tracer)", ratio(tracer, ledger.traced_wall)))
    outside = ledger.traced_wall - tracer - sum(selfs.values())
    rows.append(("(outside spans)", ratio(outside, ledger.traced_wall)))
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows
