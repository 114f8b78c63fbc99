"""Span tracer for the benchmark's traced run (``--trace 1``).

The program is never edited for tracing.  Instead :func:`install` wraps
the functions of each layer *in the namespace they are called from* — a
class attribute for methods, the importing module's global for a
function imported by name (``plan_recovery`` lives in
``repro.core.recovery`` but is called through ``repro.core.endpoint``) —
and every call through a wrapper opens and closes a span.  Untraced runs
never import this module.

Self time
    A span's self time is its duration minus the time its child spans
    cover.  Calls run on one thread and nest strictly, so the children of
    one span never overlap and the covered time is the sum of their
    durations.  Summed over every span, self times add up to the time
    spent inside root spans; the benchmark's traced region *is* its root
    spans, so per-layer self times plus the remainder a layer table
    leaves out add up to the traced wall time.

Recorded and folded spans
    Entry points and other calls made at most a few thousand times per
    run are recorded one span each (name, layer, start, end, parent).
    Every other call — the per-packet leaves listed in
    ``perfbench/README.md`` — is *folded*: its call count, total time and
    self time are added to per-function counters on the nearest recorded
    ancestor span, so memory stays bounded by the recorded spans, not by
    the packet count.

Event-loop dispatches
    ``run_stream(profile=True)`` attaches a
    :class:`repro.obs.SimProfiler` to the loop.  In the traced process
    ``repro.obs.SimProfiler`` is replaced by a subclass whose ``call``
    (the loop's one dispatch point) opens a ``dispatch`` span charged to
    the dispatched callback's layer, then runs the profiler's own
    bookkeeping and the callback.  The profiler's per-component dispatch
    counts — computed with the prefix map of ``repro/obs/profiler.py`` —
    come back in each result's ``profile`` field.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "Span",
    "Tracer",
    "layer_of_module",
    "install",
    "uninstall",
    "calibrate",
]


class Span:
    """One recorded span plus the folded counters of its leaf calls."""

    __slots__ = ("span_id", "parent_id", "layer", "name", "start", "end",
                 "self_s", "folded")

    def __init__(self, span_id: int, parent_id: int, layer: str, name: str,
                 start: float):
        self.span_id = span_id
        self.parent_id = parent_id
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.self_s = 0.0
        #: (layer, name) -> [calls, total_s, self_s] of folded descendants.
        self.folded: Dict[Tuple[str, str], List[float]] = {}

    def as_dict(self, t0: float) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "layer": self.layer,
            "name": self.name,
            "start_us": (self.start - t0) * 1e6,
            "dur_us": (self.end - self.start) * 1e6,
            "self_us": self.self_s * 1e6,
            "folded": {"%s:%s" % k: {"calls": int(v[0]), "total_us": v[1] * 1e6,
                                     "self_us": v[2] * 1e6}
                       for k, v in sorted(self.folded.items())},
        }


class Tracer:
    """Stack-based span recorder with per-(layer, function) totals.

    ``clock`` is injectable so tests can build span trees with exact
    times.  ``stats`` maps ``(layer, name)`` to ``[calls, total_s,
    self_s, child_calls, child_dispatches]`` over every call, recorded
    or folded; the child counts let :mod:`ledger` take the tracer's own
    calibrated cost back out of each self time.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[Tuple[str, str], List[float]] = {}
        self.spans: List[Span] = []
        #: Holder for folded calls made outside any recorded span.
        self.unscoped = Span(0, 0, "unscoped", "unscoped", 0.0)
        # frame: [key, start, child_s, anchor_span, own_span,
        #         child_calls, child_dispatches]
        self._stack: List[list] = []
        self.t0 = clock()

    def enter(self, key: Tuple[str, str], record: bool = False) -> None:
        """Open a span for ``key`` = (layer, function name)."""
        stack = self._stack
        anchor = stack[-1][3] if stack else self.unscoped
        own = None
        if record:
            own = Span(len(self.spans) + 1, anchor.span_id, key[0], key[1], 0.0)
            self.spans.append(own)
            anchor = own
        frame = [key, 0.0, 0.0, anchor, own, 0, 0]
        stack.append(frame)
        frame[1] = start = self.clock()
        if own is not None:
            own.start = start

    def exit(self) -> None:
        now = self.clock()
        stack = self._stack
        key, start, child_s, anchor, own, child_calls, child_dispatches = stack.pop()
        dur = now - start
        self_s = dur - child_s
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = [0, 0.0, 0.0, 0, 0]
        st[0] += 1
        st[1] += dur
        st[2] += self_s
        st[3] += child_calls
        st[4] += child_dispatches
        if stack:
            parent = stack[-1]
            parent[2] += dur
            parent[6 if key[1] == "dispatch" else 5] += 1
        if own is not None:
            own.end = now
            own.self_s = self_s
        else:
            f = anchor.folded.get(key)
            if f is None:
                f = anchor.folded[key] = [0, 0.0, 0.0]
            f[0] += 1
            f[1] += dur
            f[2] += self_s

    # -- export -------------------------------------------------------------

    def export_jsonl(self, path: str, header: dict) -> None:
        """One header line, then one line per recorded span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in [self.unscoped] + self.spans:
                fh.write(json.dumps(span.as_dict(self.t0), sort_keys=True) + "\n")

    def export_chrome(self, path: str) -> None:
        """Recorded spans as Chrome trace "complete" events."""
        events = []
        for span in self.spans:
            d = span.as_dict(self.t0)
            events.append({
                "name": "%s:%s" % (span.layer, span.name),
                "cat": span.layer,
                "ph": "X",
                "ts": d["start_us"],
                "dur": d["dur_us"],
                "pid": 1,
                "tid": 1,
                "args": {"id": span.span_id, "parent": span.parent_id,
                         "self_us": d["self_us"], "folded": d["folded"]},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- layers -------------------------------------------------------------------

#: Packages whose whole tree is one layer.
_PACKAGE_LAYERS = ("video", "fleet")


def layer_of_module(module: str) -> str:
    """This repo's layer name for a module: its path below ``repro``,
    cut to two parts (``repro.quic.cc.bbr`` -> ``quic.cc``), with the
    ``video`` and ``fleet`` packages as one layer each and the emulator's
    channel wiring counted with the link it drives."""
    name = module[len("repro."):] if module.startswith("repro.") else module
    parts = name.split(".")
    if parts[0] in _PACKAGE_LAYERS:
        return parts[0]
    if name == "emulation.emulator":
        return "emulation.link"
    return ".".join(parts[:2])


# -- wrapping -------------------------------------------------------------------

#: What the traced run wraps: (module, class or None, functions or "*" for
#: every plain function the class itself defines, layer, recorded).
#: ``None`` as layer means "the function's own module's layer".
WRAP_TABLE: Tuple[tuple, ...] = (
    # entry points (recorded)
    ("repro.experiments.runner", None, ("run_stream",), None, True),
    ("repro.faults.soak", None, ("run_chaos_soak",), None, True),
    ("repro.fleet.runner", None, ("run_fleet", "plan_fleet"), None, True),
    ("repro.emulation.cellular", None, ("generate_fleet_traces",), None, True),
    ("repro.emulation.events", "EventLoop", ("run_until",), None, True),
    ("repro.experiments.runner", None, ("analyze_qoe",), "video", True),
    ("repro.fleet.report", "FleetReport", ("build",), None, True),
    # per-packet and per-vehicle leaves (folded)
    ("repro.emulation.events", "EventLoop", ("schedule", "call_later"), None, False),
    ("repro.emulation.link", "EmulatedLink", ("send",), None, False),
    ("repro.emulation.emulator", "MultipathEmulator",
     ("send_uplink", "send_downlink", "uplink_stats"), None, False),
    ("repro.transport.base", "TunnelClientBase", "*", None, False),
    ("repro.transport.base", "TunnelServerBase", "*", None, False),
    ("repro.multipath.path", "PathState", "*", None, False),
    ("repro.multipath.path", "PathManager", "*", None, False),
    ("repro.multipath.path", "PathHealthMonitor", "*", None, False),
    ("repro.multipath.scheduler.base", "Scheduler", "*", None, False),
    ("repro.multipath.scheduler.minrtt", "MinRttScheduler", "*", None, False),
    ("repro.quic.cc.base", "CongestionController", "*", None, False),
    ("repro.quic.cc.bbr", "BbrController", "*", None, False),
    ("repro.quic.ack", "AckRangeTracker", "*", None, False),
    ("repro.quic.rtt", "RttEstimator", "*", None, False),
    ("repro.core.loss_detection", "QoeLossPolicy", ("threshold",), None, False),
    ("repro.core.loss_detection", "LossDetector", "*", None, False),
    ("repro.core.ranges", None, ("build_ranges", "drop_expired"), None, False),
    ("repro.core.ranges", "RetransmissionQueue", "*", None, False),
    ("repro.core.endpoint", None, ("plan_recovery", "recovery_seeds"),
     "core.recovery", False),
    ("repro.core.endpoint", "XncTunnelClient", "*", None, False),
    ("repro.core.endpoint", "XncTunnelServer", "*", None, False),
    ("repro.core.rlnc", "RlncEncoder", "*", None, False),
    ("repro.core.rlnc", "RlncDecoder", "*", None, False),
    ("repro.core.rlnc", None,
     ("gf_addmul_scalar_buffer", "gf_addmul_vec", "gf_inv", "gf_mul_vec"),
     "core.gf256", False),
    ("repro.video.source", "VideoSource", "*", None, False),
    ("repro.video.receiver", "VideoReceiver", "*", None, False),
    ("repro.experiments.runner", None, ("_frame_status",), "video", False),
    ("repro.cloud.nat", "SnatTable", "*", None, False),
    ("repro.cloud.controller", "Controller", "*", None, False),
    ("repro.cloud.autoscaler", "ProxyAutoscaler", "*", None, False),
    ("repro.fleet.runner", None, ("simulate_vehicle",), None, False),
    ("repro.obs.aggregate", "RunAggregate", ("merge", "from_state"), None, False),
)

#: Observer hooks: (layer, name) -> fn(args, result) run after the call.
Observer = Callable[[tuple, object], None]


def _make_wrapper(fn: Callable, tracer: Tracer, layer: str, name: str,
                  record: bool, observe: Optional[Observer]) -> Callable:
    enter, exit_ = tracer.enter, tracer.exit
    key = (layer, name)
    if observe is None:
        def wrapper(*args, **kwargs):
            enter(key, record)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
    else:
        def wrapper(*args, **kwargs):
            enter(key, record)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_()
            observe(args, result)
            return result
    # keep __module__/__qualname__ so SimProfiler attributes dispatches of
    # wrapped callbacks exactly as it would the originals
    return functools.update_wrapper(wrapper, fn)


def install(tracer: Tracer, observers: Optional[Dict[Tuple[str, str], Observer]] = None,
            table: Sequence[tuple] = WRAP_TABLE) -> List[tuple]:
    """Wrap every function in ``table``; returns the undo list for
    :func:`uninstall`.  Also swaps in the span-opening profiler."""
    observers = observers or {}
    undo: List[tuple] = []
    for module_name, owner_name, names, layer, record in table:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        if names == "*":
            names = [n for n, v in vars(owner).items()
                     if inspect.isfunction(v) and not n.startswith("__")]
        for name in names:
            raw = inspect.getattr_static(owner, name)
            wrap_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if wrap_classmethod else getattr(owner, name)
            lay = layer or layer_of_module(fn.__module__)
            wrapped = _make_wrapper(fn, tracer, lay, name, record,
                                    observers.get((lay, name)))
            setattr(owner, name, classmethod(wrapped) if wrap_classmethod else wrapped)
            undo.append((owner, name, raw))
    obs = importlib.import_module("repro.obs")
    undo.append((obs, "SimProfiler", obs.SimProfiler))
    obs.SimProfiler = _span_profiler(obs.SimProfiler, tracer)
    return undo


def uninstall(undo: List[tuple]) -> None:
    for owner, name, raw in reversed(undo):
        setattr(owner, name, raw)


def _span_profiler(base: type, tracer: Tracer) -> type:
    """A SimProfiler whose dispatch hook opens a span for the callback's
    layer.  The span covers the profiler's own bookkeeping too."""
    enter, exit_ = tracer.enter, tracer.exit
    keys: Dict[object, Tuple[str, str]] = {}

    class SpanProfiler(base):
        def call(self, callback, args, when):
            target = callback
            if getattr(target, "__name__", "") == "_fire":  # PeriodicTimer
                target = getattr(target.__self__, "_callback", target)
            fn = getattr(target, "__func__", target)
            key = keys.get(fn)
            if key is None:
                key = keys[fn] = (layer_of_module(
                    getattr(fn, "__module__", "") or ""), "dispatch")
            enter(key)
            try:
                base.call(self, callback, args, when)
            finally:
                exit_()

    return SpanProfiler


class CallSiteCounters:
    """Values read at call sites for the per-layer ratios.

    :meth:`observers` returns the hooks :func:`install` runs after the
    matching calls; :meth:`totals` folds what they saw into the named
    counters :class:`ledger.Ledger` reads.
    """

    GF_FUNCTIONS = ("gf_addmul_scalar_buffer", "gf_addmul_vec", "gf_mul_vec")

    def __init__(self):
        self.counts: Dict[str, float] = {}
        #: Live objects whose end-of-run stats are read once, in totals().
        self._link_stats: Dict[object, dict] = {}
        self._decoders: Dict[object, None] = {}

    def _add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n

    def _ack(self, args, frame) -> None:
        if frame is not None:
            self._add("ack.frames", 1)
            self._add("ack.ranges", len(frame.ranges))

    def _plan(self, args, plan) -> None:
        # a plan sends coded packets when it exists, sends something, and
        # covers a range of more than one packet (n == 1 goes uncoded)
        if plan is not None and plan.total_packets >= 1 and args[0] >= 2:
            self._add("recovery.coded_plans", 1)

    def _gf(self, args, _result) -> None:
        # (acc, data, coeff) for the add-multiply kernels, (data, coeff)
        # for gf_mul_vec: the operand is the first buffer that is read
        data = args[1] if len(args) == 3 else args[0]
        self._add("gf.bytes", len(data))

    def _expire(self, args, evicted) -> None:
        table = args[0]
        if table.idle_timeout is not None:
            # expire_idle scans every mapping it held on entry
            self._add("nat.scanned", len(table) + evicted)
            self._add("nat.evicted", evicted)

    def _uplink(self, args, stats) -> None:
        self._link_stats[args[0]] = stats

    def _push(self, args, _result) -> None:
        self._decoders[args[0]] = None

    def observers(self) -> Dict[Tuple[str, str], Observer]:
        hooks: Dict[Tuple[str, str], Observer] = {
            ("quic.ack", "build_ack"): self._ack,
            ("core.recovery", "plan_recovery"): self._plan,
            ("cloud.nat", "expire_idle"): self._expire,
            ("emulation.link", "uplink_stats"): self._uplink,
            ("core.rlnc", "push"): self._push,
        }
        for name in self.GF_FUNCTIONS:
            hooks[("core.gf256", name)] = self._gf
        return hooks

    def totals(self) -> Dict[str, float]:
        out = dict(self.counts)
        for stats in self._link_stats.values():
            for s in stats.values():
                out["link.enqueued"] = out.get("link.enqueued", 0) + s.enqueued
                out["link.dropped"] = (out.get("link.dropped", 0)
                                       + s.dropped_queue + s.dropped_loss)
        for decoder in self._decoders:
            out["decode.coded"] = out.get("decode.coded", 0) + decoder.stats.coded_received
            out["decode.dependent"] = (out.get("decode.dependent", 0)
                                       + decoder.stats.dependent_discarded)
        return out


def calibrate(clock: Callable[[], float] = time.perf_counter, calls: int = 20000,
              rounds: int = 5) -> Dict[str, float]:
    """The tracer's own cost per span, in seconds (median of ``rounds``).

    ``*_outer`` is the part of a wrapper or dispatch span that lands in
    the caller's self time (call set-up before the start read, the
    bookkeeping after the end read); ``*_inner`` is the part that lands
    in the span's own self time.  A dispatch also pays the SimProfiler's
    bookkeeping, which untraced runs never do.
    """
    from repro.obs import SimProfiler

    def leaf(a, b, c):
        pass

    samples: Dict[str, List[float]] = {}
    for _ in range(rounds):
        t0 = clock()
        for _ in range(calls):
            leaf(0, 1, 2)
        base = (clock() - t0) / calls
        tracer = Tracer(clock)
        wrapped = _make_wrapper(leaf, tracer, "cal", "leaf", False, None)
        profiler = _span_profiler(SimProfiler, tracer)()
        args = (0, 1, 2)
        tracer.enter(("cal", "calls"), True)
        for _ in range(calls):
            wrapped(0, 1, 2)
        tracer.exit()
        tracer.enter(("cal", "dispatches"), True)
        call = profiler.call
        for _ in range(calls):
            call(leaf, args, 0.0)
        tracer.exit()
        st = tracer.stats
        layer = layer_of_module(leaf.__module__)
        for key, value in (
                ("call_outer", st[("cal", "calls")][2] / calls - base),
                ("call_inner", st[("cal", "leaf")][2] / calls),
                ("dispatch_outer", st[("cal", "dispatches")][2] / calls - base),
                ("dispatch_inner", st[(layer, "dispatch")][2] / calls)):
            samples.setdefault(key, []).append(max(0.0, value))
    return {key: statistics.median(v) for key, v in samples.items()}
