"""The repo benchmark: one seeded workload, checked, with every metric by name.

Run from the root of a checkout::

    python3 perfbench/run.py --workload clean_4path --seed 0 --seconds 20 --trace 0

``--trace 0`` runs as many sessions as take about ``--seconds`` on the
reference box, with tracing off, and prints the end-to-end metrics; host
times are scaled to the reference speed by a machine-speed reference
timed between sessions (``speed.py``);
``--trace 1`` times a few sessions untraced, the same sessions traced,
and prints the per-layer metrics (spans also go to ``perfbench/out/``).
The last line of standard output is one JSON object: ``{"correct",
"attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json`` at the repo root.
See perfbench/README.md for the catalog and how to read a traced run.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
#: At least this many set-up samples per run (every session's, when a
#: run has fewer); each costs a fresh interpreter.
SETUP_SAMPLES = 5
#: Seconds of sessions (at the workload's nominal time) between two
#: machine-speed references; each reference costs ~0.13 s.
REF_EVERY_S = 2.0

clock = time.perf_counter


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _fmt(values, catalog):
    """``BENCHMARK.json``'s metrics of one kind, valued: name -> {value, unit}."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in catalog}


def end_to_end(host_ops, sim_ops, setup_s, ok_ratio, ledger):
    """The end-to-end metrics of an untraced run, name -> value, and
    notes on the samples behind the delay percentiles.

    Host metrics are medians over the timed sessions of wall times
    scaled to the reference speed.  The delay percentiles are geometric
    means of their per-session values, which are skewed and, for p99,
    bimodal (see perfbench/README.md); every other simulated metric is
    the interquartile mean of its per-session values.
    """
    iqm = ledger.interquartile_mean

    def wire(op):
        # lite fleet vehicles have no transport: nothing but first copies
        return ledger.ratio(op.first_tx_bytes + op.extra_tx_bytes, op.first_tx_bytes) or 1.0

    values = {
        "app_pkts_per_s": statistics.median(
            op.app_pkts / (op.wall_s * op.host_scale) for op in host_ops),
        "vehicles_per_s": statistics.median(
            op.vehicles / (op.wall_s * op.host_scale) for op in host_ops),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": ok_ratio,
        "stall_free_ratio": iqm([1.0 - op.stall_ratio for op in sim_ops]),
        "avg_fps": iqm([op.avg_fps for op in sim_ops]),
        "ssim": iqm([op.ssim for op in sim_ops]),
        "delivery_ratio": iqm([op.delivered / op.app_pkts for op in sim_ops]),
        "pkt_delay_p50_ms": statistics.geometric_mean(op.p50.value for op in sim_ops) * 1e3,
        "pkt_delay_p99_ms": statistics.geometric_mean(op.p99.value for op in sim_ops) * 1e3,
        "wire_bytes_ratio": iqm([wire(op) for op in sim_ops]),
    }
    notes = []
    for name, what in (("p50", "censored at 1 s"), ("p99", "delivered packets")):
        ps = [getattr(op, name) for op in sim_ops]
        notes.append("pkt_delay_%s_ms: geometric mean of %d per-session values (%s); "
                     "samples per session %d..%d, beyond the percentile %d..%d"
                     % (name, len(ps), what, min(p.samples for p in ps),
                        max(p.samples for p in ps), min(p.beyond for p in ps),
                        max(p.beyond for p in ps)))
    return values, notes


def import_seconds():
    """Time to import the program in a fresh interpreter."""
    code = ("import sys, time; t0 = time.perf_counter(); sys.path[:0] = [%r, %r]; "
            "import workloads; print(time.perf_counter() - t0)" % (SRC, HERE))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


class Session:
    """One benchmark run: set-up, the digest book, and op accounting."""

    def __init__(self, wl, seed, workloads):
        self.wl = wl
        self.seed = seed
        self.w = workloads
        self.capture = workloads.StreamCapture()
        self.capture.install()
        self.book = workloads.DigestBook(
            os.path.join(OUT, "digests.json"), workloads.source_key((SRC, HERE)))
        self.inputs = {}

    def prepare(self, index):
        """Generate session ``index``'s inputs; returns the time it took."""
        t0 = clock()
        self.inputs[index] = self.w.make_inputs(self.wl, self.seed, index)
        return clock() - t0

    def run(self, index):
        if index not in self.inputs:
            self.prepare(index)
        gc.collect()  # start every session without the last one's garbage
        op = self.w.run_session(self.wl, self.seed, index, self.inputs[index],
                                self.capture, clock)
        key = "%s/%g/%d" % (self.wl.name, self.wl.duration, op.sub_seed)
        mismatch = self.book.check(key, op.digest)
        if mismatch:
            op.failures.append(mismatch)
        return op


def failed_ops(ops):
    return sum(1 for op in ops if op.failures)


def run_untraced(sess, seconds, ledger):
    """Sessions 0..N-1, then session 0 again (the in-run same-seed
    check); returns the ops, the end-to-end metrics and notes on them.

    Session 0's first run also lets lazy imports and caches fill, so the
    host medians use sessions 1..N-1 and the repeat of 0.  Every few
    sessions one set-up sample (a fresh import and that session's input
    generation) is taken first, so set-up is sampled across the whole
    run.  The machine-speed reference runs before the first session and
    after every group of sessions that takes about ``REF_EVERY_S``; a
    session and its set-up sample are scaled by the two references
    around the group.
    """
    import speed

    n = sess.w.session_count(sess.wl, seconds)
    step = max(1, n // SETUP_SAMPLES)
    per_ref = max(1, round(REF_EVERY_S / sess.wl.nominal_s))
    refs = [speed.measure()]
    raw_setup = {}
    ops = []
    groups = []  # per op: the index of the reference before it
    for i in range(n):
        if i % step == 0:
            raw_setup[i] = import_seconds() + sess.prepare(i)
        ops.append(sess.run(i))
        groups.append(len(refs) - 1)
        if (i + 1) % per_ref == 0:
            refs.append(speed.measure())
    ops.append(sess.run(0))
    groups.append(len(refs) - 1)
    refs.append(speed.measure())
    for op, g in zip(ops, groups):
        op.host_scale = speed.scale(refs[g:g + 2])
    setup = [t * ops[i].host_scale for i, t in raw_setup.items()]
    values, notes = end_to_end(ops[1:], ops[:-1], statistics.median(setup),
                               1.0 - failed_ops(ops) / len(ops), ledger)
    notes.append("setup_s: median of %d samples at reference speed, %.3f..%.3f s "
                 "(as measured: median %.3f s)" % (len(setup), min(setup), max(setup),
                                                   statistics.median(raw_setup.values())))
    scales = [op.host_scale for op in ops]
    notes.append("host-time scale (machine speed / reference speed) ** %g: %.3f..%.3f, "
                 "median %.3f; app_pkts_per_s as measured: %.6g"
                 % (speed.SENSITIVITY, min(scales), max(scales), statistics.median(scales),
                    statistics.median(op.app_pkts / op.wall_s for op in ops[1:])))
    return ops, values, notes


def run_traced(sess, ledger_mod):
    """Untraced then traced passes over the same sessions."""
    import tracing

    n = sess.wl.trace_sessions
    untraced = [sess.run(i) for i in range(1, n + 1)]
    overhead = tracing.calibrate(clock)
    tracer = tracing.Tracer(clock)
    counters = tracing.CallSiteCounters()
    sess.capture.uninstall()
    undo = tracing.install(tracer, counters.observers())
    sess.capture.install()
    sess.capture.profile = True
    try:
        traced = [sess.run(i) for i in range(1, n + 1)]
    finally:
        sess.capture.uninstall()
        tracing.uninstall(undo)
    # SimProfiler dispatches per component (the prefix map of
    # repro/obs/profiler.py), summed over the traced sessions
    profile_calls = {}
    for op in traced:
        for entry in (op.profile or {}).get("components", ()):
            profile_calls[entry["component"]] = (
                profile_calls.get(entry["component"], 0) + entry["calls"])
    ledger = ledger_mod.Ledger(
        stats=tracer.stats, counters=counters.totals(),
        app_pkts=sum(op.app_pkts for op in traced),
        vehicles=sum(op.vehicles for op in traced) if sess.wl.kind == "fleet" else 0,
        sessions=n,
        traced_wall=sum(op.wall_s for op in traced),
        untraced_wall=sum(op.wall_s for op in untraced),
        overhead=overhead,
    )
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "trace-%s-seed%d" % (sess.wl.name, sess.seed))
    shares = ledger_mod.layer_shares(ledger)
    tracer.export_jsonl(stem + ".jsonl", {
        "workload": sess.wl.name, "seed": sess.seed, "sessions": n,
        "traced_wall_s": ledger.traced_wall, "untraced_wall_s": ledger.untraced_wall,
        "app_pkts": ledger.app_pkts, "vehicles": ledger.vehicles,
        "layer_self_share": dict(shares), "sim_profile_dispatches": profile_calls,
        "call_site_counters": ledger.counters, "tracer_cost_per_span_s": overhead,
    })
    tracer.export_chrome(stem + ".chrome.json")
    print("# traced %d session(s): %.3f s traced, %.3f s untraced; spans in %s.{jsonl,chrome.json}"
          % (n, ledger.traced_wall, ledger.untraced_wall, os.path.relpath(stem, ROOT)))
    print("# self-time share of the traced wall, by layer:")
    for layer, share in shares:
        if share >= 0.001:
            print("#   %-22s %6.1f%%" % (layer, share * 100))
    if profile_calls:
        print("# SimProfiler dispatches per app packet: " + ", ".join(
            "%s %.2f" % (c, ledger.per_pkt(k)) for c, k in sorted(profile_calls.items())))
    return untraced + traced, ledger_mod.layer_metrics(ledger)


def main(argv=None):
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    try:
        import workloads
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    import ledger

    wl = workloads.WORKLOADS[args.workload]
    sess = Session(wl, args.seed, workloads)
    if args.trace:
        first = sess.run(0)  # lazy imports and caches fill
        ops, values = run_traced(sess, ledger)
        ops = [first] + ops
        pooled = ops[1:1 + wl.trace_sessions]
        catalog = SPEC["per_layer"]
    else:
        ops, values, notes = run_untraced(sess, args.seconds, ledger)
        pooled = ops[:-1]
        for note in notes:
            print("# " + note)
        catalog = SPEC["end_to_end"]
    sess.book.save()

    joint = hashlib.sha256("".join(op.digest for op in pooled).encode()).hexdigest()
    print("# workload=%s seed=%d sessions=%d digest of sub-seeds %d..%d: %s"
          % (wl.name, args.seed, len(ops), pooled[0].sub_seed, pooled[-1].sub_seed, joint))
    for op in ops:
        print("#   sub-seed %d digest %s wall %.4f s%s" % (
            op.sub_seed, op.digest, op.wall_s,
            "" if args.trace else " host-time scale %.3f" % op.host_scale))
    for op in ops:
        for failure in op.failures:
            print("# FAILED sub-seed %d: %s" % (op.sub_seed, failure))
    failed = failed_ops(ops)
    print(json.dumps({"correct": failed == 0, "attempted": len(ops),
                      "failed": failed, "metrics": _fmt(values, catalog)}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
