"""The benchmark's three workloads and the checks every operation passes.

Each workload is a batch of *sessions* (operations).  Session ``i`` of a
run with seed ``s`` uses the sub-seed :func:`sub_seed` ``(s, i)``, a hash
of the pair: runs with different seeds draw unrelated sessions, even when
the seeds are close.  A sub-seed fixes every input of the session, so a
session is a pure function of (workload, sub-seed) and its digest must
repeat exactly.

=================  ========================================================
workload           one session
=================  ========================================================
clean_4path        ``run_stream("cellfusion", traces)``: 1 s of 30 Mbps
                   video over the four ``generate_fleet_traces`` links
                   (2x5G + 2xLTE), no faults
brownout_coding    ``run_chaos_soak`` under the zoo ``brownout_cascade``
                   plan, 1 s
fleet_control      ``run_fleet`` of 1000 lite vehicles, one shard, three
                   PoPs failing mid-run, 10 % of vehicles under faults
=================  ========================================================

Every session runs with the sanitizer and telemetry forced off, so the
``REPRO_SANITIZE`` environment hook cannot change what is timed.

``run_chaos_soak`` builds a ``StreamRunResult`` and keeps only the soak
summary, which has no QoE.  :class:`StreamCapture` therefore replaces
``repro.experiments.runner.run_stream`` — the name ``run_chaos_soak``
imports when called — by a shim that keeps the last result.  It is the
one patch of an untraced run and costs one Python call per session.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.emulation.cellular import generate_fleet_traces
from repro.experiments import runner
from repro.faults import soak
from repro.fleet import runner as fleet_runner
from repro.fleet.config import FleetConfig
from repro.fleet.report import hex_floats
from repro.scenarios.oracles import evaluate_oracles
from repro.scenarios.zoo import get_scenario

from ledger import Percentile, delay_percentiles, histogram_delay_percentiles

__all__ = [
    "WORKLOADS",
    "Workload",
    "OpResult",
    "StreamCapture",
    "DigestBook",
    "check_op",
    "stream_digest",
    "sub_seed",
]

TRANSPORT = "cellfusion"
#: Fleet shape: big enough that ``plan_fleet`` dominates the run.
FLEET_VEHICLES = 1000
FLEET_OUTAGE_POPS = 3
FLEET_FAULT_RATE = 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    #: "stream" (run_stream), "soak" (run_chaos_soak) or "fleet" (run_fleet).
    kind: str
    #: Simulated seconds per session (per vehicle for the fleet).
    duration: float
    #: Wall seconds of one session on the reference box (2 cores,
    #: Python 3.11); sizes a run as ``--seconds / nominal_s`` sessions.
    nominal_s: float
    #: Fewest sessions a run pools, however short ``--seconds`` is: a
    #: workload whose sessions vary a lot needs this many for steady
    #: medians and interquartile means.
    min_sessions: int
    #: Sessions the traced run times twice (untraced, then traced).
    trace_sessions: int
    scenario: str = ""


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("clean_4path", "stream", 1.0, 0.25, 110, 6),
    Workload("brownout_coding", "soak", 1.0, 0.45, 85, 6, scenario="brownout_cascade"),
    Workload("fleet_control", "fleet", 2.0, 2.4, 10, 2),
)}


def session_count(workload: Workload, seconds: float) -> int:
    """Sessions a run pools: a fixed number for given ``--seconds``, so
    the simulated metrics repeat exactly for a given seed."""
    return max(workload.min_sessions, round(seconds / workload.nominal_s))


def sub_seed(seed: int, index: int) -> int:
    """The seed of session ``index`` in a run with seed ``seed``: 31 bits
    of a hash of the pair, so no two runs share a window of sessions."""
    blob = hashlib.sha256(b"%d/%d" % (seed, index)).digest()
    return int.from_bytes(blob[:4], "big") >> 1


@dataclass
class OpResult:
    """What one session produced, reduced to what metrics and checks read."""

    sub_seed: int
    wall_s: float
    app_pkts: int
    vehicles: int
    delivered: int
    digest: str
    failures: List[str] = field(default_factory=list)
    #: Packet delay p50 (censored at 1 s) and p99 (delivered), seconds.
    p50: Optional[Percentile] = None
    p99: Optional[Percentile] = None
    avg_fps: float = 0.0
    stall_ratio: float = 0.0
    ssim: float = 0.0
    first_tx_bytes: int = 0
    extra_tx_bytes: int = 0
    #: SimProfiler report of a profiled session, else None.
    profile: Optional[dict] = None
    #: ``speed.scale`` of the machine speed around the session:
    #: ``wall_s * host_scale`` is the wall time at reference speed.  Set
    #: by the runner.
    host_scale: float = 1.0


# -- digests ------------------------------------------------------------------

def stream_digest(result) -> str:
    """sha256 over everything observable from one ``run_stream`` result
    (floats bit-exact), the stream analogue of the soak and fleet digests."""
    doc = {
        "packets_sent": result.packets_sent,
        "packets_received": result.packets_received,
        "delays": [float(d) for d in result.packet_delays],
        "client": result.client_stats.as_dict(),
        "qoe": [result.qoe.avg_fps, result.qoe.stall_ratio, result.qoe.ssim],
        "frames": result.frame_statuses,
        "uplink_loss": result.uplink_loss_rates,
        "terminal_error": result.terminal_error,
    }
    blob = json.dumps(hex_floats(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_key(roots) -> str:
    """sha256 over the ``.py`` files below ``roots`` (the program and the
    benchmark's own modules, whose inputs and digests shape every
    session): one key per version of the code.  ``tests`` and ``out``
    directories are skipped."""
    h = hashlib.sha256()
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("tests", "out", "__pycache__"))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode("utf-8"))
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


class DigestBook:
    """Session digests per version of the code, kept across runs.

    The first run of a (workload, sub-seed) records its digest under the
    current code key; every later session of it — in this process or a
    later one over the same code — must reproduce it.  Records of other
    code versions are kept untouched, so runs that alternate between two
    versions in one checkout check each against its own record.
    """

    def __init__(self, path: str, code_key: str):
        self.path = path
        self.code_key = code_key
        self.books: Dict[str, Dict[str, str]] = {}
        if os.path.exists(path):
            with open(path) as fh:
                self.books = json.load(fh)
        self.digests = self.books.setdefault(code_key, {})

    def check(self, key: str, digest: str) -> Optional[str]:
        """Record ``digest``; returns a failure when it disagrees."""
        known = self.digests.setdefault(key, digest)
        if known != digest:
            return "digest mismatch for %s: recorded %s, now %s" % (
                key, known[:16], digest[:16])
        return None

    def save(self) -> None:
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        tmp = self.path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.books, fh, sort_keys=True, indent=0)
        os.replace(tmp, self.path)


# -- checks -------------------------------------------------------------------

def check_op(sent: int, delivered: int, verdicts=(), terminal_error=None) -> List[str]:
    """Failures of one session: empty when the session is correct.

    ``verdicts`` are zoo oracle verdicts (each with ``ok``, ``oracle``,
    ``detail``); a digest mismatch is added by :class:`DigestBook`.
    """
    failures = []
    if sent <= 0:
        failures.append("nothing was sent")
    if delivered > sent:
        failures.append("delivered %d > sent %d" % (delivered, sent))
    if terminal_error is not None:
        failures.append("terminal error: %s" % terminal_error)
    for v in verdicts:
        if not v.ok:
            failures.append("oracle %s failed: %s" % (v.oracle, v.detail))
    return failures


# -- running --------------------------------------------------------------------

class StreamCapture:
    """Shim over ``runner.run_stream`` that keeps the last result.

    ``profile=True`` makes every session attach a SimProfiler (the
    traced run reads its per-component dispatch counts).
    """

    def __init__(self):
        self.inner = runner.run_stream
        self.last = None
        self.profile = False

    def __call__(self, *args, **kwargs):
        if self.profile:
            kwargs["profile"] = True
        self.last = self.inner(*args, **kwargs)
        return self.last

    def install(self) -> None:
        """Shim whatever ``run_stream`` is now (the tracer may have wrapped it)."""
        self.inner = runner.run_stream
        runner.run_stream = self

    def uninstall(self) -> None:
        runner.run_stream = self.inner


def make_inputs(workload: Workload, seed: int, index: int):
    """The generated inputs of one session (the set-up work)."""
    s = sub_seed(seed, index)
    if workload.kind == "stream":
        return generate_fleet_traces(duration=workload.duration, seed=s)
    if workload.kind == "soak":
        scenario = get_scenario(workload.scenario)
        plan = scenario.build_plan(workload.duration, scenario.path_count)
        plan.validate(path_count=scenario.path_count)
        return plan
    return FleetConfig(vehicles=FLEET_VEHICLES, shards=1, seed=s, mode="lite",
                       duration=workload.duration, transport=TRANSPORT,
                       outage_pops=FLEET_OUTAGE_POPS,
                       fault_rate=FLEET_FAULT_RATE, fault_seed=s,
                       sanitize=False)


def run_session(workload: Workload, seed: int, index: int, inputs,
                capture: StreamCapture, clock) -> OpResult:
    """Run one session, time only the entry-point call, and check it."""
    s = sub_seed(seed, index)
    if workload.kind == "fleet":
        t0 = clock()
        report = fleet_runner.run_fleet(inputs)
        wall = clock() - t0
        agg = report.aggregate_state
        qoe = report.qoe_summary()
        failures = check_op(agg["packets_sent"], agg["packets_received"])
        for v in report.vehicles:
            failures.extend("vehicle %d: %s" % (v["vid"], f) for f in check_op(
                v["packets_sent"], v["packets_received"],
                terminal_error=v["terminal_error"]))
        if len(report.vehicles) != inputs.vehicles:
            failures.append("%d of %d vehicles reported"
                            % (len(report.vehicles), inputs.vehicles))
        hist = next(h for h in agg["metrics"]["histograms"]
                    if h["name"] == "delay.packet")
        p50, p99 = histogram_delay_percentiles(hist, agg["packets_received"])
        return OpResult(s, wall, agg["packets_sent"], len(report.vehicles),
                        agg["packets_received"], report.digest, failures,
                        p50=p50, p99=p99, avg_fps=qoe["avg_fps"], stall_ratio=qoe["stall_ratio"],
                        ssim=qoe["ssim"])
    if workload.kind == "stream":
        t0 = clock()
        result = runner.run_stream(TRANSPORT, inputs, duration=workload.duration,
                                   seed=s, telemetry=False, sanitize=False)
        wall = clock() - t0
        digest = stream_digest(result)
        failures = check_op(result.packets_sent, result.packets_received,
                            terminal_error=result.terminal_error)
    else:
        scenario = get_scenario(workload.scenario)
        t0 = clock()
        report = soak.run_chaos_soak(s, duration=workload.duration,
                                     transport=TRANSPORT,
                                     path_count=scenario.path_count,
                                     plan=inputs, telemetry=False, sanitize=False)
        wall = clock() - t0
        result = capture.last
        digest = report.digest
        failures = check_op(report.packets_sent, report.packets_received,
                            verdicts=evaluate_oracles(report, inputs,
                                                      scenario.expectations))
    stats = result.client_stats
    p50, p99 = delay_percentiles(result.packet_delays,
                                 max(0, result.packets_sent - result.packets_received))
    return OpResult(
        s, wall, result.packets_sent, 1, result.packets_received, digest, failures,
        p50=p50, p99=p99, avg_fps=result.qoe.avg_fps, stall_ratio=result.qoe.stall_ratio,
        ssim=result.qoe.ssim, first_tx_bytes=stats.first_tx_bytes,
        extra_tx_bytes=stats.retx_bytes + stats.recovery_bytes + stats.duplicate_bytes,
        profile=result.profile,
    )
