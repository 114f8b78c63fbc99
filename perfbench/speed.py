"""The machine-speed reference that host times are scaled by.

A shared VM runs the same Python code at very different speeds from one
stretch of tens of seconds to the next (about 1.5x apart on the reference
box), and a whole benchmark run can land in a slow stretch.  So every
host time the benchmark reports is measured next to a fixed reference:
:func:`measure` times a small discrete-event loop written here — a heap of
timestamped events, slotted objects, dict and list churn, the kind of work
the simulator does — that shares no code with the program.  A host time
``t`` measured while the reference ran at ``speed`` events/s is reported
as ``t * (speed / REFERENCE_SPEED) ** SENSITIVITY``: the time it would
have taken with the machine at the reference speed.  A change to the
program moves the program's times and not the reference, so it moves the
scaled figure by the same factor; a slow stretch of the machine slows
both and largely cancels.

The program slows down less than the reference in a slow stretch, hence
:data:`SENSITIVITY` below 1.  It was fitted on the reference box: with
the same session repeated for three minutes, exponents 0.7-0.8 gave the
steadiest medians over runs of 6 to 14 sessions on both ``clean_4path``
and ``fleet_control`` (interquartile spread 0.04-0.06, against 0.14-0.19
unscaled and 0.06-0.07 with an exponent of 1).

The garbage collector is off while the reference runs, so collector
settings the program makes at import cannot speed the reference up.
"""

from __future__ import annotations

import gc
import heapq
import time

__all__ = ["REFERENCE_SPEED", "SENSITIVITY", "measure", "scale"]

#: Events per second of :func:`measure` on the reference box (2 cores,
#: Python 3.11) in its fast stretches.
REFERENCE_SPEED = 240_000.0
#: Events per measurement: about 0.13 s on the reference box.
EVENTS = 30_000
#: How strongly the program's speed follows the reference's (log-log).
SENSITIVITY = 0.75


class _Event:
    __slots__ = ("t", "kind", "size")

    def __init__(self, t, kind, size):
        self.t = t
        self.kind = kind
        self.size = size


class _Loop:
    def __init__(self):
        self.heap = []
        self.seq = 0
        self.flows = {}
        self.bytes = 0

    def push(self, t, ev):
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, ev))

    def handle(self, ev):
        flow = self.flows.get(ev.kind)
        if flow is None:
            flow = self.flows[ev.kind] = [0, 0.0, []]
        flow[0] += 1
        flow[1] += ev.size * 0.5
        flow[2].append(ev.t)
        if len(flow[2]) > 64:
            del flow[2][:32]
        self.bytes += ev.size
        if ev.size > 300:  # a follow-up event, half the size
            self.push(ev.t + 0.001 * (ev.size % 7),
                      _Event(ev.t + 0.001, (ev.kind * 31) % 257, ev.size // 2))

    def drain(self, keep):
        while len(self.heap) > keep:
            self.handle(heapq.heappop(self.heap)[2])


def _run(events: int) -> int:
    loop = _Loop()
    for i in range(events):
        loop.push(i * 0.0005, _Event(i * 0.0005, i % 257, 200 + (i * 7919) % 1200))
        if len(loop.heap) > 256:
            loop.drain(128)
    loop.drain(0)
    return loop.bytes


def measure(events: int = EVENTS, clock=time.perf_counter) -> float:
    """Events per second of the reference loop, measured now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _run(events)
        return events / (clock() - t0)
    finally:
        if enabled:
            gc.enable()


def scale(speeds) -> float:
    """Factor from a host time measured while the reference ran at
    ``speeds`` (events/s, averaged) to that time at the reference speed."""
    speeds = list(speeds)
    return (sum(speeds) / len(speeds) / REFERENCE_SPEED) ** SENSITIVITY
