"""Sim-time profiler: per-component attribution of event-loop work.

The event loop dispatches every callback of every run; the profiler
hooks that single dispatch point (``EventLoop.profiler``) and attributes
each callback to a component — scheduler, coder, congestion control,
emulator, video, telemetry itself — by the module of the function that
actually ran.  ``PeriodicTimer`` wraps its payload in ``_fire``, so the
profiler unwraps one level to charge the wrapped callback, not the
timer plumbing.

Two kinds of numbers come out:

* **deterministic** — call counts per component and per callback, plus
  the sim-time of the first/last dispatch.  Same seed, same counts;
  the profiler regression test pins these.
* **informational** — wall-clock self-time per component.  This is the
  only sanctioned wall-clock use inside ``src/repro`` (suppressed
  inline per call site); it never feeds back into simulation state, so
  determinism is unaffected.

Attach with ``loop.profiler = SimProfiler()`` (the runner does this for
``profile=True`` runs).  A detached loop (``profiler is None``) pays one
local-variable ``is None`` test per event — the disabled-overhead gate
in ``tools/check_overhead.py`` bounds that branch.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Tuple

__all__ = [
    "COMPONENT_ORDER",
    "component_of",
    "SimProfiler",
]

#: Module-prefix -> component, first match wins (most specific first).
_COMPONENT_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.multipath.scheduler", "scheduler"),
    ("repro.multipath", "path"),
    ("repro.quic.cc", "cc"),
    ("repro.quic", "quic"),
    ("repro.core", "coder"),
    ("repro.obs", "telemetry"),
    ("repro.sanitizer", "sanitizer"),
    ("repro.emulation", "emulator"),
    ("repro.video", "video"),
    ("repro.transport", "transport"),
    ("repro.baselines", "transport"),
    ("repro.faults", "faults"),
    ("repro.cloud", "cloud"),
    ("repro.cpe", "cpe"),
)

#: Canonical component ordering for reports (everything else sorts after).
COMPONENT_ORDER = tuple(dict.fromkeys(c for _, c in _COMPONENT_PREFIXES)) + ("other",)


def _unwrap(callback: Callable) -> Callable:
    """Charge PeriodicTimer payloads to the wrapped callback.

    Duck-typed on the ``_fire``/``_callback`` shape so this module does
    not import :mod:`repro.emulation.events` (keeps the import graph
    acyclic: the loop only duck-types ``loop.profiler``).
    """
    if getattr(callback, "__name__", "") == "_fire":
        inner = getattr(getattr(callback, "__self__", None), "_callback", None)
        if inner is not None:
            return inner
    return callback


def component_of(callback: Callable) -> str:
    """The component a callback belongs to, by its defining module."""
    callback = _unwrap(callback)
    owner = getattr(callback, "__self__", None)
    if owner is not None:
        module = type(owner).__module__
    else:
        module = getattr(callback, "__module__", "") or ""
    for prefix, component in _COMPONENT_PREFIXES:
        if module == prefix or module.startswith(prefix + "."):
            return component
    return "other"


class _Stat:
    __slots__ = ("calls", "wall")

    def __init__(self):
        self.calls = 0
        self.wall = 0.0


class SimProfiler:
    """Attributes event-loop callbacks to components; see module docs."""

    enabled = True

    def __init__(self):
        self._components: Dict[str, _Stat] = {}
        self._callbacks: Dict[str, _Stat] = {}
        #: function object -> (component, label) memo; bound methods of
        #: the same function share one entry, so the memo stays tiny.
        self._memo: Dict[Any, Tuple[str, str]] = {}
        self.calls = 0
        self.first_dispatch: float = float("nan")
        self.last_dispatch: float = float("nan")

    # -- the hook ---------------------------------------------------------

    def call(self, callback: Callable, args: tuple, when: float) -> None:
        """Run ``callback(*args)``, charging its time to a component.

        This replaces the loop's bare ``callback(*args)`` dispatch when a
        profiler is attached, so it must re-raise whatever the callback
        raises and keep the accounting correct on the way out.
        """
        target = _unwrap(callback)
        key = getattr(target, "__func__", target)
        entry = self._memo.get(key)
        if entry is None:
            owner = getattr(target, "__self__", None)
            module = (type(owner).__module__ if owner is not None
                      else getattr(target, "__module__", "") or "")
            component = "other"
            for prefix, name in _COMPONENT_PREFIXES:
                if module == prefix or module.startswith(prefix + "."):
                    component = name
                    break
            label = "%s.%s" % (module, getattr(target, "__qualname__",
                                               getattr(target, "__name__", "?")))
            entry = (component, label)
            self._memo[key] = entry
        component, label = entry
        if self.calls == 0:
            self.first_dispatch = when
        self.last_dispatch = when
        self.calls += 1
        cstat = self._components.get(component)
        if cstat is None:
            cstat = self._components[component] = _Stat()
        lstat = self._callbacks.get(label)
        if lstat is None:
            lstat = self._callbacks[label] = _Stat()
        t0 = time.perf_counter()  # lint: disable=no-wall-clock -- profiler self-time is informational and never feeds the sim clock
        try:
            callback(*args)
        finally:
            dt = time.perf_counter() - t0  # lint: disable=no-wall-clock -- paired read closing the profiler self-time window
            cstat.calls += 1
            cstat.wall += dt
            lstat.calls += 1
            lstat.wall += dt

    # -- deterministic views ----------------------------------------------

    def calls_by_component(self) -> Dict[str, int]:
        """Call counts per component — seeded-deterministic."""
        return {name: stat.calls for name, stat in sorted(self._components.items())}

    def calls_by_callback(self) -> Dict[str, int]:
        """Call counts per callback label — seeded-deterministic."""
        return {name: stat.calls for name, stat in sorted(self._callbacks.items())}

    # -- reporting ---------------------------------------------------------

    def report(self) -> dict:
        """Structured report: deterministic counts + informational wall time."""
        total_wall = sum(s.wall for s in self._components.values()) or 1.0
        order = {c: i for i, c in enumerate(COMPONENT_ORDER)}
        components = []
        for name, stat in sorted(
                self._components.items(),
                key=lambda kv: (order.get(kv[0], len(order)), kv[0])):
            components.append({
                "component": name,
                "calls": stat.calls,
                "wall_s": round(stat.wall, 6),
                "wall_share": round(stat.wall / total_wall, 4),
            })
        top = sorted(self._callbacks.items(),
                     key=lambda kv: (-kv[1].calls, kv[0]))[:10]
        return {
            "type": "profile",
            "calls": self.calls,
            "first_dispatch": self.first_dispatch,
            "last_dispatch": self.last_dispatch,
            "components": components,
            "top_callbacks": [
                {"callback": name, "calls": stat.calls, "wall_s": round(stat.wall, 6)}
                for name, stat in top
            ],
        }

    @staticmethod
    def format_report(report: dict) -> str:
        """Human-readable component table from a :meth:`report` dict."""
        rows = ["%-12s %10s %12s %8s" % ("component", "calls", "wall_ms", "share")]
        for entry in report["components"]:
            rows.append("%-12s %10d %12.3f %7.1f%%" % (
                entry["component"], entry["calls"],
                entry["wall_s"] * 1e3, entry["wall_share"] * 100))
        rows.append("%-12s %10d" % ("total", report["calls"]))
        return "\n".join(rows)

    def summary_table(self) -> str:
        """Human-readable component table (calls deterministic, wall not)."""
        return self.format_report(self.report())
