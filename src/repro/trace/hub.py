"""The TraceHub: one per machine, fan-in point for all instrumentation.

Every instrumented component carries a ``trace`` attribute that is
either ``None`` (tracing off — the emission sites are a single attribute
test, nothing else) or this hub.  The hub timestamps events off the
*simulated* clock, counts every site in its :class:`MetricsRegistry`,
and — depending on level — records point events and span boundaries in
the ring :class:`TraceBuffer`.

Levels (cumulative):

* ``off`` — no hub is built at all; ``component.trace is None``.
* ``metrics`` — per-site counters and span latency histograms only.
* ``events`` — plus point events in the ring buffer.
* ``spans`` — plus begin/end boundary events for spans.

The hub lives at ``kernel.trace_hub`` so a machine deepcopy
(snapshot/restore) carries exactly one hub copy and every component's
``trace`` reference follows it through deepcopy memoization.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ConfigError
from .events import DEFAULT_CAPACITY, TraceBuffer, TraceEvent
from .metrics import MetricsRegistry

__all__ = ["LEVELS", "TraceHub"]

#: Valid ``MachineConfig.trace`` levels, least to most verbose.
LEVELS = ("off", "metrics", "events", "spans")


class TraceHub:
    """Fan-in for trace emission: registry + ring buffer + levels."""

    def __init__(self, clock, level: str = "metrics",
                 capacity: int = DEFAULT_CAPACITY) -> None:
        if level not in LEVELS or level == "off":
            raise ConfigError(
                f"trace hub level must be one of {LEVELS[1:]}, got {level!r}")
        self.clock = clock
        self.level = level
        self.registry = MetricsRegistry()
        self.buffer = TraceBuffer(capacity)
        self._events_on = level in ("events", "spans")
        self._spans_on = level == "spans"

    # ------------------------------------------------------------ emission
    def emit(self, site: str, /, **payload: object) -> None:
        """Record one point event at ``site``, stamped now.

        Always counted (``site.<name>`` counter); buffered only at
        ``events`` level and above.  ``site`` is positional-only so a
        payload may carry its own ``site`` key (the fault injector's
        events do).
        """
        self.emit_at(self.clock.now_ns, site, **payload)

    def emit_at(self, at_ns: int, site: str, /, **payload: object) -> None:
        """:meth:`emit`, stamped ``at_ns`` instead of now: a burst that
        settles the clock once stamps each of its items at its start."""
        self.registry.counter(f"site.{site}").inc()
        if self._events_on:
            self.buffer.append(TraceEvent(at_ns, site, "event", payload))

    def span_begin(self, site: str) -> int:
        """Open a span at ``site``; returns the start timestamp."""
        now = self.clock.now_ns
        if self._spans_on:
            self.buffer.append(TraceEvent(now, site, "begin", {}))
        return now

    def span_end(self, site: str, start_ns: int) -> None:
        """Close a span opened by :meth:`span_begin`.

        The latency lands in the ``span.<site>_ns`` histogram at every
        level; the boundary events only at ``spans``.
        """
        now = self.clock.now_ns
        self.registry.histogram(f"span.{site}_ns").observe(now - start_ns)
        if self._spans_on:
            self.buffer.append(
                TraceEvent(now, site, "end", {"dur_ns": now - start_ns}))

    # ------------------------------------------------------------- wiring
    def attach(self, kernel) -> None:
        """Wire this hub into a kernel and its core components.

        Late-loaded modules (SoftTRR) and the fault injector pick the
        hub up from ``kernel.trace_hub`` when they install themselves.
        """
        kernel.trace_hub = self
        kernel.trace = self
        kernel.clock.trace = self
        kernel.timers.trace = self
        kernel.hooks.trace = self
        kernel.mmu.trace = self
        kernel.mmu.tlb.trace = self
        kernel.dram.trace = self

    # ------------------------------------------------------------- queries
    def events(self) -> List[TraceEvent]:
        """Buffered events, oldest first."""
        return self.buffer.events()

    def site_names(self) -> List[str]:
        """Distinct sites seen so far (counter order)."""
        prefix = "site."
        return [name[len(prefix):]
                for name in self.registry.counter_names()
                if name.startswith(prefix)]

    def as_flat_dict(self) -> Dict[str, int]:
        """Trace-side metrics (site counters, span histogram summaries)."""
        out = self.registry.as_flat_dict()
        out["buffer.len"] = len(self.buffer)
        out["buffer.dropped"] = self.buffer.dropped
        return out

    @staticmethod
    def build(clock, level: str,
              capacity: Optional[int] = None) -> "Optional[TraceHub]":
        """Hub for ``level``, or ``None`` when tracing is off."""
        if level == "off":
            return None
        return TraceHub(clock, level, capacity or DEFAULT_CAPACITY)
