"""Discrete-event simulated clock.

Everything in the reproduction runs on *simulated nanoseconds*: DRAM
activations cost ``tRC``-ish latencies, page faults cost microseconds,
SoftTRR's tracer timer fires every ``timer_inr`` (1 ms in the paper), and
DRAM auto-refresh closes the hammer window every 64 ms.  A single
:class:`SimClock` instance is shared by the DRAM module, the MMU, the
kernel, and the SoftTRR module so that all of those time scales interleave
deterministically.

The clock is passive: time advances only when a component calls
:meth:`SimClock.advance`.  Scheduled events (kernel timers, periodic
housekeeping) do **not** fire from inside ``advance``; instead the kernel
calls :meth:`SimClock.pop_due` at its dispatch points (the top of every
memory-access batch and fault return path) and runs the due callbacks.
This mirrors how a real kernel only services timer interrupts at
interruptible points, and keeps re-entrancy out of the model.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

from .errors import ConfigError

#: Nanoseconds per microsecond / millisecond / second, for readable math.
NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


@dataclass(frozen=True)
class ScheduledEvent:
    """A callback scheduled at an absolute simulated time.

    ``period_ns`` non-zero makes the event re-arm itself each time it is
    popped, which is how kernel periodic timers (and SoftTRR's 1 ms tracer
    timer) are modelled.
    """

    when_ns: int
    seq: int
    callback: Callable[[], None]
    period_ns: int = 0
    name: str = ""


class SimClock:
    """A deterministic, monotonically advancing nanosecond clock.

    Components share one instance.  Typical use::

        clock = SimClock()
        clock.schedule(NS_PER_MS, tracer_tick, period_ns=NS_PER_MS)
        ...
        clock.advance(access_latency_ns)
        for event in clock.pop_due():
            event.callback()
    """

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ConfigError("clock cannot start before t=0")
        self._now_ns = start_ns
        self._heap: List[Tuple[int, int, ScheduledEvent]] = []
        self._seq = itertools.count()
        self._cancelled: set = set()
        # Trace hub, or None when tracing is off (repro.trace attaches).
        self.trace = None

    # ------------------------------------------------------------------ time
    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds (convenience)."""
        return self._now_ns / NS_PER_MS

    def advance(self, delta_ns: int) -> int:
        """Advance simulated time by ``delta_ns`` and return the new time.

        Negative deltas are rejected: simulated time is monotonic.
        """
        if delta_ns < 0:
            raise ConfigError(f"cannot advance clock by {delta_ns} ns")
        self._now_ns += int(delta_ns)
        return self._now_ns

    def advance_to(self, when_ns: int) -> int:
        """Advance simulated time to an absolute timestamp (if later)."""
        if when_ns > self._now_ns:
            self._now_ns = int(when_ns)
        return self._now_ns

    # ---------------------------------------------------------------- events
    def schedule(
        self,
        delay_ns: int,
        callback: Callable[[], None],
        *,
        period_ns: int = 0,
        name: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` to become due ``delay_ns`` from now.

        Returns the event handle, which can be passed to :meth:`cancel`.
        """
        if delay_ns < 0:
            raise ConfigError("cannot schedule an event in the past")
        if period_ns < 0:
            raise ConfigError("event period must be >= 0")
        event = ScheduledEvent(
            when_ns=self._now_ns + delay_ns,
            seq=next(self._seq),
            callback=callback,
            period_ns=period_ns,
            name=name,
        )
        heapq.heappush(self._heap, (event.when_ns, event.seq, event))
        if self.trace is not None:
            self.trace.emit("clock.schedule", at_ns=event.when_ns,
                            period_ns=period_ns, name=name)
        return event

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a scheduled event.  Cancelling twice is a no-op."""
        self._cancelled.add(event.seq)

    def is_cancelled(self, event: ScheduledEvent) -> bool:
        """Whether ``event`` has a pending cancellation.

        Needed by dispatchers that popped a batch of due events and then
        saw one callback cancel a sibling: the sibling is already out of
        the heap, so the heap-side lazy discard cannot stop it — the
        dispatcher must check before firing.
        """
        return event.seq in self._cancelled

    def discard_cancellation(self, event: ScheduledEvent) -> None:
        """Forget a pending cancellation for ``event``.

        A dispatcher that skipped firing a cancelled *one-shot* event
        calls this: no heap copy remains to consume the cancellation
        lazily.  Periodic events must NOT be discarded by dispatchers —
        their re-armed instance (same seq) still sits in the heap and
        relies on the pending cancellation to die at the next pop.
        """
        self._cancelled.discard(event.seq)

    def has_due(self) -> bool:
        """Whether :meth:`pop_due` would pop anything now: the heap's
        head (live or cancelled) is due.  The kernel's dispatch points
        ask this first, so an idle dispatch costs one compare."""
        heap = self._heap
        return bool(heap) and heap[0][0] <= self._now_ns

    def pop_due(self) -> List[ScheduledEvent]:
        """Pop (without running) every event due at or before *now*.

        Periodic events are transparently re-armed for their next period
        before being returned, so a caller that runs each returned
        callback gets steady-state periodic behaviour.  Events are
        returned in (time, schedule-order) order.
        """
        due: List[ScheduledEvent] = []
        while self.has_due():
            _, seq, event = heapq.heappop(self._heap)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            due.append(event)
            if event.period_ns > 0:
                # Re-arm relative to the *scheduled* time, not the pop
                # time, so a long stall does not shift the phase of the
                # timer permanently; but never schedule into the past
                # more than one period (coalesce missed ticks, as the
                # kernel's timer wheel effectively does for LKM timers).
                next_when = event.when_ns + event.period_ns
                if next_when <= self._now_ns:
                    periods_missed = (self._now_ns - event.when_ns) // event.period_ns
                    next_when = event.when_ns + (periods_missed + 1) * event.period_ns
                # The renewed event keeps its seq so that a handle from
                # schedule() cancels every future firing, not just the
                # first one.
                renewed = ScheduledEvent(
                    when_ns=next_when,
                    seq=event.seq,
                    callback=event.callback,
                    period_ns=event.period_ns,
                    name=event.name,
                )
                heapq.heappush(self._heap, (renewed.when_ns, renewed.seq, renewed))
        return due

    def pending_count(self) -> int:
        """Number of live (non-cancelled) scheduled events."""
        return sum(1 for _, seq, _ in self._heap if seq not in self._cancelled)


@dataclass
class CycleAccountant:
    """Accumulates simulated time per named category.

    The performance evaluation (Tables III/IV) needs to know not just the
    total runtime of a workload but *where* SoftTRR added time: page
    faults, timer ticks, row refreshes, and collector hook work.  Each
    component charges its costs here as well as advancing the shared
    clock.
    """

    totals_ns: dict = field(default_factory=dict)

    def charge(self, category: str, delta_ns: int) -> None:
        """Add ``delta_ns`` to ``category``'s running total."""
        self.totals_ns[category] = self.totals_ns.get(category, 0) + int(delta_ns)

    def total(self, category: str) -> int:
        """Total nanoseconds charged to ``category`` so far."""
        return self.totals_ns.get(category, 0)

    def grand_total(self) -> int:
        """Sum across every category."""
        return sum(self.totals_ns.values())

    def snapshot(self) -> dict:
        """A copy of the per-category totals (ns)."""
        return dict(self.totals_ns)

    def reset(self) -> None:
        """Zero every category."""
        self.totals_ns.clear()
