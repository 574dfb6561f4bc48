"""Typed trace events and the bounded ring buffer that records them.

A :class:`TraceEvent` is plain data: a timestamp in *simulated*
nanoseconds (never wall-clock — that is lint rule RPR001 territory), a
site name (``timer.fire``, ``pte.arm``, ``refresh.row`` ...), an event
kind (point event or span begin/end) and a small JSON-serialisable
payload.

:class:`TraceBuffer` is a fixed-capacity ring: when full, the *oldest*
event is overwritten (flight-recorder semantics — the most recent
window survives) and ``dropped`` counts the overwritten events.  The
policy is deterministic: for a given event stream the buffer contents
and drop counter are a pure function of capacity, so trace-enabled runs
replay bit-identically across snapshot/restore and process boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List

from ..errors import ConfigError

__all__ = ["DEFAULT_CAPACITY", "EVENT_KINDS", "TraceBuffer", "TraceEvent"]

#: The three event kinds: point events and span boundaries.
EVENT_KINDS = ("event", "begin", "end")

#: Default ring capacity (events); ~a few MB of plain-data payloads.
DEFAULT_CAPACITY = 65_536


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record (plain, deepcopy-safe data)."""

    #: Simulated nanoseconds (``SimClock.now_ns`` at emission).
    ns: int
    #: Dotted site name, e.g. ``refresh.row`` or ``softtrr.tick``.
    site: str
    #: ``event`` (point), ``begin`` or ``end`` (span boundaries).
    kind: str = "event"
    #: Small JSON-serialisable payload (ints / strings only by
    #: convention — exporters rely on it).
    payload: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        """JSONL-ready shape."""
        return {"ns": self.ns, "site": self.site, "kind": self.kind,
                "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, raw: Dict[str, object]) -> "TraceEvent":
        """Inverse of :meth:`as_dict` (JSONL import); a malformed record
        raises ConfigError naming the bad field."""
        if not isinstance(raw, dict):
            raise ConfigError(
                f"a trace event must be an object, not {type(raw).__name__}")
        ns, site = raw.get("ns"), raw.get("site")
        kind, payload = raw.get("kind", "event"), raw.get("payload", {})
        for key, value, expected in (("ns", ns, int), ("site", site, str),
                                     ("kind", kind, str),
                                     ("payload", payload, dict)):
            # bool is an int subclass, but never a timestamp.
            if not isinstance(value, expected) or isinstance(value, bool):
                raise ConfigError(
                    f"trace event {key!r} must be a {expected.__name__}, "
                    f"not {value!r}")
        return cls(ns=ns, site=site, kind=kind, payload=dict(payload))


class TraceBuffer:
    """Bounded ring of :class:`TraceEvent`, overwrite-oldest on overflow."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ConfigError("trace buffer capacity must be positive")
        self.capacity = capacity
        #: Backing store; grows up to ``capacity`` then wraps at ``_head``.
        self._events: List[TraceEvent] = []
        self._head = 0
        #: Events overwritten by the ring (overflow policy accounting).
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        """Record one event, overwriting the oldest when full."""
        if len(self._events) < self.capacity:
            self._events.append(event)
            return
        self._events[self._head] = event
        self._head = (self._head + 1) % self.capacity
        self.dropped += 1

    def events(self) -> List[TraceEvent]:
        """The retained events, oldest first (a copy)."""
        return self._events[self._head:] + self._events[:self._head]

    def clear(self) -> None:
        """Empty the ring (the drop counter is reset too)."""
        self._events = []
        self._head = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events())
