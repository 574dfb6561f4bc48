"""Trace exporters and the protection-window timeline report.

Three output shapes from one recorded event stream:

* **JSONL** — one :class:`TraceEvent` dict per line; lossless, the
  interchange format between ``repro-trace record`` and the other
  subcommands.
* **Chrome ``trace_event``** — loadable in ``chrome://tracing`` /
  Perfetto: point events become instants (``ph: "i"``), span
  boundaries become ``B``/``E`` pairs, timestamps convert from
  simulated ns to the format's microseconds.
* **Timeline report** — the SoftTRR-specific analysis: group
  ``refresh.row`` events into protection windows and resolve, for each
  refreshed L1PT row, the arm→access→refresh chain that triggered it
  (``pte.arm`` → ``pte.disarm``/``tracer.capture`` → ``refresh.bump``
  → ``refresh.row``).  The chain resolution leans on the emission
  order being the synchronous call order — the tracer captures the
  access, then bumps the refresher, which refreshes — so a simple
  most-recent-first scan is exact, not heuristic.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

from ..errors import ConfigError
from .events import TraceEvent

__all__ = [
    "build_timeline",
    "events_to_chrome",
    "read_jsonl",
    "render_timeline",
    "write_chrome",
    "write_jsonl",
]


# ================================================================= JSONL
def write_jsonl(events: List[TraceEvent], path: str) -> int:
    """Write events one-per-line (atomic); returns the event count."""
    from ..cli_common import atomic_write_text

    text = "".join(
        json.dumps(event.as_dict(), sort_keys=True) + "\n"
        for event in events)
    atomic_write_text(path, text)
    return len(events)


def read_jsonl(path: str) -> List[TraceEvent]:
    """Inverse of :func:`write_jsonl` (blank lines ignored); a line that
    is not a trace event raises ConfigError naming the file and line."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(TraceEvent.from_dict(json.loads(line)))
            except (ConfigError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return events


# ========================================================== Chrome format
_PHASES = {"event": "i", "begin": "B", "end": "E"}


def events_to_chrome(events: List[TraceEvent]) -> Dict[str, object]:
    """The ``chrome://tracing`` JSON object for an event stream."""
    trace_events: List[Dict[str, object]] = []
    for event in events:
        record: Dict[str, object] = {
            "name": event.site,
            "ph": _PHASES.get(event.kind, "i"),
            # trace_event timestamps are microseconds.
            "ts": event.ns / 1000.0,
            "pid": 0,
            "tid": 0,
            "args": dict(event.payload),
        }
        if record["ph"] == "i":
            record["s"] = "g"
        trace_events.append(record)
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def write_chrome(events: List[TraceEvent], path: str) -> int:
    """Write the Chrome trace JSON (atomic); returns the event count."""
    from ..cli_common import atomic_write_text

    atomic_write_text(
        path,
        json.dumps(events_to_chrome(events), sort_keys=True) + "\n")
    return len(events)


# ======================================================= timeline report
def build_timeline(events: List[TraceEvent],
                   window_ns: int) -> Dict[str, object]:
    """Per-protection-window arm→access→refresh chains.

    Walks the stream once, tracking the latest ``pte.arm`` per PTE
    physical address and the latest ``tracer.capture``; each
    ``refresh.row`` is attributed to the capture that bumped it (the
    bump and refresh happen synchronously inside the captured fault,
    so "latest capture before the refresh" is the true cause).  A
    refresh with no preceding capture (the watchdog/compensate path)
    yields an incomplete chain.
    """
    if window_ns <= 0:
        raise ValueError("window_ns must be positive")
    arm_by_pte: Dict[int, TraceEvent] = {}
    last_capture: Optional[TraceEvent] = None
    chains: List[Dict[str, object]] = []
    sites: Dict[str, int] = {}
    for event in events:
        sites[event.site] = sites.get(event.site, 0) + 1
        if event.site == "pte.arm":
            arm_by_pte[int(event.payload["pte_paddr"])] = event
        elif event.site == "tracer.capture":
            last_capture = event
        elif event.site == "refresh.row":
            arm: Optional[TraceEvent] = None
            access = last_capture
            if access is not None:
                arm = arm_by_pte.get(int(access.payload["pte_paddr"]))
            chain: Dict[str, object] = {
                "bank": int(event.payload["bank"]),
                "row": int(event.payload["row"]),
                "refresh_ns": event.ns,
                "access_ns": access.ns if access is not None else None,
                "arm_ns": arm.ns if arm is not None else None,
                "complete": arm is not None and access is not None,
            }
            chains.append(chain)
    windows: Dict[int, List[Dict[str, object]]] = {}
    for chain in chains:
        windows.setdefault(chain["refresh_ns"] // window_ns, []).append(chain)
    return {
        "window_ns": window_ns,
        "sites": dict(sorted(sites.items())),
        "distinct_sites": len(sites),
        "refreshes": len(chains),
        "complete_chains": sum(1 for c in chains if c["complete"]),
        "windows": [
            {
                "index": index,
                "start_ns": index * window_ns,
                "end_ns": (index + 1) * window_ns,
                "rows": rows,
            }
            for index, rows in sorted(windows.items())
        ],
    }


def render_timeline(timeline: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`build_timeline` output."""
    lines = [
        f"protection window: {timeline['window_ns']} ns",
        f"distinct event sites: {timeline['distinct_sites']}",
        f"row refreshes: {timeline['refreshes']} "
        f"({timeline['complete_chains']} with full arm→access→refresh "
        "chains)",
    ]
    for window in timeline["windows"]:
        lines.append(
            f"window {window['index']} "
            f"[{window['start_ns']}..{window['end_ns']}) ns:")
        for row in window["rows"]:
            if row["complete"]:
                detail = (f"arm@{row['arm_ns']} → access@{row['access_ns']} "
                          f"→ refresh@{row['refresh_ns']}")
            else:
                detail = f"refresh@{row['refresh_ns']} (no captured access)"
            lines.append(
                f"  bank {row['bank']} row {row['row']}: {detail}")
    return "\n".join(lines)
