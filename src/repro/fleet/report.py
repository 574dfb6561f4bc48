"""Aggregate fleet report: one canonical JSON digest per result dir.

The report is a pure function of the manifest and the completed-cell
records — records carry no wall-clock data and the aggregation walks
cells in manifest order — so an interrupted-then-resumed fleet renders
a report byte-identical to an uninterrupted run's (the fleet's
determinism bar, enforced by ``tests/fleet``).

Four sections:

* ``fleet`` — totals: completed/ok/quarantined/missing cells and the
  attempts histogram (how hard the retry policy had to work);
* ``defenses`` — per-defense flip rates, protection rate, refresh
  overhead (actuator refreshes per activation) and protection-window
  coverage/erosion, from whichever payload fields each cell reports;
* ``span_percentiles`` — p50/p99 tick cost per span name, from the
  merged fixed-bucket span histograms (upper-bucket-edge estimates;
  ``null`` when the quantile lands in the overflow bucket);
* ``failures`` — the quarantine ledger: every cell that exhausted its
  retry budget, with its structured error.

Campaign gates live in :func:`fleet_status`, not in the report: each
scenario group in :data:`GROUP_GATES` (``zoo``, ``chaos``) is summarised
over its ok records into pass/fail gates that ``repro-fleet status
--check`` enforces, plus an ``all_cells_ok`` gate that fails while any
member cell is quarantined or missing.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from .checkpoint import ResultDir

__all__ = [
    "GROUP_GATES",
    "build_report",
    "fleet_status",
    "group_gates",
    "render_report",
    "summarise_chaos",
    "summarise_zoo",
]

#: Payload keys that count as "bit flips observed", in priority order
#: (different cell kinds report different flip metrics).
_FLIP_KEYS = ("flip_events", "l1pt_flip_events", "flip_events_in_pts")


def _flips_of(payload: Mapping) -> Optional[int]:
    for key in _FLIP_KEYS:
        value = payload.get(key)
        if isinstance(value, int):
            return value
    return None


def _protected_of(payload: Mapping) -> Optional[bool]:
    value = payload.get("protected")
    if isinstance(value, bool):
        return value
    verdict = payload.get("verdict")
    if isinstance(verdict, str):
        return verdict == "blocked"
    return None


def _defense_of(record: Mapping) -> str:
    payload = record.get("payload") or {}
    defense = payload.get("defense") or record.get("defense")
    return defense if isinstance(defense, str) else "unknown"


def _merge_histogram(target: Dict[str, object],
                     histogram: Mapping) -> bool:
    """Accumulate one span histogram; False on boundary mismatch."""
    boundaries = list(histogram.get("boundaries") or ())
    counts = list(histogram.get("counts") or ())
    if not boundaries or len(counts) != len(boundaries) + 1:
        return False
    if not target:
        target["boundaries"] = boundaries
        target["counts"] = [0] * len(counts)
        target["total"] = 0
        target["sum"] = 0
    elif target["boundaries"] != boundaries:
        return False
    target["counts"] = [a + b for a, b in zip(target["counts"], counts)]
    target["total"] = int(target["total"]) + int(histogram.get("total", 0))
    target["sum"] = int(target["sum"]) + int(histogram.get("sum", 0))
    return True


def _percentile_ns(boundaries: List[int], counts: List[int],
                   total: int, quantile: float) -> Optional[int]:
    """Upper-bucket-edge quantile estimate (None in overflow bucket)."""
    if total <= 0:
        return None
    need = quantile * total
    cumulative = 0
    for edge, count in zip(boundaries, counts):
        cumulative += count
        if cumulative >= need:
            return edge
    return None


def _tally_defense(defenses: Dict[str, dict], record: Mapping) -> None:
    """Fold one ok record into the per-defense table."""
    payload = record.get("payload") or {}
    entry = defenses.setdefault(_defense_of(record), {
        "cells": 0,
        "flip_cells": 0,
        "flip_events": 0,
        "flip_metric_cells": 0,
        "protected_cells": 0,
        "protection_metric_cells": 0,
        "refreshes": 0,
        "activations": 0,
        "windows": 0,
        "erosion_ns": 0,
    })
    entry["cells"] += 1
    flips = _flips_of(payload)
    if flips is not None:
        entry["flip_metric_cells"] += 1
        entry["flip_events"] += flips
        entry["flip_cells"] += int(flips > 0)
    protected = _protected_of(payload)
    if protected is not None:
        entry["protection_metric_cells"] += 1
        entry["protected_cells"] += int(protected)
    for key in ("refreshes", "activations", "windows", "erosion_ns"):
        value = payload.get(key)
        if isinstance(value, int):
            entry[key] += value


def _finish_defenses(defenses: Dict[str, dict]) -> None:
    """Derive each per-defense entry's rates from its totals."""
    for entry in defenses.values():
        entry["flip_rate"] = (
            entry["flip_cells"] / entry["flip_metric_cells"]
            if entry["flip_metric_cells"] else None)
        entry["protection_rate"] = (
            entry["protected_cells"] / entry["protection_metric_cells"]
            if entry["protection_metric_cells"] else None)
        entry["refresh_overhead"] = (
            entry["refreshes"] / entry["activations"]
            if entry["activations"] else None)
        entry["erosion_per_window_ns"] = (
            entry["erosion_ns"] / entry["windows"]
            if entry["windows"] else None)


def build_report(result_dir: ResultDir) -> dict:
    """The aggregate report dict (canonical, JSON-stable)."""
    manifest = result_dir.load_manifest()
    records = result_dir.load_records()
    cells = manifest["cells"]

    attempts_histogram: Dict[str, int] = {}
    defenses: Dict[str, dict] = {}
    span_accumulators: Dict[str, Dict[str, object]] = {}
    span_skipped = 0
    failures: List[dict] = []
    missing: List[str] = []
    ok_cells = 0
    quarantined = 0

    for cell in cells:
        record = records.get(cell["cell_id"])
        if record is None:
            missing.append(cell["cell_id"])
            continue
        attempts = str(record.get("attempts", 1))
        attempts_histogram[attempts] = (
            attempts_histogram.get(attempts, 0) + 1)
        if record.get("status") == "quarantined":
            quarantined += 1
            failures.append({
                "cell_id": cell["cell_id"],
                "index": cell["index"],
                "scenario": cell["scenario"],
                "seed": cell["seed"],
                "defense": cell["defense"],
                "attempts": record.get("attempts"),
                "error": record.get("error"),
            })
            continue
        ok_cells += 1
        _tally_defense(defenses, record)
        payload = record.get("payload") or {}
        histograms = payload.get("span_histograms") or {}
        if isinstance(histograms, Mapping):
            for name in sorted(histograms):
                target = span_accumulators.setdefault(name, {})
                if not _merge_histogram(target, histograms[name]):
                    span_skipped += 1

    _finish_defenses(defenses)

    span_percentiles: Dict[str, dict] = {}
    for name, accumulator in sorted(span_accumulators.items()):
        if not accumulator:
            continue
        boundaries = accumulator["boundaries"]
        counts = accumulator["counts"]
        total = int(accumulator["total"])
        span_percentiles[name] = {
            "count": total,
            "sum_ns": int(accumulator["sum"]),
            "p50_ns": _percentile_ns(boundaries, counts, total, 0.50),
            "p99_ns": _percentile_ns(boundaries, counts, total, 0.99),
        }

    return {
        "spec": manifest["spec"],
        "fleet": {
            "cells": len(cells),
            "completed": ok_cells + quarantined,
            "ok": ok_cells,
            "quarantined": quarantined,
            "missing": len(missing),
            "missing_cell_ids": missing,
            "attempts_histogram": attempts_histogram,
        },
        "defenses": defenses,
        "span_percentiles": span_percentiles,
        "span_histograms_skipped": span_skipped,
        "failures": failures,
    }


def fleet_status(result_dir: ResultDir) -> dict:
    """Progress + integrity digest for ``repro-fleet status``.

    Unlike the report this includes resume-dependent forensics (torn
    lines, duplicate records, per-shard progress) — it describes *this
    result dir*, not the experiment, so it is not byte-stable across
    kill/resume.
    """
    manifest = result_dir.load_manifest()
    scan = result_dir.scan()
    records = scan["records"]
    cells = manifest["cells"]
    per_shard: Dict[str, Dict[str, int]] = {}
    ok_cells = 0
    quarantined = 0
    for cell in cells:
        shard = f"{cell['shard']:03d}"
        entry = per_shard.setdefault(shard, {"cells": 0, "done": 0})
        entry["cells"] += 1
        record = records.get(cell["cell_id"])
        if record is None:
            continue
        entry["done"] += 1
        if record.get("status") == "quarantined":
            quarantined += 1
        else:
            ok_cells += 1
    remaining = len(cells) - ok_cells - quarantined
    return {
        "cells": len(cells),
        "ok": ok_cells,
        "quarantined": quarantined,
        "remaining": remaining,
        "complete": remaining == 0,
        "torn_lines": scan["torn_lines"],
        "duplicate_records": scan["duplicates"],
        "shards": per_shard,
        "runner": manifest["spec"]["runner"],
        "groups": group_gates(manifest, records),
    }


# ------------------------------------------------------------ group gates
def summarise_zoo(records: Sequence[Mapping]) -> dict:
    """Zoo gates over the report's per-defense table, plus SRAM bits.

    Vanilla must flip somewhere (the bench has teeth), every feed
    tracker must actuate (the feed is live), and some tracker must
    protect more cells than vanilla.  SoftTRR is not a feed tracker,
    so neither tracker gate covers it.
    """
    defenses: Dict[str, dict] = {}
    sram_bits: Dict[str, int] = {}
    for record in records:
        _tally_defense(defenses, record)
        name = _defense_of(record)
        sram_bits[name] = max(sram_bits.get(name, 0),
                              record["payload"].get("sram_bits", 0))
    _finish_defenses(defenses)
    vanilla = defenses.get("vanilla")
    trackers = [entry for name, entry in defenses.items()
                if name not in ("vanilla", "softtrr")]
    return {
        "gates": {
            "vanilla_flips_somewhere": bool(vanilla) and (
                vanilla["protected_cells"] < vanilla["cells"]),
            "all_trackers_actuate": bool(trackers) and all(
                entry["refreshes"] > 0 for entry in trackers),
            "some_tracker_beats_vanilla": bool(vanilla) and any(
                entry["protected_cells"] > vanilla["protected_cells"]
                for entry in trackers),
        },
        "summary": {
            name: {"cells": entry["cells"],
                   "protection_rate": entry["protection_rate"],
                   "refresh_overhead": entry["refresh_overhead"],
                   "sram_bits": sram_bits[name]}
            for name, entry in defenses.items()},
    }


def summarise_chaos(records: Sequence[Mapping]) -> dict:
    """Chaos gates over the per-site healed/raw table.

    Healing on must keep every L1PT clean, and some raw cell must show
    protection-window erosion (otherwise the injection is dead).
    """
    sites: Dict[str, dict] = {}
    for record in records:
        payload = record["payload"]
        entry = sites.setdefault(payload["site"], dict.fromkeys((
            "healed_l1pt_flip_events", "raw_l1pt_flip_events",
            "healed_erosion_ns", "raw_erosion_ns"), 0))
        column = "healed" if payload["healing"] else "raw"
        entry[f"{column}_l1pt_flip_events"] += payload["l1pt_flip_events"]
        entry[f"{column}_erosion_ns"] += payload["erosion_ns"]
    return {
        "gates": {
            "healed_clean": all(entry["healed_l1pt_flip_events"] == 0
                                for entry in sites.values()),
            "raw_erosion_seen": any(entry["raw_erosion_ns"] > 0
                                    for entry in sites.values()),
        },
        "summary": sites,
    }


#: Scenario group -> summariser of the group's ok records into
#: ``{"gates": {name: passed}, "summary": {row: {column: value}}}``.
GROUP_GATES = {"chaos": summarise_chaos, "zoo": summarise_zoo}


def group_gates(manifest: Mapping, records: Mapping[str, dict]
                ) -> Dict[str, dict]:
    """Every fleet group's digest over its member cells.

    Scenario cells group by registry group (a :data:`GROUP_GATES`
    group adds its own gates and table); window and fuzz cells form one
    group named after the runner.  Each group's gates see only its ok
    records, so each group also gets an ``all_cells_ok`` gate: a member
    cell that was quarantined or has no record yet fails the group
    instead of dropping out of its gates.  Synthetic fleets have no
    groups: a quarantined synthetic cell is an injected poison cell,
    accounted for by design.
    """
    runner = manifest["spec"]["runner"]
    if runner == "synthetic":
        return {}
    from ..scenarios.registry import scenario

    members: Dict[str, List[Optional[Mapping]]] = {}
    for cell in manifest["cells"]:
        group = (scenario(cell["scenario"]).group if runner == "scenario"
                 else runner)
        members.setdefault(group, []).append(records.get(cell["cell_id"]))
    digests: Dict[str, dict] = {}
    for group, member_records in sorted(members.items()):
        ok = [record for record in member_records
              if record is not None and record.get("status") == "ok"]
        digest = (GROUP_GATES[group](ok) if group in GROUP_GATES
                  else {"gates": {}, "summary": {}})
        digest["gates"] = {"all_cells_ok": len(ok) == len(member_records),
                           **digest["gates"]}
        digests[group] = digest
    return digests


def render_report(report: Mapping) -> str:
    """Human-readable rendering of :func:`build_report` output."""
    fleet = report["fleet"]
    lines = [
        f"fleet: {fleet['ok']}/{fleet['cells']} cells ok, "
        f"{fleet['quarantined']} quarantined, "
        f"{fleet['missing']} missing",
        f"attempts histogram: {fleet['attempts_histogram']}",
    ]
    for defense, entry in sorted(report["defenses"].items()):
        rate = entry["protection_rate"]
        overhead = entry["refresh_overhead"]
        lines.append(
            f"  {defense:14s} cells={entry['cells']:4d} "
            f"flips={entry['flip_events']:6d} "
            f"protection={'n/a' if rate is None else f'{rate:.2f}'} "
            f"refresh_overhead="
            f"{'n/a' if overhead is None else f'{overhead:.4f}'} "
            f"windows={entry['windows']}")
    for name, entry in sorted(report["span_percentiles"].items()):
        lines.append(
            f"  span {name}: count={entry['count']} "
            f"p50<={entry['p50_ns']} ns p99<={entry['p99_ns']} ns")
    for failure in report["failures"]:
        error = failure["error"] or {}
        lines.append(
            f"  QUARANTINED {failure['cell_id']} "
            f"({failure['scenario']}, seed={failure['seed']}): "
            f"{error.get('type')}: {error.get('message')}")
    return "\n".join(lines)
