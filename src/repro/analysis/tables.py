"""Plain-text rendering of the reproduced tables and figure series.

Each renderer takes the :class:`~repro.scenarios.ScenarioResult` list
of one registry group's sweep and reads the cells' payloads; row labels
a payload lacks (a structurally blocked attack records only its
verdict) come from the cell's registered spec.  Shared by the
benchmark targets (which archive the output under ``results/``) and by
EXPERIMENTS.md.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Sequence

from ..config import machine
from ..workloads.ltp import LTP_STRESS_TESTS
from .breakdown import OverheadBreakdown
from .overhead import OverheadRow


def render_table(headers: Sequence[str], rows: Iterable[Sequence[str]],
                 title: str = "") -> str:
    """Minimal aligned ASCII table."""
    str_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    out = []
    if title:
        out.append(title)
        out.append("=" * len(title))
    out.append(line(headers))
    out.append(line(["-" * w for w in widths]))
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def _spec(result):
    """The registered spec a result's row labels come from."""
    from ..scenarios.registry import scenario

    return scenario(result.name)


def render_table2(results) -> str:
    """Table II: each attack on the vanilla system and under SoftTRR."""
    pairs: Dict[tuple, Dict[str, dict]] = {}
    for result in results:
        spec = _spec(result)
        pairs.setdefault((spec.machine, spec.attack), {})[spec.defense] = (
            result.payload)
    rows = []
    for (machine_name, attack), by_defense in pairs.items():
        hw = machine(machine_name)
        vanilla, defended = by_defense["vanilla"], by_defense["softtrr"]
        rows.append([
            hw.name, f"{hw.cpu_arch}/{hw.cpu_model}", hw.dram_part, attack,
            defended["m"], len(vanilla["flipped_pt_pages"]),
            len(defended["flipped_pt_pages"]),
            "yes" if defended["bit_flip_failed"] else "NO"])
    return render_table(
        ["Machine", "CPU", "DRAM", "Attack", "m",
         "flips (no defense)", "flips (SoftTRR)", "Bit Flip Failed?"],
        rows,
        title="Table II — SoftTRR vs the three kernel-privilege attacks",
    )


def overhead_rows(results) -> List[OverheadRow]:
    """Tables III/IV rows from overhead payloads, plus the suite Mean."""
    rows = [OverheadRow(**result.payload) for result in results]
    count = len(rows)
    rows.append(OverheadRow(
        name="Mean",
        vanilla_ns=sum(r.vanilla_ns for r in rows) // count,
        delta1_ns=sum(r.delta1_ns for r in rows) // count,
        delta6_ns=sum(r.delta6_ns for r in rows) // count,
        delta1_pct=sum(r.delta1_pct for r in rows) / count,
        delta6_pct=sum(r.delta6_pct for r in rows) / count,
    ))
    return rows


def render_overhead_table(results, title: str) -> str:
    """Tables III/IV: runtime overhead per program and on average."""
    return render_table(
        ["Program", "Delta+-1", "Delta+-6 (default)"],
        [[r.name, f"{r.delta1_pct:+.2f}%", f"{r.delta6_pct:+.2f}%"]
         for r in overhead_rows(results)],
        title=title,
    )


def render_table5(results) -> str:
    """Table V: LTP robustness, one row per stress test."""
    marks: Dict[str, Dict[object, str]] = {}
    for result in results:
        payload = result.payload
        marks.setdefault(payload["test"], {})[payload["distance"]] = (
            "pass" if payload["passed"] else "FAIL")
    return render_table(
        ["Category", "Syscall", "Vanilla", "Delta+-1", "Delta+-6"],
        [[LTP_STRESS_TESTS[test][0], test, cells[None], cells[1], cells[6]]
         for test, cells in marks.items()],
        title="Table V — system-call stress tests (LTP)",
    )


def render_matrix(results) -> str:
    """Baseline-defense comparison matrix."""
    rows = []
    for result in results:
        spec, payload = _spec(result), result.payload
        detail = payload["detail"] if "detail" in payload else (
            f"{len(payload['flipped_pt_pages'])}/{payload['m']} "
            "PTs flipped")
        rows.append([spec.defense, spec.attack, payload["verdict"], detail])
    return render_table(
        ["Defense", "Attack", "Verdict", "Detail"], rows,
        title="Baseline defenses vs page-table rowhammer attacks",
    )


def render_lamp_series(results, value: str, title: str,
                       unit_divisor: float = 1.0, unit: str = "") -> str:
    """Figure 4/5 data as a minute-by-minute table, one column per Δ."""
    payloads = sorted((r.payload for r in results),
                      key=lambda payload: payload["distance"])
    headers = ["minute"] + [f"D+-{p['distance']} {unit}".strip()
                            for p in payloads]
    rows = [
        [sample["minute"]] + [f"{p['series'][i][value] / unit_divisor:.1f}"
                              for p in payloads]
        for i, sample in enumerate(payloads[0]["series"])
    ]
    out = [render_table(headers, rows, title=title), ""]
    for p in payloads:
        summary = p["summary"]
        out.append(
            f"Delta+-{p['distance']}: "
            f"stable {summary['stable_memory_kib']:.0f} KiB, "
            f"peak {summary['peak_memory_kib']:.0f} KiB, "
            f"protected {summary['final_protected']}, "
            f"traced {summary['final_traced']} "
            f"(ring buffer {summary['ringbuf_kib']:.0f} KiB pre-allocated)")
    return "\n".join(out)


def render_breakdown(results) -> str:
    """DP3 overhead anatomy: shares of defense time per program."""
    rows = []
    for result in results:
        b = OverheadBreakdown(**result.payload)
        rows.append([b.workload, f"{b.defense_fraction * 100:.3f}%"] + [
            f"{b.share('softtrr_' + part) * 100:.0f}%"
            for part in ("trace_fault", "timer", "collector", "refresh")])
    return render_table(
        ["Workload", "Defense/runtime", "trace faults", "timer",
         "collector", "refresh"],
        rows,
        title="SoftTRR overhead anatomy (shares of defense time)",
    )


def save_result(name: str, text: str, results_dir: str = "results") -> str:
    """Archive a rendered table under results/ (for bench output)."""
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, name)
    with open(path, "w") as handle:
        handle.write(text + "\n")
    return path
