"""Seeded pattern fuzzer: a TRRespass-style blind-spot sweep.

Each :class:`FuzzPoint` is one parameter point of the hammer-pattern
space — aggressor count (1..N-sided), the aggressor offsets and their
replay ordering, and the inter-ACT gap — sampled purely from
``derive_rng("fuzz", seed, index)`` so a point is a function of
``(seed, index)`` alone: the fleet's ``fuzz`` cell runner regenerates
any point from its name, which is what makes a killed campaign
resumable.

A point renders to DSL source (:func:`pattern_source`) with ``victim``
/ ``rounds`` / ``acts`` left as unbound placeholders; the pattern cell
(:mod:`repro.patterns.scenario`) aims and budgets it per defense.  The
campaign sweeps every point against every requested defense — direct
DRAM rows for the feed trackers, the page-table (MMU) target for
SoftTRR — plus a few vanilla page-table probes so the SoftTRR gate is
never vacuously green.  :func:`summarise_campaign` folds the cells into
the blind-spot map and the CI gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..rng import derive_rng

__all__ = [
    "FUZZ_DEFENSES",
    "FuzzPoint",
    "fuzz_specs",
    "pattern_source",
    "point_spec",
    "run_fuzz_campaign",
    "sample_point",
    "sample_points",
    "sided_source",
    "summarise_campaign",
]

#: Default defense rows of a campaign (one per tracking strategy class:
#: no tracking, bounded slots, frequency table, software page-table TRR).
FUZZ_DEFENSES = ("vanilla", "chiptrr", "misra_gries", "softtrr")

#: Offsets a sampled aggressor may sit at (the zoo's many-sided span).
OFFSET_POOL = (-4, -3, -2, -1, 1, 2, 3, 4)

#: Inter-ACT gaps (ns) the fuzzer sweeps per round.
GAPS_NS = (0, 60, 240)

#: Replay orderings for the sampled offsets.
ORDERS = ("near_first", "far_first", "shuffled")

#: Vanilla page-table probes prepended to a campaign: evidence the pt
#: leg has teeth, so a flip-free SoftTRR row is meaningful.
PT_PROBE_POINTS = 2

#: Campaign-level defense params layered over the tiny-machine zoo
#: params.  Misra-Gries counts correctly at any distance but only heals
#: what it reaches, so its refresh distance is sized to the pool's
#: widest offset — the campaign gates its *counting* blind spots, not
#: its reach.
CAMPAIGN_DEFENSE_PARAMS: Dict[str, Dict[str, int]] = {
    "misra_gries": {"refresh_distance": max(abs(off)
                                            for off in OFFSET_POOL)},
}


@dataclass(frozen=True)
class FuzzPoint:
    """One sampled parameter point (post-ordering offsets baked in)."""

    index: int
    sides: int
    offsets: Tuple[int, ...]
    gap_ns: int
    order: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "sides": self.sides,
            "offsets": list(self.offsets),
            "gap_ns": self.gap_ns,
            "order": self.order,
        }


def sample_point(seed: int, index: int,
                 max_sides: int = len(OFFSET_POOL),
                 pool: Sequence[int] = OFFSET_POOL,
                 gaps: Sequence[int] = GAPS_NS) -> FuzzPoint:
    """The ``index``-th point of the ``seed`` campaign — pure in both.

    Every point keeps one adjacent aggressor (offset -1) so disturbance
    is physically possible; the remaining sides are drawn from ``pool``
    without replacement, then ordered.
    """
    if max_sides < 1:
        raise ConfigError("max_sides must be >= 1")
    max_sides = min(max_sides, len(pool))
    rng = derive_rng("fuzz", seed, index)
    sides = 1 + rng.randrange(max_sides)
    rest = [off for off in pool if off != -1]
    offsets = [-1] + rng.sample(rest, sides - 1)
    order = ORDERS[rng.randrange(len(ORDERS))]
    if order == "near_first":
        offsets.sort(key=lambda off: (abs(off), off))
    elif order == "far_first":
        offsets.sort(key=lambda off: (-abs(off), off))
    else:
        rng.shuffle(offsets)
    gap_ns = gaps[rng.randrange(len(gaps))]
    return FuzzPoint(index=index, sides=sides, offsets=tuple(offsets),
                     gap_ns=gap_ns, order=order)


def sample_points(seed: int, count: int,
                  max_sides: int = len(OFFSET_POOL),
                  pool: Sequence[int] = OFFSET_POOL,
                  gaps: Sequence[int] = GAPS_NS) -> List[FuzzPoint]:
    """``count`` points of the ``seed`` campaign, by index."""
    return [sample_point(seed, index, max_sides, pool, gaps)
            for index in range(count)]


def _offset_term(off: int) -> str:
    return f"victim {'+' if off >= 0 else '-'} {abs(off)}"


def _render(name: str, offsets: Sequence[int], gap_ns: int) -> str:
    """Victim-relative DSL source with budget placeholders unbound."""
    lines = [f"pattern {name}(victim, rounds, acts)", "  repeat rounds"]
    for off in offsets:
        lines.append(f"    act 0, {_offset_term(off)}, acts")
    if gap_ns:
        lines.append(f"    wait {gap_ns}")
    lines.append("    sync")
    lines.append("  end")
    lines.append("end")
    return "\n".join(lines) + "\n"


def pattern_source(point: FuzzPoint) -> str:
    """The point as hammer-pattern DSL source."""
    return _render(f"fuzz_{point.index}", point.offsets, point.gap_ns)


def sided_source(sides: int, gap_ns: int = 0) -> str:
    """Canned n-sided DSL source (alternating -1, +1, -2, +2, ...)."""
    from .program import _sided_offsets

    return _render(f"sided_{sides}", _sided_offsets(sides), gap_ns)


def _target_for(defense: str) -> str:
    """SoftTRR only sees MMU-path accesses, so it gets the page-table
    leg; every feed tracker watches direct row activations."""
    return "pt" if defense == "softtrr" else "rows"


def point_spec(point: FuzzPoint, defense: str, seed: int,
               target: Optional[str] = None,
               defense_params: Optional[Mapping] = None,
               machine_name: str = "tiny"):
    """One campaign cell as a ``kind="pattern"`` ScenarioSpec."""
    from ..scenarios.spec import ScenarioSpec

    target = target or _target_for(defense)
    defense_params = {**CAMPAIGN_DEFENSE_PARAMS.get(defense, {}),
                      **(defense_params or {})}
    suffix = "-pt" if (target == "pt" and defense != "softtrr") else ""
    return ScenarioSpec(
        name=f"fuzz-{defense}{suffix}-point-{point.index}",
        kind="pattern",
        group="fuzz",
        title=(f"Fuzz point {point.index}: {point.sides}-sided "
               f"{point.order} gap={point.gap_ns}ns vs {defense} "
               f"({target})"),
        machine=machine_name,
        defense=defense,
        defense_params=defense_params,
        pattern=pattern_source(point),
        params={"target": target, "seed": seed,
                "point": point.to_dict()},
    )


def fuzz_specs(defenses: Sequence[str] = FUZZ_DEFENSES,
               points: Optional[Sequence[FuzzPoint]] = None,
               seed: int = 11,
               count: int = 200,
               max_sides: int = len(OFFSET_POOL),
               machine_name: str = "tiny") -> List["ScenarioSpec"]:
    """The campaign grid: every point vs every defense, plus the
    vanilla page-table probes (non-vacuity evidence for SoftTRR)."""
    from ..defenses import DEFENSES
    from ..machine import check_machine

    check_machine(machine_name)
    for defense in defenses:
        if defense not in DEFENSES:
            raise ConfigError(
                f"unknown defense {defense!r}; known: {sorted(DEFENSES)}")
    if points is None:
        points = sample_points(seed, count, max_sides)
    specs = []
    if "softtrr" in defenses:
        for point in points[:PT_PROBE_POINTS]:
            specs.append(point_spec(point, "vanilla", seed, target="pt",
                                    machine_name=machine_name))
    for defense in defenses:
        for point in points:
            specs.append(point_spec(point, defense, seed,
                                    machine_name=machine_name))
    return specs


def run_fuzz_campaign(defenses: Sequence[str] = FUZZ_DEFENSES,
                      seed: int = 11,
                      count: int = 200,
                      max_sides: int = len(OFFSET_POOL),
                      workers: int = 1,
                      machine_name: str = "tiny"):
    """Run the campaign through the scenario sweep (guarded cells)."""
    from ..scenarios.runner import run_sweep

    return run_sweep(
        fuzz_specs(defenses, seed=seed, count=count, max_sides=max_sides,
                   machine_name=machine_name),
        workers=workers)


def _row_key(result) -> Tuple[str, str]:
    """(defense row label, target) from a campaign cell."""
    payload = result.payload
    if "error" in payload:
        # fuzz-<defense>[-pt]-point-<i>
        body = result.name[len("fuzz-"):result.name.rindex("-point-")]
        if body.endswith("-pt"):
            return body, "pt"
        return body, _target_for(body)
    label = payload["defense"]
    if payload["target"] == "pt" and label != "softtrr":
        label = f"{label}-pt"
    return label, payload["target"]


def summarise_campaign(results, points: Sequence[FuzzPoint]) -> dict:
    """Blind-spot map + the CI gates, folded from the campaign cells.

    The map lists, per defense row, every parameter point that flipped
    (the defense's blind spots); the gates are the ``--check``
    contract: vanilla must flip (teeth), some many-sided (>= 3 aggressor)
    point must evade chiptrr, misra_gries must stay clean across the
    pool, and SoftTRR's page-table leg must stay flip-free while the
    vanilla pt probes prove that leg can flip at all.
    """
    by_point = {point.index: point for point in points}
    rows: Dict[str, dict] = {}
    for result in results:
        label, target = _row_key(result)
        row = rows.setdefault(label, {
            "target": target,
            "cells": 0,
            "errors": 0,
            "flip_points": [],
        })
        row["cells"] += 1
        payload = result.payload
        if "error" in payload:
            row["errors"] += 1
            continue
        if payload["flip_events"] > 0:
            point = payload.get("point") or {}
            index = int(result.name.rsplit("-", 1)[1])
            sampled = by_point.get(index)
            row["flip_points"].append({
                "point": index,
                "sides": sampled.sides if sampled else point.get("sides"),
                "offsets": (list(sampled.offsets) if sampled
                            else point.get("offsets")),
                "gap_ns": (sampled.gap_ns if sampled
                           else point.get("gap_ns")),
                "order": sampled.order if sampled else point.get("order"),
                "flip_events": payload["flip_events"],
            })
    for row in rows.values():
        row["flip_points"].sort(key=lambda entry: entry["point"])
        row["flip_rate"] = (len(row["flip_points"]) / row["cells"]
                            if row["cells"] else 0.0)
    vanilla = rows.get("vanilla")
    chiptrr = rows.get("chiptrr")
    misra = rows.get("misra_gries")
    softtrr = rows.get("softtrr")
    probes = rows.get("vanilla-pt")
    # Gates only apply to defense rows the campaign actually swept.
    gates: Dict[str, bool] = {}
    if vanilla is not None:
        gates["vanilla_flips"] = bool(vanilla["flip_points"])
    if chiptrr is not None:
        gates["chiptrr_evaded_many_sided"] = any(
            entry["sides"] and entry["sides"] >= 3
            for entry in chiptrr["flip_points"])
    if misra is not None:
        gates["misra_gries_clean"] = (
            not misra["flip_points"] and not misra["errors"])
    if softtrr is not None:
        gates["softtrr_pt_clean"] = (
            not softtrr["flip_points"] and not softtrr["errors"])
        gates["pt_leg_has_teeth"] = bool(probes and probes["flip_points"])
    return {"rows": rows, "gates": gates}
