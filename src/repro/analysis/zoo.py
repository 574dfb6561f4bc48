"""Defense-zoo cells: trackers head-to-head on one machine.

The layered tracker architecture makes defenses comparable: every
tracker rides the same :class:`~repro.dram.feed.ActivationFeed` and
heals through the same :class:`~repro.dram.feed.RefreshActuator`, so
one sweep can score them all on three axes at once:

* **protection** — did any :class:`FlipEvent` land (pattern leg), and
  did the memory-spray attack corrupt an L1PT (spray leg)?
* **refresh overhead** — actuator refreshes per DRAM activation (the
  shared actuator counts SoftTRR's refresher too, so the software
  defense lands on the same axis as the silicon trackers);
* **SRAM budget** — bits of tracker state per bank
  (:meth:`~repro.dram.feed.Tracker.sram_bits`; zero for the stateless
  PARA and for SoftTRR, whose state is kernel memory, not SRAM).

Two legs per defense:

* **pattern** — direct 1-sided / 2-sided / 8-sided hammering of one
  victim, the cheapest vulnerable cell four rows from either bank edge,
  at the pattern cells' budget (:mod:`repro.patterns.scenario`).  The
  8-sided column is ChipTRR's TRRespass blind spot (more aggressors
  than tracker slots) and DAPPER's budget cliff (more crossings than
  the per-epoch mitigation budget).
* **spray** — the smoke-scale memory-spray attack (page-table centric,
  SoftTRR's home turf, mirroring the chaos harness minus the faults).

The sweep grid is the registry's ``zoo`` group (:func:`zoo_specs`),
run as ``repro-fleet run --group zoo``.  ``repro-fleet status --check``
gates it (:mod:`repro.fleet.report`): vanilla must flip somewhere (the
bench has teeth), every tracker must actuate somewhere (the feed is
live) and at least one tracker must fully protect a cell vanilla loses.

:func:`build_machine` (the sanitized cell machine: strict sanitizers
unless a fault plan is installed) and the legs are shared with the
chaos, pattern and window cells and with ``repro-trace record``.
:func:`rows_leg` is the one victim-relative rows hammer leg: zoo and
window cells aim it through :func:`hammer_leg`, pattern ``rows`` cells
directly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import AttackError, ConfigError
from ..faults import FaultPlan
from ..machine import Machine, MachineConfig
from ..scenarios.spec import ScenarioSpec

__all__ = [
    "PATTERNS",
    "SPRAY_KNOBS",
    "TINY_DEFENSE_PARAMS",
    "ZOO_DEFENSES",
    "build_machine",
    "cheapest_victim",
    "hammer_leg",
    "l1pt_flips_since",
    "rows_leg",
    "run_zoo_cell",
    "run_zoo_scenario",
    "spray_leg",
    "tracker_metrics",
    "zoo_specs",
]

#: Sweep columns: aggressors per pattern leg cell.
PATTERNS = ("one_sided", "double_sided", "many_sided")

#: Sweep rows, in report order.
ZOO_DEFENSES = ("vanilla", "chiptrr", "softtrr", "para", "misra_gries",
                "ptmp", "dapper")

#: Defense parameters scaled to the tiny machine (flip thresholds start
#: at 2k weighted ACTs there, so trackers must trigger well below that).
TINY_DEFENSE_PARAMS: Dict[str, Dict] = {
    "vanilla": {},
    "softtrr": {"timer_inr_ns": 50_000},
    "chiptrr": {"tracker_slots": 2, "trr_threshold": 400,
                "refresh_distance": 6},
    "para": {"probability": 0.05, "refresh_distance": 1},
    "misra_gries": {"table_entries": 8, "threshold": 400,
                    "refresh_distance": 2},
    "ptmp": {"table_entries": 4, "threshold": 400,
             "insert_probability": 0.25, "refresh_distance": 2},
    "dapper": {"table_entries": 8, "threshold": 400,
               "mitigation_budget": 4, "refresh_distance": 2},
}

#: Aggressor offsets from the victim row, per pattern.  ``many_sided``
#: cycles eight rows — wider than ChipTRR's two slots.
_PATTERN_OFFSETS = {
    "one_sided": (-1,),
    "double_sided": (-1, 1),
    "many_sided": (-4, -3, -2, -1, 1, 2, 3, 4),
}

#: Bank-edge slack that fits the widest pattern around any victim.
_MARGIN = max(abs(off) for offsets in _PATTERN_OFFSETS.values()
              for off in offsets)

#: Smoke-scale memory-spray knobs: the spray leg's defaults, and the
#: registry's ``smoke`` and ``baselines`` attack params.
SPRAY_KNOBS = {"m": 1, "region_pages": 224, "template_rounds": 3_000,
               "hammer_ns": 4_000_000}


def build_machine(defense: str, defense_params: Optional[Mapping] = None,
                  machine_name: str = "tiny", seed: Optional[int] = None,
                  fault_plan: Optional[Mapping] = None,
                  trace: str = "off") -> Machine:
    """A cell machine under sanitizers, with the defense scaled to the
    tiny machine (:data:`TINY_DEFENSE_PARAMS`, then ``defense_params``)
    when ``machine_name`` is ``"tiny"``.

    The sanitizers are strict, so a broken invariant fails the cell,
    unless a non-empty ``fault_plan`` is installed: a fault breaks
    invariants by design (a lost invlpg leaves a stale TLB entry), so
    a faulted cell runs them in report mode for the caller to count.
    """
    params: Dict[str, object] = dict(
        TINY_DEFENSE_PARAMS.get(defense, {}) if machine_name == "tiny"
        else {})
    params.update(defense_params or {})
    plan = None if fault_plan is None else FaultPlan.coerce(fault_plan)
    return Machine(MachineConfig(
        machine=machine_name,
        defense=defense,
        defense_params=params,
        sanitizers="report" if plan else "strict",
        seed=seed,
        fault_plan=plan,
        trace=trace,
    ))


def cheapest_victim(machine: Machine,
                    margin: int = _MARGIN) -> Tuple[int, int, float]:
    """(bank, row, threshold) of the cheapest vulnerable cell at least
    ``margin`` rows from either bank edge.

    The default margin fits the widest zoo pattern, so every pattern
    leg hammers the same victim.
    """
    dram = machine.dram
    best = None
    for bank in range(dram.geometry.num_banks):
        for row in range(margin, dram.geometry.rows_per_bank - margin):
            cells = dram.engine.vulnerable_cells(bank, row)
            if cells and (best is None or cells[0].threshold < best[2]):
                best = (bank, row, cells[0].threshold)
    if best is None:
        raise ConfigError("machine seed produced no vulnerable rows")
    return best


def tracker_metrics(machine: Machine) -> Dict[str, object]:
    """Activations, refresh overhead, SRAM bits and tracker counters."""
    dram = machine.dram
    flat = machine.telemetry.as_flat_dict()
    activations = dram.total_activations
    refreshes = dram.actuator.refreshes
    return {
        "activations": activations,
        "refreshes": refreshes,
        "refresh_overhead": (refreshes / activations if activations else 0.0),
        "sram_bits": sum(t.sram_bits() for t in dram.feed.trackers()),
        "tracker_counters": {
            key: value for key, value in flat.items()
            if key.startswith("tracker.")},
    }


def l1pt_flips_since(kernel, extra_ppns, start_ns: int) -> int:
    """FlipEvents at or after ``start_ns`` in the kernel's L1PT frames
    plus ``extra_ppns`` (the frames an attack aimed at)."""
    frames = set(kernel.l1pt_frames()) | set(extra_ppns)
    return sum(
        1
        for ppn in sorted(frames)
        for flip in kernel.dram.flips_in_page(ppn)
        if flip.at_ns >= start_ns)


def hammer_leg(machine: Machine, pattern: str) -> Dict[str, object]:
    """Hammer with zoo ``pattern`` through :func:`rows_leg` at margin
    :data:`_MARGIN`, so the three zoo patterns share one victim."""
    from ..patterns.fuzz import _render
    from ..patterns.parser import parse_pattern

    offsets = _PATTERN_OFFSETS[pattern]
    # ``acts`` stays unbound, so the leg fills it from the budget.
    pat = parse_pattern(_render(f"sided_{len(offsets)}", offsets, 0))
    (bank, victim, threshold), plan, outcome = rows_leg(
        machine, pat, offsets, _MARGIN)
    flips = outcome.flip_events
    return {
        "victim": [bank, victim],
        "victim_threshold": threshold,
        "aggressors": len(offsets),
        "acts_per_aggressor": plan.total_acts // len(offsets),
        "flip_events": flips,
        "protected": flips == 0,
    }


def rows_leg(machine: Machine, pat, offsets: Sequence[int], margin: int,
             bindings: Optional[Mapping] = None):
    """Aim victim-relative ``pat`` (act rows ``offsets`` at victim 0)
    at the cheapest vulnerable cell ``margin`` rows from either bank
    edge, fill unbound ``rounds``/``acts`` from the budget
    (:mod:`repro.patterns.scenario`) and run it as one rows-mode
    :class:`~repro.patterns.program.AttackProgram`, which dispatches
    kernel timers after every round.  Returns ``((bank, row,
    threshold), plan, outcome)``."""
    from ..patterns.compile import compile_pattern
    from ..patterns.program import AttackProgram
    from ..patterns.scenario import _budget_bindings

    bank, victim, threshold = cheapest_victim(machine, margin)
    final = _budget_bindings(pat, {**(bindings or {}), "victim": 0},
                             threshold)
    plan = compile_pattern(pat, final).remap_targets(
        {(0, off): (bank, victim + off) for off in offsets})
    outcome = AttackProgram(plan, mode="rows").run(machine.kernel)
    return (bank, victim, threshold), plan, outcome


def spray_leg(machine: Machine,
              knobs: Mapping = SPRAY_KNOBS) -> Dict[str, object]:
    """The memory-spray attack on ``machine``, scored on its L1PTs: the
    verdict, the flip count and the attack's outcome fields (``detail``
    instead when the attack is blocked before hammering)."""
    from ..attacks.memory_spray import MemorySprayAttack

    kernel = machine.kernel
    try:
        attack = MemorySprayAttack(
            kernel, m=knobs["m"], region_pages=knobs["region_pages"],
            template_rounds=knobs["template_rounds"])
        attack.setup()
        # Templating flips the attacker's own user pages before any of
        # them is recycled into an L1PT; only flips after hammering
        # starts can be protection failures.
        hammer_start = kernel.clock.now_ns
        outcome = attack.run(hammer_ns_per_victim=knobs["hammer_ns"])
    except AttackError as exc:
        # A tracker that suppresses templating (no flips to template
        # with) blocks the attack before it ever aims at a page table.
        return {"verdict": "blocked", "detail": str(exc)[:60],
                "l1pt_flip_events": 0, "hammer_time_ns": 0}
    targeted = sorted(outcome.targeted_pt_pages)
    return {
        "verdict": "bypassed" if outcome.succeeded else "blocked",
        "targeted_pt_pages": targeted,
        "flipped_pt_pages": sorted(outcome.flipped_pt_pages),
        "l1pt_flip_events": l1pt_flips_since(kernel, targeted, hammer_start),
        "hammer_time_ns": outcome.hammer_time_ns,
    }


def run_zoo_cell(
    defense: str,
    pattern: str,
    seed: int = 11,
    machine_name: str = "tiny",
    defense_params: Optional[Mapping] = None,
    attack_params: Optional[Mapping] = None,
    fault_plan: Optional[Mapping] = None,
) -> dict:
    """One zoo cell; deterministic in all arguments.

    ``pattern`` is one of :data:`PATTERNS` (direct hammer leg) or
    ``"spray"`` (memory-spray attack leg).  ``seed`` is recorded in
    the payload only: the machine keeps its profile's default seed.
    """
    if pattern != "spray" and pattern not in _PATTERN_OFFSETS:
        raise ConfigError(
            f"unknown zoo pattern {pattern!r}; known: "
            f"{PATTERNS + ('spray',)}")
    machine = build_machine(defense, defense_params, machine_name,
                            fault_plan=fault_plan)
    payload: Dict[str, object] = {
        "defense": defense,
        "pattern": pattern,
        "seed": seed,
    }
    if pattern == "spray":
        leg = spray_leg(machine, {**SPRAY_KNOBS, **(attack_params or {})})
        payload.update({key: leg[key] for key in
                        ("verdict", "detail", "l1pt_flip_events")
                        if key in leg})
        payload["protected"] = (leg["verdict"] == "blocked"
                                and leg["l1pt_flip_events"] == 0)
    else:
        payload.update(hammer_leg(machine, pattern))
    payload.update(tracker_metrics(machine))
    return payload


def run_zoo_scenario(spec: ScenarioSpec) -> dict:
    """Adapter for the scenario runner (``kind="zoo"``)."""
    params = spec.params
    return run_zoo_cell(
        defense=spec.defense,
        pattern=params["pattern"],
        seed=params.get("seed", 11),
        machine_name=spec.machine,
        defense_params=spec.defense_params,
        attack_params={k: params[k] for k in SPRAY_KNOBS if k in params},
        fault_plan=params.get("fault_plan"),
    )


def zoo_specs(
    defenses: Sequence[str] = ZOO_DEFENSES,
    patterns: Sequence[str] = PATTERNS + ("spray",),
) -> List[ScenarioSpec]:
    """The sweep grid: every (defense, pattern) cell."""
    from ..defenses import DEFENSES

    specs = []
    for defense in defenses:
        if defense not in DEFENSES:
            raise ConfigError(
                f"unknown defense {defense!r}; known: {sorted(DEFENSES)}")
        for pattern in patterns:
            if pattern != "spray" and pattern not in _PATTERN_OFFSETS:
                raise ConfigError(
                    f"unknown zoo pattern {pattern!r}; known: "
                    f"{PATTERNS + ('spray',)}")
            specs.append(ScenarioSpec(
                name=f"zoo-{defense}-{pattern}",
                kind="zoo",
                group="zoo",
                title=f"Zoo: {defense} vs {pattern.replace('_', '-')}",
                machine="tiny",
                defense=defense,
                defense_params=TINY_DEFENSE_PARAMS.get(defense, {}),
                params={"pattern": pattern, "seed": 11},
            ))
    return specs
