"""Pattern scenarios: one DSL program as one evaluation cell.

The zoo sweep hard-codes its hammer patterns as offset tuples; this
module makes the pattern itself the experiment input.  A cell takes DSL
source (or a :class:`~repro.patterns.lang.Pattern`), compiles it, aims
it at a victim and scores the outcome against any registry defense on
two targets:

* ``"rows"`` — direct DRAM hammering of the cheapest vulnerable
  neighbourhood (visible to every :class:`~repro.dram.feed.Tracker` on
  the activation feed: chiptrr, para, misra_gries, ptmp, dapper);
* ``"pt"`` — the SoftTRR leg: relocate an L1PT page onto an
  attacker-owned vulnerable frame (the paper's deterministic placement)
  and drive the compiled pattern through the MMU path, where SoftTRR's
  reserved-bit tracer sees every first access.

Victim-relative authoring convention: a pattern with an unbound
``victim`` parameter is compiled at ``victim = 0`` so its act rows
become *offsets*; the cell picks the cheapest vulnerable row the
pattern fits around and remaps the plan onto it.  Unbound ``rounds`` /
``acts`` parameters are budget-filled: the per-aggressor activation
budget is :data:`DEFAULT_BUDGET_FACTOR` x the victim's flip threshold,
split across :data:`DEFAULT_ROUNDS` interleaved rounds — the one budget
policy, also the zoo's and window cells'.  A ``"rows"`` cell hammers
through the zoo's :func:`~repro.analysis.zoo.rows_leg` with its widest
offset as the bank-edge margin; a ``"pt"`` cell claims the spray leg's
region.  Neither target has a budget or region knob.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..errors import AttackError, ConfigError, PatternError
from .compile import CompiledPlan, compile_pattern
from .lang import Pattern
from .parser import parse_pattern
from .program import AttackProgram

__all__ = [
    "DEFAULT_ROUNDS",
    "PATTERN_TARGETS",
    "pattern_specs",
    "run_pattern_cell",
    "run_pattern_scenario",
]

#: Interleaving rounds the budget is split across.
DEFAULT_ROUNDS = 50

#: Per-aggressor budget as a multiple of the victim's flip threshold.
DEFAULT_BUDGET_FACTOR = 1.5

#: Targets a pattern cell can aim at.
PATTERN_TARGETS = ("rows", "pt")


def _parse(source) -> Pattern:
    if isinstance(source, Pattern):
        return source
    return parse_pattern(source)


def _probe_offsets(pat: Pattern, bindings: Mapping) -> List[int]:
    """Act rows with ``victim`` pinned to 0 — the victim-relative
    offsets, in first-use order (the aggressor ordering the plan
    replays)."""
    probe = dict(bindings)
    names = pat.param_names()
    if "victim" in names:
        probe.setdefault("victim", 0)
    for knob in ("rounds", "acts"):
        if knob in names:
            probe.setdefault(knob, 1)
    plan = compile_pattern(pat, probe)
    offsets: List[int] = []
    for bank, row in plan.targets():
        if bank != 0:
            raise PatternError(
                f"pattern {pat.name!r}: victim-relative patterns must "
                f"keep every act on bank 0 (got bank {bank})")
        if row not in offsets:
            offsets.append(row)
    if any(off == 0 for off in offsets):
        raise PatternError(
            f"pattern {pat.name!r} activates the victim row itself "
            "(offset 0); aggressors must be neighbours")
    return offsets


def _budget_bindings(pat: Pattern, bindings: Mapping,
                     threshold: float) -> Dict[str, int]:
    """Fill unbound, default-less ``rounds``/``acts`` from the budget."""
    out = dict(bindings)
    defaults = {spec.name: spec.default for spec in pat.params}
    unbound = {name for name, default in defaults.items()
               if default is None and name not in out}
    if "rounds" in unbound:
        out["rounds"] = DEFAULT_ROUNDS
    rounds = out.get("rounds", defaults.get("rounds")) or DEFAULT_ROUNDS
    if "acts" in unbound:
        budget = max(1, int(DEFAULT_BUDGET_FACTOR * threshold))
        out["acts"] = max(1, budget // max(1, rounds))
    return out


def run_pattern_cell(
    source,
    defense: str = "vanilla",
    target: str = "rows",
    seed: Optional[int] = None,
    machine_name: str = "tiny",
    defense_params: Optional[Mapping] = None,
    bindings: Optional[Mapping] = None,
    fault_plan: Optional[Mapping] = None,
) -> dict:
    """Compile ``source`` and run it against ``defense``; deterministic
    in all arguments.  See the module docstring for the two targets."""
    pat = _parse(source)
    bindings = dict(bindings or {})
    if target == "rows":
        return _run_rows_cell(pat, defense, defense_params, machine_name,
                              seed, bindings, fault_plan)
    if target == "pt":
        return _run_pt_cell(pat, defense, defense_params, machine_name,
                            seed, bindings, fault_plan)
    raise ConfigError(
        f"unknown pattern target {target!r}; known: {PATTERN_TARGETS}")


def _base_payload(pat: Pattern, plan: CompiledPlan, defense: str,
                  target: str, seed) -> Dict[str, object]:
    return {
        "defense": defense,
        "target": target,
        "pattern": pat.name,
        "seed": seed,
        "steps": len(plan.steps),
        "plan_acts": plan.total_acts,
        "plan_wait_ns": plan.total_wait_ns,
    }


def _run_rows_cell(pat, defense, defense_params, machine_name, seed,
                   bindings, fault_plan) -> dict:
    from ..analysis.zoo import build_machine, rows_leg, tracker_metrics

    machine = build_machine(defense, defense_params, machine_name, seed,
                            fault_plan)
    if "victim" in pat.param_names() and "victim" not in bindings:
        offsets = _probe_offsets(pat, bindings)
        (bank, victim, threshold), plan, outcome = rows_leg(
            machine, pat, offsets, max(abs(off) for off in offsets),
            bindings)
    else:
        bank = victim = threshold = None
        offsets = []
        plan = compile_pattern(pat, bindings)
        outcome = AttackProgram(plan, mode="rows").run(machine.kernel)
    payload = _base_payload(pat, plan, defense, "rows", seed)
    payload.update({
        "victim": None if victim is None else [bank, victim],
        "victim_threshold": threshold,
        "aggressors": len(offsets) or len(plan.targets()),
        "offsets": list(offsets),
        "flip_events": outcome.flip_events,
        "protected": outcome.flip_events == 0,
        "hammer_ns": outcome.hammer_ns,
    })
    payload.update(tracker_metrics(machine))
    return payload


def _run_pt_cell(pat, defense, defense_params, machine_name, seed,
                 bindings, fault_plan) -> dict:
    from ..analysis.zoo import (SPRAY_KNOBS, build_machine,
                                l1pt_flips_since, tracker_metrics)
    from ..attacks.hammer import HammerKit
    from ..attacks.placement import (
        free_user_frame,
        place_l1pt_at,
        spray_l1pts,
    )
    from ..attacks.templating import FlipTemplater
    from ..kernel.vma import PAGE

    if "victim" not in pat.param_names() or "victim" in bindings:
        raise ConfigError(
            "the 'pt' target needs a victim-relative pattern (an "
            "unbound 'victim' parameter the cell can aim)")
    offsets = _probe_offsets(pat, bindings)
    margin = max(abs(off) for off in offsets)
    machine = build_machine(defense, defense_params, machine_name, seed,
                            fault_plan)
    kernel = machine.kernel
    attacker = kernel.create_process("pattern-attacker")
    kit = HammerKit(kernel, attacker)
    templater = FlipTemplater(kernel, attacker, kit)
    ownership = templater.claim_region(SPRAY_KNOBS["region_pages"])
    rows_per_bank = machine.dram.geometry.rows_per_bank
    page_bits = PAGE * 8
    best = None
    for (bank, victim_row), victims in sorted(ownership.items()):
        if not margin <= victim_row < rows_per_bank - margin:
            continue
        if not all((bank, victim_row + off) in ownership
                   for off in offsets):
            continue
        cells = machine.dram.engine.vulnerable_cells(bank, victim_row)
        if not cells:
            continue
        # The victim row spans several pages; the L1PT must land on the
        # page that actually holds the cheapest vulnerable cell.
        cell = cells[0]
        row_pages = machine.dram.mapping.row_pages(bank, victim_row)
        cell_ppn = row_pages[cell.bit_offset // page_bits]
        owned = next(((vaddr, ppn) for vaddr, ppn in victims
                      if ppn == cell_ppn), None)
        if owned is None:
            continue
        if best is None or cell.threshold < best[3]:
            best = (bank, victim_row, owned, cell.threshold)
    if best is None:
        raise AttackError(
            "pattern pt cell: the claimed region owns no vulnerable "
            "neighbourhood wide enough for the pattern; narrow its "
            "offsets")
    bank, victim_row, (victim_vaddr, victim_ppn), threshold = best
    aggressor_vaddrs = [
        ownership[(bank, victim_row + off)][0][0] for off in offsets]
    # The paper's deterministic placement: spray first, then free the
    # vulnerable frame and relocate a sprayed L1PT page onto it
    # (SoftTRR observes the move through the normal kernel frame
    # machinery).  Spraying after the free would let the spray's own
    # allocations reclaim the victim frame.
    slice_vaddr = spray_l1pts(kernel, attacker, 1)[0]
    free_user_frame(kernel, attacker, victim_vaddr)
    place_l1pt_at(kernel, attacker, slice_vaddr, victim_ppn)
    final = _budget_bindings(pat, {**bindings, "victim": 0}, threshold)
    # In user mode the row operand indexes the aggressor vaddr list.
    plan = compile_pattern(pat, final).remap_targets(
        {(0, off): (0, i) for i, off in enumerate(offsets)})
    program = AttackProgram(plan, mode="user", act_ns=kit.extra_ns)
    # Start at a refresh-window boundary where the plan fits in one
    # window — an auto-refresh mid-pattern drains the disturbance the
    # probe is trying to accumulate (real attackers sync too).
    window = kernel.dram.timings.refresh_window_ns
    needed = plan.total_acts * 100 + plan.total_wait_ns
    into = kernel.clock.now_ns % window
    if needed < window and into + needed > window:
        kernel.clock.advance(window - into)
    hammer_start = kernel.clock.now_ns
    outcome = kit.run(program, aggressor_vaddrs)
    flips = l1pt_flips_since(kernel, (victim_ppn,), hammer_start)
    payload = _base_payload(pat, plan, defense, "pt", seed)
    payload.update({
        "victim": [bank, victim_row],
        "victim_ppn": victim_ppn,
        "victim_threshold": threshold,
        "aggressors": len(offsets),
        "offsets": list(offsets),
        "pt_flip_events": flips,
        "flip_events": flips,
        "protected": flips == 0,
        "hammer_ns": outcome.hammer_ns,
    })
    payload.update(tracker_metrics(machine))
    return payload


def run_pattern_scenario(spec) -> dict:
    """Adapter for the scenario runner (``kind="pattern"``): the DSL
    source travels in ``spec.pattern``, the knobs in ``spec.params``."""
    params = spec.params
    return run_pattern_cell(
        spec.pattern,
        defense=spec.defense,
        target=params.get("target", "rows"),
        seed=params.get("seed"),
        machine_name=spec.machine,
        defense_params=spec.defense_params,
        bindings=params.get("bindings"),
        fault_plan=params.get("fault_plan"),
    )


def pattern_specs() -> List["ScenarioSpec"]:
    """The registry's ``patterns`` group: DSL-authored sided patterns
    against the headline defenses, on both targets where they apply."""
    from ..scenarios.spec import ScenarioSpec
    from .fuzz import sided_source

    grid = (
        ("vanilla", "rows"),
        ("chiptrr", "rows"),
        ("misra_gries", "rows"),
        ("vanilla", "pt"),
        ("softtrr", "pt"),
    )
    specs = []
    for defense, target in grid:
        for sides in (1, 2, 8):
            specs.append(ScenarioSpec(
                name=f"patterns-{defense}-{target}-{sides}sided",
                kind="pattern",
                group="patterns",
                title=(f"Pattern DSL: {sides}-sided vs {defense} "
                       f"({target} target)"),
                machine="tiny",
                defense=defense,
                pattern=sided_source(sides),
                params={"target": target, "seed": 11},
            ))
    return specs
