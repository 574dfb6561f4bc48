"""Differential suite: compiled-pattern execution ≡ scalar replay.

The compile pipeline fixes step boundaries; execution replays them.
So a compiled plan run through :class:`AttackProgram` (one
``hammer_batch`` per step) must be bit-identical to a hand-written
scalar replay of the same plan: identical FlipEvents, counters,
simulated nanoseconds and telemetry, under strict sanitizers and under
the feed trackers.  Plus: the DSL double-sided pattern reproduces
the legacy zoo double-sided loop's FlipEvent stream, and a mid-pattern
snapshot/restore replays the remaining steps identically.
"""

import pytest

from repro.machine import Machine, MachineConfig
from repro.patterns import AttackProgram, compile_pattern, sided_pattern
from repro.patterns.compile import CompiledPlan

SEED = 11


def build(defense="vanilla", defense_params=None):
    from repro.analysis.zoo import TINY_DEFENSE_PARAMS

    params = dict(TINY_DEFENSE_PARAMS.get(defense, {}))
    params.update(defense_params or {})
    return Machine(MachineConfig(
        machine="tiny", defense=defense, defense_params=params,
        sanitizers="strict", seed=SEED))


def bank0_victim(machine, margin):
    """(row, threshold) of the cheapest vulnerable bank-0 victim."""
    dram = machine.dram
    best = None
    for row in range(margin, dram.geometry.rows_per_bank - margin):
        cells = dram.engine.vulnerable_cells(0, row)
        if cells and (best is None or cells[0].threshold < best[1]):
            best = (row, cells[0].threshold)
    assert best is not None, "tiny seed must expose vulnerable rows"
    return best


def double_sided_plan(machine, rounds=40, gap_ns=120):
    row, threshold = bank0_victim(machine, margin=1)
    acts = max(1, int(1.5 * threshold) // rounds)
    plan = compile_pattern(
        sided_pattern(2, gap_ns=gap_ns),
        {"victim": row, "rounds": rounds, "acts": acts})
    return plan


def fingerprint(machine):
    dram = machine.dram
    return {
        "flip_log": tuple(dram.flip_log),
        "now_ns": machine.clock.now_ns,
        "total_activations": dram.total_activations,
        "telemetry": machine.telemetry.as_flat_dict(),
    }


def scalar_replay(kernel, plan):
    """A literal re-execution of the plan's documented semantics."""
    dram = kernel.dram
    for step in plan.steps:
        for bank, row, count in step.acts:
            dram.hammer(dram.mapping.dram_to_phys(bank, row, 0), count)
            kernel.clock.advance(count * plan.act_ns)
        if step.wait_ns:
            kernel.clock.advance(step.wait_ns)
        kernel.dispatch_timers()


def scalar_and_program_prints(defense="vanilla"):
    """The scalar replay's fingerprint and the program's, each on a
    fresh machine of ``defense``."""
    reference = build(defense=defense)
    plan = double_sided_plan(reference)
    scalar_replay(reference.kernel, plan)
    machine = build(defense=defense)
    AttackProgram(plan, mode="rows").run(machine.kernel)
    return fingerprint(reference), fingerprint(machine)


def test_compiled_equals_handwritten_scalar():
    want, got = scalar_and_program_prints()
    assert want["flip_log"], "the reference replay must actually flip"
    assert got == want


@pytest.mark.parametrize("defense", ["chiptrr", "misra_gries"])
def test_batched_equals_scalar_under_feed_trackers(defense):
    """Tracker state (and its refresh actuations) must not depend on
    batching either."""
    want, got = scalar_and_program_prints(defense)
    assert want["telemetry"]["actuator.refreshes"] > 0
    assert got == want


def test_dsl_double_sided_matches_legacy_attack_stream():
    """Acceptance bar: the DSL-authored double-sided pattern reproduces
    the legacy zoo double-sided loop's FlipEvent stream bit-identically
    on the same machine seed."""
    from repro.analysis.zoo import cheapest_victim
    from repro.patterns.scenario import DEFAULT_ROUNDS

    legacy = build()
    bank, victim, threshold = cheapest_victim(legacy)
    per_round = max(1, int(1.5 * threshold) // DEFAULT_ROUNDS)
    dram = legacy.dram
    aggressors = [dram.mapping.dram_to_phys(bank, victim + off, 0)
                  for off in (-1, 1)]
    for _ in range(DEFAULT_ROUNDS):
        for paddr in aggressors:
            dram.hammer(paddr, per_round)

    authored = build()
    plan = compile_pattern(
        sided_pattern(2),
        {"victim": 0, "rounds": DEFAULT_ROUNDS, "acts": per_round},
    ).remap_targets({(0, off): (bank, victim + off) for off in (-1, 1)})
    AttackProgram(plan, mode="rows").run(authored.kernel)

    assert tuple(legacy.dram.flip_log) == tuple(authored.dram.flip_log)
    assert legacy.dram.flip_log, "the double-sided stream must flip"
    assert (legacy.dram.total_activations
            == authored.dram.total_activations)
    assert legacy.clock.now_ns == authored.clock.now_ns


def test_snapshot_restore_mid_pattern_replays_identically():
    machine = build()
    plan = double_sided_plan(machine)
    half = len(plan.steps) // 2
    first = CompiledPlan(plan.name, plan.steps[:half], plan.act_ns)
    second = CompiledPlan(plan.name, plan.steps[half:], plan.act_ns)

    AttackProgram(first, mode="rows").run(machine.kernel)
    snap = machine.snapshot()
    AttackProgram(second, mode="rows").run(machine.kernel)
    original = fingerprint(machine)

    machine.restore(snap)
    AttackProgram(second, mode="rows").run(machine.kernel)
    assert fingerprint(machine) == original
    assert original["flip_log"], "the replayed half must contain flips"
