"""Work budget of the hammer step, in calls, not seconds.

A user-mode run is one clflush, one 8-byte user load and one burst; a
rows-mode step is one burst of the plan's own ``(bank, row, count)``
triples.  These tests pin how much address arithmetic and object
building that costs on a warm vanilla tiny machine: each aggressor's
``(bank, row)`` is resolved once per program, each run's load resolves
its line once and builds no ``DramAddress``, no TLB hit builds a
``Translation``, no dispatch point enters the timer queue while no
timer is due, the engine caches one plan per activated ``(bank, row)``,
and a rows-mode program never leaves DRAM coordinates.
"""

import pytest

from repro.attacks.hammer import HammerKit
from repro.dram.address import AddressMapping, DramAddress
from repro.dram.disturbance import DisturbanceEngine
from repro.kernel.timer import KernelTimers
from repro.kernel.vma import PAGE
from repro.machine import Machine, MachineConfig
from repro.mmu.walker import Translation
from repro.patterns import AttackProgram, round_robin
from repro.patterns.program import sided_pattern


def counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` from now on; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


def warm_kit():
    """A vanilla tiny machine that has run the 20-run program once:
    the aggressor pages are mapped and their translations cached."""
    machine = Machine(MachineConfig(machine="tiny"))
    kernel = machine.kernel
    process = kernel.create_process("attacker")
    base = kernel.mmap(process, 4 * PAGE, name="aggressors")
    vaddrs = [base, base + 2 * PAGE]
    kit = HammerKit(kernel, process)
    program = kit.program(round_robin(len(vaddrs), 1000))
    kit.run(program, vaddrs)
    return kit, program, vaddrs


@pytest.fixture
def warm():
    return warm_kit()


def test_program_has_twenty_runs(warm):
    _kit, program, vaddrs = warm
    runs = sum(len(step.acts) for step in program.plan().steps)
    assert (runs, len(vaddrs)) == (20, 2)


def test_user_runs_resolve_dram_coordinates_once(warm, monkeypatch):
    kit, program, vaddrs = warm
    calls = counting(monkeypatch, AddressMapping, "row_of")
    outcome = kit.run(program, vaddrs)
    assert outcome.activations == 2 * 1000
    # One per run's line transaction, one per aggressor's bursts.
    assert calls[0] == 20 + len(vaddrs)


def test_user_runs_build_no_dram_address(warm, monkeypatch):
    kit, program, vaddrs = warm
    built = counting(monkeypatch, DramAddress, "__new__")
    kit.run(program, vaddrs)
    assert built[0] == 0
    # The counter sees a build: phys_to_dram still returns one.
    kit.kernel.dram.mapping.phys_to_dram(0)
    assert built[0] == 1


def test_idle_dispatch_never_enters_the_timer_queue(warm, monkeypatch):
    kit, program, vaddrs = warm
    idle = []
    original = KernelTimers.run_pending

    def run_pending(timers):
        if not timers.clock.has_due():
            idle.append(timers.clock.now_ns)
        return original(timers)

    monkeypatch.setattr(KernelTimers, "run_pending", run_pending)
    kit.run(program, vaddrs)
    assert idle == []


def test_one_cached_plan_per_activated_row(monkeypatch):
    activated = set()
    original = DisturbanceEngine.on_activate

    def on_activate(engine, bank, row, count, epoch, now_ns):
        if count > 0:
            activated.add((bank, row))
        return original(engine, bank, row, count, epoch, now_ns)

    monkeypatch.setattr(DisturbanceEngine, "on_activate", on_activate)
    kit, program, vaddrs = warm_kit()
    engine = kit.kernel.dram.engine
    cached = dict(engine._plans)
    kit.run(program, vaddrs)
    # Every row ever activated has its one plan, and nothing else is
    # cached; the warm run builds none.
    assert set(engine._plans) == activated
    assert all(engine._plans[key] is plan for key, plan in cached.items())
    assert len(engine._plans) == len(cached)


def test_tlb_hits_build_no_translation(warm, monkeypatch):
    kit, program, vaddrs = warm
    tlb = kit.kernel.mmu.tlb
    hits, misses = tlb.hits, tlb.misses
    built = counting(monkeypatch, Translation, "__init__")
    kit.run(program, vaddrs)
    assert (tlb.hits - hits, tlb.misses - misses) == (20, 0)
    assert built[0] == 0


def test_rows_program_stays_in_dram_coordinates(monkeypatch):
    machine = Machine(MachineConfig(machine="tiny"))
    program = AttackProgram(sided_pattern(2),
                            {"victim": 20, "rounds": 10, "acts": 50})
    forward = counting(monkeypatch, AddressMapping, "phys_to_dram")
    inverse = counting(monkeypatch, AddressMapping, "dram_to_phys")
    outcome = program.run(machine.kernel)
    assert outcome.activations == 10 * 2 * 50
    assert (forward[0], inverse[0]) == (0, 0)
