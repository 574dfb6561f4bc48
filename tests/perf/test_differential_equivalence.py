"""Differential equivalence: the batched hammer path is invisible.

``DramModule.hammer_batch`` and :class:`HammerKit`'s one-item bursts
must be *semantically identical* to the scalar code they stand for,
``DramModule.hammer`` bursts: identical DRAM bytes, identical
``FlipEvent`` streams (including timestamps), identical simulated
nanoseconds, every nonzero accumulator bit for bit, and identical
counters in every layer the evaluation reads.  These tests run each
scenario twice on freshly built machines — scalar and batched — with
strict runtime sanitizers installed (``install_sanitizers(kernel,
strict=True)``), so the first invariant violation raises, and compare
a full fingerprint.  The kit cases compare :class:`HammerKit` with a
scalar replay of its plan written here.
"""

import dataclasses

import pytest

from repro.attacks.hammer import HammerKit
from repro.checkers import install_sanitizers
from repro.config import machine, tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.dram.bank import RowBufferPolicy
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.patterns import round_robin
from repro.rng import derive_rng
from repro.workloads.base import SliceWorkload, WorkloadProfile


def strict_kernel(spec):
    """A kernel on ``spec`` whose first sanitizer violation raises."""
    kernel = Kernel(spec)
    install_sanitizers(kernel, strict=True)
    return kernel


def dram_fingerprint(dram):
    """Every DRAM-level observable the equivalence claim covers."""
    engine = dram.engine
    return {
        "frames": {ppn: bytes(data) for ppn, data in dram._frames.items()},
        "flip_log": list(dram.flip_log),
        "applied_flips": dram.applied_flips,
        "now_ns": dram.clock.now_ns,
        "reads": dram.reads,
        "writes": dram.writes,
        "total_activations": dram.total_activations,
        "total_deposits": engine.total_deposits,
        "total_flip_events": engine.total_flip_events,
        "banks": [(bank.open_row, bank.activations, bank.hits)
                  for bank in dram._banks],
        "recent_activations": list(dram.recent_activations),
        "chiptrr": (dram.trr.targeted_refreshes, dram.trr.evictions),
        "accumulators": engine.accumulated_rows(dram._epoch()),
    }


def kernel_fingerprint(kernel):
    """DRAM observables plus every CPU/kernel-side counter."""
    fingerprint = dram_fingerprint(kernel.dram)
    tlb = kernel.mmu.tlb
    cache = kernel.mmu.cache
    fingerprint.update({
        "tlb": (tlb.hits, tlb.misses, tlb.invalidations),
        "cache": (cache.hits, cache.misses,
                  cache.evictions, cache.flushes),
        "kernel": (kernel.faults_handled, kernel.demand_pages,
                   kernel.segfaults),
        "accounting": kernel.accountant.snapshot(),
    })
    softtrr = kernel.module("softtrr")
    if softtrr is not None:
        fingerprint["softtrr_stats"] = softtrr.stats()
    return fingerprint


def assert_same(scalar, batched):
    for key in scalar:
        assert scalar[key] == batched[key], (
            f"batched run diverged from scalar run in {key!r}:\n"
            f"  scalar:  {str(scalar[key])[:300]}\n"
            f"  batched: {str(batched[key])[:300]}")
    assert set(scalar) == set(batched)


# --------------------------------------------------------------------------
# DRAM level: hammer_batch vs a scalar hammer loop
# --------------------------------------------------------------------------

def _scalar_hammer(dram, items, extra_ns=0):
    for paddr, count in items:
        dram.hammer(paddr, count)
        if extra_ns:
            dram.clock.advance(count * extra_ns)


def _batch_hammer(dram, items, extra_ns=0):
    """The same ``(paddr, count)`` stream as one ``hammer_batch`` of
    ``(bank, row, count)`` triples."""
    dram.hammer_batch(
        [(*dram.mapping.row_of(paddr), count) for paddr, count in items],
        extra_ns=extra_ns)


@pytest.mark.parametrize("name", ["thinkpad_x230", "perf_testbed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_hammer_batch_random_streams(name, seed):
    """Seeded streams mixing runs, singles and counts, per machine."""
    rng = derive_rng("diff-hammer", name, seed)
    scalar_dram = strict_kernel(machine(name)).dram
    batched_dram = strict_kernel(machine(name)).dram
    items = []
    for _ in range(120):
        bank = rng.randrange(scalar_dram.geometry.num_banks)
        row = rng.randrange(16, 48)
        paddr = scalar_dram.mapping.dram_to_phys(bank, row, 0)
        count = rng.choice([1, 1, 2, 7, 99])
        items.extend([(paddr, count)] * rng.choice([1, 1, 4, 40]))
    _scalar_hammer(scalar_dram, items)
    _batch_hammer(batched_dram, items)
    assert_same(dram_fingerprint(scalar_dram),
                dram_fingerprint(batched_dram))


def test_hammer_batch_with_chiptrr_interleaving():
    """ChipTRR's mid-batch refreshes land between the same items as in
    the scalar loop."""
    scalar_dram = strict_kernel(tiny_machine(seed=7, trr=True)).dram
    batched_dram = strict_kernel(tiny_machine(seed=7, trr=True)).dram
    left = scalar_dram.mapping.dram_to_phys(0, 29, 0)
    right = scalar_dram.mapping.dram_to_phys(0, 31, 0)
    items = [(left, 1), (right, 1)] * 2000
    _scalar_hammer(scalar_dram, items)
    _batch_hammer(batched_dram, items)
    assert_same(dram_fingerprint(scalar_dram),
                dram_fingerprint(batched_dram))


def test_hammer_batch_epoch_rollover_mid_run():
    """A long run straddling the refresh-window boundary: the batch
    must reproduce the scalar path's lazy heal discard exactly."""
    scalar_dram = strict_kernel(machine("thinkpad_x230")).dram
    batched_dram = strict_kernel(machine("thinkpad_x230")).dram
    window = scalar_dram.timings.refresh_window_ns
    for dram in (scalar_dram, batched_dram):
        dram.clock.advance(window - 150_000)
    paddr = scalar_dram.mapping.dram_to_phys(0, 30, 0)
    items = [(paddr, 99)] * 2000
    _scalar_hammer(scalar_dram, items, extra_ns=15)
    _batch_hammer(batched_dram, items, extra_ns=15)
    assert_same(dram_fingerprint(scalar_dram),
                dram_fingerprint(batched_dram))


def _vulnerable_victim(dram):
    """A (victim_row, aggressor_paddr) pair guaranteed to flip."""
    engine = dram.engine
    for row in range(8, dram.geometry.rows_per_bank - 8):
        if engine.is_vulnerable(0, row):
            return row, dram.mapping.dram_to_phys(0, row - 1, 0)
    raise AssertionError("no vulnerable row on this seed")


def test_hammer_batch_identical_flip_stream():
    """A stream that *does* flip: byte-identical events and bytes."""
    scalar_dram = strict_kernel(tiny_machine(seed=7)).dram
    batched_dram = strict_kernel(tiny_machine(seed=7)).dram
    _victim, aggressor = _vulnerable_victim(scalar_dram)
    items = [(aggressor, 1)] * 20_000  # tiny threshold max is 16 K units
    _scalar_hammer(scalar_dram, items)
    _batch_hammer(batched_dram, items)
    scalar_fp = dram_fingerprint(scalar_dram)
    assert scalar_fp["flip_log"], "scenario must actually flip bits"
    assert_same(scalar_fp, dram_fingerprint(batched_dram))


# --------------------------------------------------------------------------
# Kit level: the four hammer patterns of Section II-B
# --------------------------------------------------------------------------

def _pattern_vaddrs(base, pattern):
    if pattern == "double_sided":
        return [base + PAGE, base + 3 * PAGE]
    if pattern == "single_sided":
        return [base, base + 5 * PAGE]
    if pattern == "one_location":
        return [base + 2 * PAGE]
    if pattern == "many_sided":
        return [base + i * PAGE for i in range(0, 8, 2)]
    raise AssertionError(pattern)


def _scalar_user_replay(kit, program, vaddrs):
    """A literal re-execution of a user-mode plan's documented
    semantics: per run, clflush + one architectural read, then the rest
    of the run as one scalar ``hammer`` + clock advance; kernel timers
    at every step boundary."""
    kernel, process = kit.kernel, kit.process
    plan = program.plan()
    paddrs = [kit.paddr_of(vaddr) for vaddr in vaddrs]
    for step in plan.steps:
        for _bank, index, count in step.acts:
            kernel.mmu.clflush(paddrs[index])
            kernel.user_read(process, vaddrs[index], 8)
            if count > 1:
                kernel.dram.hammer(paddrs[index], count - 1)
                kernel.clock.advance((count - 1) * plan.act_ns)
        if step.wait_ns:
            kernel.clock.advance(step.wait_ns)
        kernel.dispatch_timers()


def _kit_run(kit, pattern, vaddrs, scalar):
    """``kit.run`` of ``pattern``, or the scalar replay of its plan."""
    program = kit.program(pattern)
    if scalar:
        _scalar_user_replay(kit, program, vaddrs)
    else:
        kit.run(program, vaddrs)


def _kit_scenario(spec, pattern, scalar, iterations, softtrr):
    kernel = strict_kernel(spec)
    if softtrr:
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
    process = kernel.create_process("attacker")
    base = kernel.mmap(process, 8 * PAGE, name="aggressors")
    for i in range(8):
        kernel.user_write(process, base + i * PAGE, b"A")
    vaddrs = _pattern_vaddrs(base, pattern)
    _kit_run(HammerKit(kernel, process),
             round_robin(len(vaddrs), iterations), vaddrs, scalar)
    return kernel_fingerprint(kernel)


@pytest.mark.parametrize("pattern", [
    "double_sided", "single_sided", "one_location", "many_sided",
])
def test_kit_patterns_batched_equals_scalar(pattern):
    """Each Section II-B pattern, SoftTRR-protected, strict sanitizers."""
    spec = machine("thinkpad_x230")
    scalar = _kit_scenario(spec, pattern, scalar=True,
                           iterations=1500, softtrr=True)
    batched = _kit_scenario(spec, pattern, scalar=False,
                            iterations=1500, softtrr=True)
    assert_same(scalar, batched)


def test_kit_one_location_closed_page():
    """One-location hammering only works under closed-page policy —
    the kit's bursts must match the scalar replay there too."""
    spec = dataclasses.replace(machine("thinkpad_x230"),
                               row_policy=RowBufferPolicy.CLOSED_PAGE)
    scalar = _kit_scenario(spec, "one_location", scalar=True,
                           iterations=1200, softtrr=False)
    batched = _kit_scenario(spec, "one_location", scalar=False,
                            iterations=1200, softtrr=False)
    assert_same(scalar, batched)


# --------------------------------------------------------------------------
# End to end: kit bursts around workload traffic
# --------------------------------------------------------------------------

def test_full_softtrr_run_equivalence():
    """End to end: SoftTRR-protected machine, timers ticking, hammer
    pressure plus workload traffic; identical SoftTrrStats."""
    def scenario(scalar):
        kernel = strict_kernel(machine("thinkpad_x230"))
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        attacker = kernel.create_process("attacker")
        base = kernel.mmap(attacker, 8 * PAGE, name="aggressors")
        for i in range(8):
            kernel.user_write(attacker, base + i * PAGE, b"A")
        kit = HammerKit(kernel, attacker)
        vaddrs = [base + PAGE, base + 3 * PAGE]
        _kit_run(kit, round_robin(2, 1000), vaddrs, scalar)
        profile = WorkloadProfile(
            name="diff-mix", duration_ms=10, hot_pages=4,
            cold_pool_pages=16, cold_touches=2)
        SliceWorkload(kernel, profile, seed=5).run()
        _kit_run(kit, round_robin(2, 1000), vaddrs, scalar)
        fingerprint = kernel_fingerprint(kernel)
        assert "softtrr_stats" in fingerprint
        return fingerprint

    assert_same(scenario(scalar=True), scenario(scalar=False))
