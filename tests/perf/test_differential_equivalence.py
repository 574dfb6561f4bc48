"""Differential equivalence: the batched execution layer is invisible.

Every fast path introduced for performance — ``DramModule.hammer_batch``
/ ``write_run``, ``Mmu.access_run``,
``Kernel.user_access_run``, the workload engine's replayed hot-page
touches and :class:`HammerKit`'s batched burst — must be *semantically
identical* to the scalar code it replaces: identical DRAM bytes,
identical ``FlipEvent`` streams (including timestamps), identical
simulated nanoseconds, and identical counters in every layer the
evaluation reads.  These tests run each scenario twice on freshly built
machines — scalar and batched — under ``MachineSpec(sanitize=True)``
(PR 1's strict runtime invariants) and compare a full fingerprint.

The one sanctioned relaxation: raw accumulator floats of rows with *no*
vulnerable cells may differ in the last ULPs (fused ``weight * count``
add vs sequential adds) — such rows can never flip, so the fingerprint
compares accumulated disturbance for vulnerable rows only (see
DESIGN.md's batching-invariant section).
"""

import dataclasses

import pytest

from repro.attacks.hammer import HammerKit
from repro.config import machine, tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.dram.bank import RowBufferPolicy
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.patterns import round_robin
from repro.rng import derive_rng
from repro.workloads.base import SliceWorkload, WorkloadProfile


def strict(spec):
    """The spec with PR 1's runtime sanitizers armed."""
    return dataclasses.replace(spec, sanitize=True)


def dram_fingerprint(dram):
    """Every DRAM-level observable the equivalence claim covers."""
    engine = dram.engine
    # The canonical fingerprint: nonzero current-epoch accumulators of
    # vulnerable rows, identical across scalar/batched/periodic replay.
    vulnerable_acc = engine.vulnerable_accumulated(dram._epoch())
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
        "vulnerable_acc": vulnerable_acc,
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


@pytest.mark.parametrize("name", ["thinkpad_x230", "perf_testbed"])
@pytest.mark.parametrize("seed", [0, 1])
def test_hammer_batch_random_streams(name, seed):
    """Seeded streams mixing runs, singles and counts, per machine."""
    rng = derive_rng("diff-hammer", name, seed)
    scalar_dram = Kernel(strict(machine(name))).dram
    batched_dram = Kernel(strict(machine(name))).dram
    items = []
    for _ in range(120):
        bank = rng.randrange(scalar_dram.geometry.num_banks)
        row = rng.randrange(16, 48)
        paddr = scalar_dram.mapping.dram_to_phys(bank, row, 0)
        count = rng.choice([1, 1, 2, 7, 99])
        items.extend([(paddr, count)] * rng.choice([1, 1, 4, 40]))
    _scalar_hammer(scalar_dram, items)
    batched_dram.hammer_batch(items)
    assert_same(dram_fingerprint(scalar_dram),
                dram_fingerprint(batched_dram))


def test_hammer_batch_with_chiptrr_interleaving():
    """ChipTRR's mid-batch refreshes force the per-item replay."""
    scalar_dram = Kernel(strict(tiny_machine(seed=7, trr=True))).dram
    batched_dram = Kernel(strict(tiny_machine(seed=7, trr=True))).dram
    left = scalar_dram.mapping.dram_to_phys(0, 29, 0)
    right = scalar_dram.mapping.dram_to_phys(0, 31, 0)
    items = [(left, 1), (right, 1)] * 2000
    _scalar_hammer(scalar_dram, items)
    batched_dram.hammer_batch(items)
    assert_same(dram_fingerprint(scalar_dram),
                dram_fingerprint(batched_dram))


def test_hammer_batch_epoch_rollover_mid_run():
    """A long run straddling the refresh-window boundary: the batch
    must reproduce the scalar path's lazy heal discard exactly."""
    scalar_dram = Kernel(strict(machine("thinkpad_x230"))).dram
    batched_dram = Kernel(strict(machine("thinkpad_x230"))).dram
    window = scalar_dram.timings.refresh_window_ns
    for dram in (scalar_dram, batched_dram):
        dram.clock.advance(window - 150_000)
    paddr = scalar_dram.mapping.dram_to_phys(0, 30, 0)
    items = [(paddr, 99)] * 2000
    _scalar_hammer(scalar_dram, items, extra_ns=15)
    batched_dram.hammer_batch(items, extra_ns=15)
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
    scalar_dram = Kernel(strict(tiny_machine(seed=7))).dram
    batched_dram = Kernel(strict(tiny_machine(seed=7))).dram
    _victim, aggressor = _vulnerable_victim(scalar_dram)
    items = [(aggressor, 1)] * 20_000  # tiny threshold max is 16 K units
    _scalar_hammer(scalar_dram, items)
    batched_dram.hammer_batch(items)
    scalar_fp = dram_fingerprint(scalar_dram)
    assert scalar_fp["flip_log"], "scenario must actually flip bits"
    assert_same(scalar_fp, dram_fingerprint(batched_dram))


# --------------------------------------------------------------------------
# Kit level: the four hammer patterns of Section II-B
# --------------------------------------------------------------------------

def _pattern_vaddrs(kit, base, pattern):
    if pattern == "double_sided":
        return [base + PAGE, base + 3 * PAGE]
    if pattern == "single_sided":
        return [base, base + 5 * PAGE]
    if pattern == "one_location":
        return [base + 2 * PAGE]
    if pattern == "many_sided":
        return [base + i * PAGE for i in range(0, 8, 2)]
    raise AssertionError(pattern)


def _kit_scenario(spec, pattern, use_batch, iterations, softtrr):
    kernel = Kernel(spec)
    if softtrr:
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
    process = kernel.create_process("attacker")
    base = kernel.mmap(process, 8 * PAGE, name="aggressors")
    for i in range(8):
        kernel.user_write(process, base + i * PAGE, b"A")
    kit = HammerKit(kernel, process, use_batch=use_batch)
    vaddrs = _pattern_vaddrs(kit, base, pattern)
    kit.run(round_robin(len(vaddrs), iterations), vaddrs)
    return kernel_fingerprint(kernel)


@pytest.mark.parametrize("pattern", [
    "double_sided", "single_sided", "one_location", "many_sided",
])
def test_kit_patterns_batched_equals_scalar(pattern):
    """Each Section II-B pattern, SoftTRR-protected, strict sanitizers."""
    spec = strict(machine("thinkpad_x230"))
    scalar = _kit_scenario(spec, pattern, use_batch=False,
                           iterations=1500, softtrr=True)
    batched = _kit_scenario(spec, pattern, use_batch=True,
                            iterations=1500, softtrr=True)
    assert_same(scalar, batched)


def test_kit_one_location_closed_page():
    """One-location hammering only works under closed-page policy —
    the batched burst must match there too."""
    spec = dataclasses.replace(strict(machine("thinkpad_x230")),
                               row_policy=RowBufferPolicy.CLOSED_PAGE)
    scalar = _kit_scenario(spec, "one_location", use_batch=False,
                           iterations=1200, softtrr=False)
    batched = _kit_scenario(spec, "one_location", use_batch=True,
                            iterations=1200, softtrr=False)
    assert_same(scalar, batched)


# --------------------------------------------------------------------------
# Kernel / workload level
# --------------------------------------------------------------------------

def _access_run_scenario(batched):
    kernel = Kernel(strict(machine("thinkpad_x230")))
    kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
    process = kernel.create_process("app")
    base = kernel.mmap(process, 4 * PAGE, name="ws")
    for i in range(4):
        kernel.user_write(process, base + i * PAGE, b"w")
    payload = None
    for repeat in (1, 5, 33):
        for i in range(4):
            vaddr = base + i * PAGE + 128
            if batched:
                kernel.user_access_run(process, vaddr, repeat, data=b"x")
                payload = kernel.user_access_run(process, vaddr, repeat,
                                                 size=8)
            else:
                for _ in range(repeat):
                    kernel.user_write(process, vaddr, b"x")
                for _ in range(repeat):
                    payload = kernel.user_read(process, vaddr, 8)
    return kernel_fingerprint(kernel), payload


def test_user_access_run_equals_scalar_touches():
    (scalar_fp, scalar_payload) = _access_run_scenario(batched=False)
    (batched_fp, batched_payload) = _access_run_scenario(batched=True)
    assert scalar_payload == batched_payload
    assert_same(scalar_fp, batched_fp)


def _workload_scenario(use_batch, softtrr):
    profile = WorkloadProfile(
        name="diff-memlat", duration_ms=30, hot_pages=8,
        cold_pool_pages=32, cold_touches=2, write_fraction=0.4,
        churn_prob=0.2, fork_every_slices=10, syscalls_per_slice=2,
        hot_touch_repeat=4)
    kernel = Kernel(strict(machine("thinkpad_x230")))
    if softtrr:
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
    result = SliceWorkload(kernel, profile, seed=99,
                           use_batch=use_batch).run()
    return kernel_fingerprint(kernel), result


def test_workload_slices_batched_equals_scalar():
    """A full churny workload on a SoftTRR-protected kernel: the two
    hot-loop paths consume the seed identically and leave identical
    machines — so every overhead measurement is path-independent."""
    scalar_fp, scalar_result = _workload_scenario(use_batch=False,
                                                  softtrr=True)
    batched_fp, batched_result = _workload_scenario(use_batch=True,
                                                    softtrr=True)
    assert scalar_result == batched_result
    assert_same(scalar_fp, batched_fp)


def test_full_softtrr_run_equivalence():
    """End to end: SoftTRR-protected machine, timers ticking, hammer
    pressure plus workload traffic; identical SoftTrrStats."""
    def scenario(use_batch):
        kernel = Kernel(strict(machine("thinkpad_x230")))
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        attacker = kernel.create_process("attacker")
        base = kernel.mmap(attacker, 8 * PAGE, name="aggressors")
        for i in range(8):
            kernel.user_write(attacker, base + i * PAGE, b"A")
        kit = HammerKit(kernel, attacker, use_batch=use_batch)
        kit.run(round_robin(2, 1000), [base + PAGE, base + 3 * PAGE])
        profile = WorkloadProfile(
            name="diff-mix", duration_ms=10, hot_pages=4,
            cold_pool_pages=16, cold_touches=2, hot_touch_repeat=3)
        SliceWorkload(kernel, profile, seed=5, use_batch=use_batch).run()
        kit.run(round_robin(2, 1000), [base + PAGE, base + 3 * PAGE])
        fingerprint = kernel_fingerprint(kernel)
        assert "softtrr_stats" in fingerprint
        return fingerprint

    assert_same(scenario(use_batch=False), scenario(use_batch=True))
