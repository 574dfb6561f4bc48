"""Focused unit tests for tracer internals: stale references, table
purging, arming rules, ring-buffer interplay."""

import pytest

from repro.attacks.placement import free_user_frame, place_l1pt_at
from repro.checkers import sanitized
from repro.clock import NS_PER_MS
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.ringbuf import PteRef
from repro.core.softtrr import SoftTrr
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE

PARAMS = SoftTrrParams(timer_inr_ns=50_000)


def build(pages=24):
    kernel = Kernel(tiny_machine())
    proc = kernel.create_process("app")
    base = kernel.mmap(proc, pages * PAGE)
    for i in range(pages):
        kernel.user_write(proc, base + i * PAGE, bytes([i]))
    module = SoftTrr(PARAMS)
    kernel.load_module("softtrr", module)
    return kernel, proc, base, module


def tick(kernel):
    kernel.clock.advance(PARAMS.timer_inr_ns)
    kernel.dispatch_timers()


def adjacent_vaddr(kernel, proc, base, module, pages=24):
    for i in range(pages):
        ppn = kernel.mapped_ppn_of(proc, base + i * PAGE)
        if ppn is not None and module.collector.is_adjacent(ppn):
            return base + i * PAGE, ppn
    pytest.skip("no adjacent page in this layout")


class TestArmingRules:
    def test_double_arm_is_refused(self):
        kernel, proc, base, module = build()
        tick(kernel)
        tracer = module.tracer
        vaddr, ppn = adjacent_vaddr(kernel, proc, base, module)
        walk = kernel.software_walk(proc.mm, vaddr)
        ref = PteRef(pte_paddr=walk[2], vaddr=vaddr, pid=proc.pid, ppn=ppn)
        assert not tracer._arm_entry(ref, walk[3])  # already armed

    def test_stale_ref_with_wrong_ppn_dropped(self):
        kernel, proc, base, module = build()
        tick(kernel)
        tracer = module.tracer
        vaddr, ppn = adjacent_vaddr(kernel, proc, base, module)
        kernel.user_read(proc, vaddr, 1)  # disarm via capture
        walk = kernel.software_walk(proc.mm, vaddr)
        stale = PteRef(pte_paddr=walk[2], vaddr=vaddr, pid=proc.pid,
                       ppn=ppn + 1)  # wrong frame
        assert not tracer._arm_ref(stale)

    def test_stale_ref_for_unmapped_page_dropped(self):
        kernel, proc, base, module = build()
        tick(kernel)
        tracer = module.tracer
        vaddr, ppn = adjacent_vaddr(kernel, proc, base, module)
        kernel.user_read(proc, vaddr, 1)
        walk = kernel.software_walk(proc.mm, vaddr)
        ref = PteRef(pte_paddr=walk[2], vaddr=vaddr, pid=proc.pid, ppn=ppn)
        kernel.munmap(proc, vaddr, PAGE)
        assert not tracer._arm_ref(ref)

    def test_ref_for_revoked_adjacency_dropped(self):
        kernel, proc, base, module = build()
        tick(kernel)
        tracer = module.tracer
        vaddr, ppn = adjacent_vaddr(kernel, proc, base, module)
        kernel.user_read(proc, vaddr, 1)
        walk = kernel.software_walk(proc.mm, vaddr)
        ref = PteRef(pte_paddr=walk[2], vaddr=vaddr, pid=proc.pid, ppn=ppn)
        module.collector._remove_adjacent_page(ppn)
        assert not tracer._arm_ref(ref)


class TestPurge:
    def test_purge_table_clears_armed_entries(self):
        kernel, proc, base, module = build()
        tick(kernel)
        tracer = module.tracer
        assert tracer._armed
        some_pte_paddr = next(iter(tracer._armed))
        table_ppn = some_pte_paddr >> 12
        before = len(tracer._armed)
        tracer.purge_table(table_ppn)
        assert len(tracer._armed) < before
        assert all(p >> 12 != table_ppn for p in tracer._armed)

    def test_relocated_table_keeps_its_armed_records(self):
        # place_l1pt_at copies the L1PT, trace marks included, into a
        # new frame and then frees the old one.  The armed records must
        # follow the marks: otherwise the next access through a copied
        # mark is a reserved-bit fault nobody owns (a KernelPanic), and
        # the strict PTE sanitizer sees an orphaned mark.
        kernel, proc, base, module = build()
        tracer = module.tracer
        with sanitized(kernel, strict=True) as manager:
            tick(kernel)
            ref = next(iter(tracer._armed.values()))
            old_table = ref.pte_paddr >> 12
            armed_vaddrs = {r.vaddr for r in tracer._armed.values()}
            spare = next(base + i * PAGE for i in reversed(range(24))
                         if base + i * PAGE not in armed_vaddrs)
            target = free_user_frame(kernel, proc, spare)
            moving = sum(1 for p in tracer._armed if p >> 12 == old_table)
            place_l1pt_at(kernel, proc, ref.vaddr, target)
            assert not any(p >> 12 == old_table for p in tracer._armed)
            assert sum(1 for p in tracer._armed
                       if p >> 12 == target) == moving
            manager.checkpoint()
            # The access through the copied mark is a trace fault the
            # tracer owns (stale if the move revoked the adjacency).
            owned = tracer.captured_faults + tracer.stale_faults
            kernel.user_read(proc, ref.vaddr, 1)
            assert tracer.captured_faults + tracer.stale_faults == owned + 1

    def test_process_exit_purges_and_rearms_cleanly(self):
        kernel, proc, base, module = build()
        tick(kernel)
        kernel.exit_process(proc)
        # All armed entries belonged to the dead process's tables,
        # which were freed: the purge hook must have cleaned them.
        dead_tables = set()
        assert all((p >> 12) not in dead_tables for p in module.tracer._armed)
        tick(kernel)  # must not blow up re-arming stale state


class TestCounters:
    def test_captured_vs_stale_accounting(self):
        kernel, proc, base, module = build()
        tick(kernel)
        vaddr, ppn = adjacent_vaddr(kernel, proc, base, module)
        kernel.user_read(proc, vaddr, 1)
        assert module.tracer.captured_faults >= 1
        assert module.tracer.stale_faults == 0

    def test_ever_traced_monotone(self):
        kernel, proc, base, module = build()
        tick(kernel)
        first = module.tracer.traced_ever_count()
        extra = kernel.mmap(proc, 16 * PAGE)
        for i in range(16):
            kernel.user_write(proc, extra + i * PAGE, b"y")
        tick(kernel)
        assert module.tracer.traced_ever_count() >= first


class TestWorkloadDeterminismAcrossDefense:
    def test_same_access_sequence_with_and_without_softtrr(self):
        """The A/B fairness guarantee: the defended run replays the
        identical workload (same touches, churn, forks)."""
        from repro.workloads.base import SliceWorkload, WorkloadProfile
        profile = WorkloadProfile(name="ab", duration_ms=30, hot_pages=8,
                                  cold_pool_pages=64, cold_touches=3,
                                  churn_prob=0.3, churn_pages=4,
                                  fork_every_slices=10)

        def run(defended):
            kernel = Kernel(tiny_machine())
            if defended:
                kernel.load_module("softtrr", SoftTrr(PARAMS))
            return SliceWorkload(kernel, profile, seed=3).run()

        vanilla = run(False)
        defended = run(True)
        assert vanilla.touches == defended.touches
        assert vanilla.churn_events == defended.churn_events
        assert vanilla.forks == defended.forks
        assert defended.runtime_ns >= vanilla.runtime_ns
