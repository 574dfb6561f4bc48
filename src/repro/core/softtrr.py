"""The SoftTRR loadable kernel module.

:class:`SoftTrr` wires the collector, tracer and refresher together and
attaches to the kernel exactly the way the paper's LKM does — through
dynamic hooks and a periodic timer, with no kernel modification (DP2):

* ``__pte_alloc``   -> collector (new L1PT pages);
* ``__free_pages``  -> collector (page-table and adjacent-page deaths);
* ``do_page_fault`` -> tracer (captures RSVD trace faults);
* ``page_mapped``   -> tracer (pages that become adjacent later);
* a ``timer_inr``-periodic kernel timer -> tracer tick.

Typical use::

    kernel = Kernel(perf_testbed())
    softtrr = SoftTrr(SoftTrrParams(max_distance=6))
    kernel.load_module("softtrr", softtrr)
    ...
    stats = softtrr.stats()

The two evaluation configurations of Section VI are
``SoftTrrParams(max_distance=6)`` (Δ±6, the default) and
``SoftTrrParams(max_distance=1)`` (Δ±1, the one-row assumption previous
work makes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SoftTrrError
from ..kernel.hooks import (
    HOOK_FREE_PAGES,
    HOOK_PAGE_FAULT,
    HOOK_PAGE_MAPPED,
    HOOK_PMD_ALLOC,
    HOOK_PTE_ALLOC,
    HOOK_PTE_CLEARED,
)
from ..kernel.physmem import FrameUse
from .collector import PageTableCollector
from .profile import OfflineProfile, SoftTrrParams
from .refresher import RowRefresher
from .structures import SoftTrrStructures
from .tracer import AdjacentPageTracer, PresentBitTracer


@dataclass
class SoftTrrStats:
    """Snapshot of the module's observable state."""

    protected_pages: int
    traced_pages_live: int
    traced_pages_ever: int
    refreshes: int
    leak_bumps: int
    captured_faults: int
    ticks: int
    memory_bytes: int
    tree_bytes: int
    ringbuf_bytes: int
    load_time_ns: int
    # Graceful-degradation counters (``repro.faults``); all zero when no
    # fault plan is active and healing is off.
    failed_refreshes: int = 0
    retried_refreshes: int = 0
    watchdog_refreshes: int = 0
    resyncs: int = 0
    resync_repairs: int = 0


class SoftTrr:
    """The SoftTRR module (Figure 1)."""

    name = "softtrr"

    def __init__(self, params: Optional[SoftTrrParams] = None,
                 force_unsafe: bool = False, assume_remap=None) -> None:
        self.params = params or SoftTrrParams()
        #: Skip the offline-profile safety check at load (ablations only).
        self.force_unsafe = force_unsafe
        #: In-DRAM remap the module *believes* the DIMM uses.  None =
        #: use the machine's true remap (the paper's assumption that it
        #: was reverse-engineered correctly); passing IdentityRemap on a
        #: folded module models a wrong assumption (ablation).
        self.assume_remap = assume_remap
        self.kernel = None
        self.structs: Optional[SoftTrrStructures] = None
        self.collector: Optional[PageTableCollector] = None
        self.tracer: Optional[AdjacentPageTracer] = None
        self.refresher: Optional[RowRefresher] = None
        self._timer_event = None
        self._hook_callbacks = []
        self.loaded = False
        self.load_time_ns = 0
        #: Simulated time of the last *delivered* tick; the watchdog
        #: compares successive values against timer_inr to detect ticks
        #: the machine lost (repro.faults timer site).
        self._last_tick_ns: Optional[int] = None
        self.resyncs = 0
        self.resync_repairs = 0
        #: Simulated time the module has added on top of the workload:
        #: timer ticks, captured trace faults (including their kernel
        #: entry), hook work.  The workload engine reads this to keep
        #: slice padding from masking the defense's cost.
        self.overhead_ns = 0
        # Trace hub, or None when tracing is off (picked up from
        # ``kernel.trace_hub`` at load and fanned out to the components).
        self.trace = None

    # ================================================================ load
    def load(self, kernel) -> None:
        """Module init: collect, hook, start the tracer timer."""
        if self.loaded:
            raise SoftTrrError("SoftTRR already loaded")
        self.kernel = kernel
        unsafe = OfflineProfile(kernel.dram.timings).check(self.params)
        if unsafe is not None and not self.force_unsafe:
            raise SoftTrrError(f"unsafe configuration: {unsafe}")
        remap = self.assume_remap if self.assume_remap is not None \
            else kernel.dram.remap
        self.structs = SoftTrrStructures(remap=remap)
        self.collector = PageTableCollector(kernel, self.structs, self.params)
        self.refresher = RowRefresher(kernel, self.structs, self.params)
        tracer_cls = (PresentBitTracer if self.params.trace_bit == "present"
                      else AdjacentPageTracer)
        self.tracer = tracer_cls(kernel, self.collector, self.refresher,
                                 self.params)
        # Fan the machine's trace hub (if any) out to the components
        # before the initial collection so its span is recorded too.
        hub = getattr(kernel, "trace_hub", None)
        self.trace = hub
        if hub is not None:
            self.collector.trace = hub
            self.refresher.trace = hub
            self.tracer.trace = hub
        # Initial collection, with its one-off load cost (the paper
        # measures ~28 ms): walking every VMA page of every process.
        start = kernel.clock.now_ns
        walked_pages = sum(
            vma.page_count
            for process in kernel.processes.values()
            for vma in process.mm.vmas
        )
        collected = self.collector.initial_collect()
        # ~140 ns per walked VMA page + ~2 us per collected L1PT: at the
        # resident population of a desktop system (~200 K mapped pages)
        # this extrapolates to the paper's ~28 ms one-off load cost.
        kernel.clock.advance(walked_pages * 140 + collected * 2_000)
        self.load_time_ns = kernel.clock.now_ns - start
        # Hooks (kept so unload can detach exactly what it attached).
        self._hook_callbacks = [
            (HOOK_PTE_ALLOC, self._on_pte_alloc),
            (HOOK_FREE_PAGES, self._on_free_pages),
            (HOOK_PAGE_FAULT, self._on_page_fault),
            (HOOK_PAGE_MAPPED, self._on_page_mapped),
            (HOOK_PTE_CLEARED, self._on_pte_cleared),
        ]
        if 2 in self.params.protect_levels:
            self._hook_callbacks.append((HOOK_PMD_ALLOC, self._on_pmd_alloc))
        for point, callback in self._hook_callbacks:
            kernel.hooks.register(point, callback)
        self._timer_event = kernel.timers.add_periodic(
            self.params.timer_inr_ns, self._on_tick, name="softtrr-tick")
        self._last_tick_ns = kernel.clock.now_ns
        self.loaded = True

    def _on_tick(self) -> None:
        kernel = self.kernel
        t0 = kernel.clock.now_ns
        span = (self.trace.span_begin("softtrr.tick")
                if self.trace is not None else 0)
        params = self.params
        if params.heal_watchdog and self._last_tick_ns is not None:
            # Missed-window detection: successive delivered ticks should
            # be one timer_inr apart; each extra interval is a window in
            # which a traced page could have taken an uncounted access.
            gap = t0 - self._last_tick_ns
            missed = gap // params.timer_inr_ns - 1
            if missed >= 1:
                self.refresher.compensate(missed)
                injector = getattr(kernel, "fault_injector", None)
                if injector is not None:
                    injector.note_healed("timers", missed)
        self.tracer.tick()
        if (params.heal_resync_every
                and self.tracer.ticks % params.heal_resync_every == 0):
            self.resync()
        self._last_tick_ns = t0
        self.overhead_ns += kernel.clock.now_ns - t0
        if self.trace is not None:
            self.trace.span_end("softtrr.tick", span)

    def resync(self) -> int:
        """Re-walk collector and armed-PTE state (heal_resync_every).

        Repairs the desync left by dropped hook deliveries: uncollected
        live page tables, stale protected entries, armed records whose
        PTE lost its mark.  Returns the number of repairs.
        """
        if not self.loaded:
            raise SoftTrrError("SoftTRR not loaded")
        hook_repairs = self.collector.resync()
        hook_repairs += self.tracer.resync_armed()
        flushed = self.tracer.reflush_armed()
        requeued = self.tracer.requeue_untraced()
        repairs = hook_repairs + flushed + requeued
        self.resyncs += 1
        self.resync_repairs += repairs
        # Bounded re-walk of live tables: charge like collector hook work.
        cost = self.kernel.cost.collector_hook_ns * max(1, repairs)
        self.kernel.clock.advance(cost)
        self.kernel.accountant.charge("softtrr_collector", cost)
        injector = getattr(self.kernel, "fault_injector", None)
        if injector is not None:
            if hook_repairs:
                injector.note_healed("hooks", hook_repairs)
            if flushed:
                injector.note_healed("tlb", flushed)
            if requeued:
                injector.note_healed("mmu", requeued)
        return repairs

    def _on_page_fault(self, process, fault):
        t0 = self.kernel.clock.now_ns
        result = self.tracer.on_page_fault(process, fault)
        if result is not None:
            # The fault would not exist without tracing: its kernel
            # entry/exit overhead is the module's cost too.
            self.overhead_ns += (self.kernel.clock.now_ns - t0
                                 + self.kernel.cost.page_fault_overhead_ns)
        return result

    def _on_page_mapped(self, process, vaddr, ppn, leaf_level) -> None:
        t0 = self.kernel.clock.now_ns
        # The adjacency check is real kernel work on the mapping path.
        self.kernel.clock.advance(120)
        self.kernel.accountant.charge("softtrr_collector", 120)
        self.tracer.on_page_mapped(process, vaddr, ppn, leaf_level)
        self.overhead_ns += self.kernel.clock.now_ns - t0

    def _on_pte_alloc(self, process, pt_ppn: int) -> None:
        t0 = self.kernel.clock.now_ns
        self.kernel.clock.advance(self.kernel.cost.collector_hook_ns)
        self.kernel.accountant.charge(
            "softtrr_collector", self.kernel.cost.collector_hook_ns)
        self.collector.on_pt_alloc(process, pt_ppn)
        self.overhead_ns += self.kernel.clock.now_ns - t0

    def _on_pte_cleared(self, pte_paddr: int) -> None:
        self.tracer.on_pte_cleared(pte_paddr)

    def _on_pmd_alloc(self, process, pmd_ppn: int) -> None:
        t0 = self.kernel.clock.now_ns
        self.kernel.clock.advance(self.kernel.cost.collector_hook_ns)
        self.kernel.accountant.charge(
            "softtrr_collector", self.kernel.cost.collector_hook_ns)
        self.collector.on_pmd_alloc(process, pmd_ppn)
        self.overhead_ns += self.kernel.clock.now_ns - t0

    # ----------------------------------------------- Section VII user API
    def protect_user_object(self, process, vaddr: int, length: int) -> int:
        """Protect an arbitrary user object (Section VII): "trusted user
        can pass specified objects (i.e., binary code pages of setuid
        processes) to SoftTRR through a provided user API and SoftTRR
        uses similar mechanisms to protect those objects."

        Pre-faults the range, then registers every backing frame as a
        protected page: its DRAM rows join ``pt_row_rbtree``, nearby
        user pages become traced, and the Row Refresher recharges the
        object's rows when hammering is detected.  Returns the number of
        pages protected.
        """
        if not self.loaded:
            raise SoftTrrError("SoftTRR not loaded")
        kernel = self.kernel
        kernel.mlock(process, vaddr, length)
        protected = 0
        end = vaddr + length
        page = vaddr & ~0xFFF
        while page < end:
            ppn = kernel.mapped_ppn_of(process, page)
            if ppn is not None and self.collector.protect_object_page(ppn):
                protected += 1
            page += 4096
        return protected

    def _on_free_pages(self, base_ppn: int, order: int, use) -> None:
        t0 = self.kernel.clock.now_ns
        self.kernel.clock.advance(self.kernel.cost.collector_hook_ns)
        self.kernel.accountant.charge(
            "softtrr_collector", self.kernel.cost.collector_hook_ns)
        self.collector.on_free_pages(base_ppn, order, use)
        if use is FrameUse.PAGE_TABLE:
            for ppn in range(base_ppn, base_ppn + (1 << order)):
                self.tracer.purge_table(ppn)
        self.overhead_ns += self.kernel.clock.now_ns - t0

    # ============================================================== unload
    def unload(self, kernel) -> None:
        """Module exit: detach hooks, stop the timer, disarm PTEs."""
        if not self.loaded:
            raise SoftTrrError("SoftTRR not loaded")
        for point, callback in self._hook_callbacks:
            kernel.hooks.unregister(point, callback)
        self._hook_callbacks = []
        if self._timer_event is not None:
            kernel.timers.cancel(self._timer_event)
            self._timer_event = None
        self.tracer.disarm_all()
        self.loaded = False

    # ================================================================ stats
    def memory_bytes(self) -> int:
        """Footprint of the three trees + the ring buffer (Fig. 4).

        Trees are counted at node granularity ("a total memory size of
        three red-black trees", Section VI-B); the ring buffer at its
        pre-allocated capacity (396 KiB).  Slab-page-granular numbers
        are available via ``structs.memory_bytes()``.
        """
        return (self.structs.live_node_bytes()
                + self.tracer.ringbuf.capacity_bytes())

    def stats(self) -> SoftTrrStats:
        """A consistent snapshot of the module's counters."""
        if self.structs is None:
            raise SoftTrrError("SoftTRR never loaded")
        return SoftTrrStats(
            protected_pages=self.collector.protected_count(),
            traced_pages_live=self.tracer.traced_live_count(),
            traced_pages_ever=self.tracer.traced_ever_count(),
            refreshes=self.refresher.refreshes,
            leak_bumps=self.refresher.leak_bumps,
            captured_faults=self.tracer.captured_faults,
            ticks=self.tracer.ticks,
            memory_bytes=self.memory_bytes(),
            tree_bytes=self.structs.live_node_bytes(),
            ringbuf_bytes=self.tracer.ringbuf.capacity_bytes(),
            load_time_ns=self.load_time_ns,
            failed_refreshes=self.refresher.failed_refreshes,
            retried_refreshes=self.refresher.retried_refreshes,
            watchdog_refreshes=self.refresher.watchdog_refreshes,
            resyncs=self.resyncs,
            resync_repairs=self.resync_repairs,
        )
