"""The Adjacent Page Tracer (Section IV-C).

Mechanism, exactly as the paper lays it out:

* A periodic timer (``timer_inr`` = 1 ms) *arms* traced pages by setting
  reserved bit 51 in the leaf PTE of every virtual mapping of every
  adjacent page, then flushing the TLB entry.
* The next access to an armed page takes a page fault whose error code
  has RSVD set.  The hooked ``do_page_fault`` recognises it, clears the
  bit (so the access can resume at full speed), records the PTE in
  ``pte_ringbuf`` for re-arming at the next timer, and bumps the
  charge-leak counters of every L1PT row near (a) the page's own row and
  (b) the page's L1PT row (the implicit/PThammer direction).
* Subsequent accesses within the same interval are deliberately ignored
  — at most one count per page per interval, which is what makes the
  ``threshold = timer_inr x (count_limit - 1)`` arithmetic sound.
* Arming consumes ``adj_rbtree`` nodes (they are freed once armed; the
  ring buffer carries the page from then on), exactly the first-timer /
  subsequent-timer split of Section IV-C.

:class:`PresentBitTracer` is the design the paper *rejected*: it clears
the present bit instead.  It works — until the kernel's own present-bit
checks (fork's PTE copy) meet an armed entry and panic, which is the
experiment motivating reserved-bit tracing.  It is included to
demonstrate that failure mode (see the robustness tests and the
``present_bit_crash`` example scenario).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Set

from ..mmu import bits
from ..mmu.faults import PageFaultInfo
from .collector import PageTableCollector
from .profile import SoftTrrParams
from .refresher import RowRefresher
from .ringbuf import PteRef, PteRingBuffer


class AdjacentPageTracer:
    """Reserved-bit (bit 51) access tracer."""

    #: PTE bit this tracer flips.  Subclasses override behaviour.
    TRACE_MODE = "rsvd"

    def __init__(self, kernel, collector: PageTableCollector,
                 refresher: RowRefresher, params: SoftTrrParams) -> None:
        self.kernel = kernel
        self.collector = collector
        self.refresher = refresher
        self.params = params
        self.mapping = kernel.dram.mapping
        self.ringbuf = PteRingBuffer(params.ringbuf_capacity)
        #: pte_paddr -> PteRef of currently armed entries.
        self._armed: Dict[int, PteRef] = {}
        self.ticks = 0
        self.armed_total = 0
        self.captured_faults = 0
        self.stale_faults = 0
        self.ever_traced: Set[int] = set()
        # Trace hub, or None when tracing is off (repro.trace attaches).
        self.trace = None

    # ================================================================ arm
    def tick(self) -> None:
        """The periodic timer body: re-arm ring PTEs, arm new adj pages."""
        self.ticks += 1
        kernel = self.kernel
        armed = 0
        # 1. Re-arm PTEs captured since the last tick.
        for ref in list(self.ringbuf.drain()):
            if self._arm_ref(ref):
                armed += 1
        # 2. Arm newly adjacent pages and free their adj_rbtree nodes.
        adj_tree = self.collector.structs.adj_rbtree
        for ppn in list(adj_tree.keys()):
            armed += self._arm_ppn(ppn)
            adj_tree.delete(ppn)
        cost = (kernel.cost.timer_base_ns
                + kernel.cost.timer_per_pte_ns * armed)
        kernel.clock.advance(cost)
        kernel.accountant.charge("softtrr_timer", cost)
        self.armed_total += armed

    def _arm_ppn(self, ppn: int) -> int:
        """Arm every virtual mapping of a physical page; returns count."""
        armed = 0
        for pid, vaddr in self.kernel.rmap.mappings_of(ppn):
            process = self.kernel.processes.get(pid)
            if process is None:
                continue
            walk = self.kernel.software_walk(process.mm, vaddr)
            if walk is None:
                continue
            mapped_ppn, leaf_level, pte_paddr, entry = walk
            ref = PteRef(pte_paddr=pte_paddr, vaddr=vaddr, pid=pid,
                         ppn=ppn, leaf_level=leaf_level)
            if self._arm_entry(ref, entry):
                armed += 1
        if armed:
            self.ever_traced.add(ppn)
        return armed

    def _arm_ref(self, ref: PteRef) -> bool:
        """Re-arm a ring-buffer entry, validating it is not stale."""
        entry = self._read_entry(ref.pte_paddr)
        if not bits.is_present(entry):
            return False
        base_ppn = bits.pte_ppn(entry)
        if ref.leaf_level == 2:
            if not base_ppn <= ref.ppn < base_ppn + 512:
                return False
        elif base_ppn != ref.ppn:
            return False
        if not self.collector.is_adjacent(ref.ppn):
            return False  # adjacency revoked since capture
        return self._arm_entry(ref, entry)

    def _arm_entry(self, ref: PteRef, entry: int) -> bool:
        """Set the trace bit in one leaf PTE and flush its TLB entry."""
        if not bits.is_present(entry):
            return False
        if ref.pte_paddr in self._armed:
            return False
        new_entry = self._mark(entry)
        if new_entry == entry:
            return False
        self._write_entry(ref.pte_paddr, new_entry)
        self.kernel.mmu.invlpg(ref.vaddr)
        self._armed[ref.pte_paddr] = ref
        if self.trace is not None:
            self.trace.emit("pte.arm", pte_paddr=ref.pte_paddr,
                            vaddr=ref.vaddr, ppn=ref.ppn)
        return True

    # ============================================================== faults
    def on_page_fault(self, process, fault: PageFaultInfo):
        """do_page_fault hook: capture our trace faults, pass the rest."""
        if not self._claims(fault):
            return None
        entry = self._read_entry(fault.pte_paddr)
        ref = self._armed.pop(fault.pte_paddr, None)
        if ref is None or not self._is_marked(entry):
            # A reserved-bit fault we did not cause: let the kernel
            # treat it as the corruption it is.
            return None
        # Disarm: restore the entry and flush the stale translation.
        self._write_entry(fault.pte_paddr, self._unmark(entry))
        self.kernel.mmu.invlpg(ref.vaddr)
        if self.trace is not None:
            self.trace.emit("pte.disarm", pte_paddr=fault.pte_paddr,
                            vaddr=ref.vaddr)
        cost = self.kernel.cost.trace_fault_ns
        self.kernel.clock.advance(cost)
        self.kernel.accountant.charge("softtrr_trace_fault", cost)
        # Which 4 KiB page was accessed?
        if ref.leaf_level == 2:
            accessed_ppn = bits.pte_ppn(entry) + bits.level_index(fault.vaddr, 1)
        else:
            accessed_ppn = bits.pte_ppn(entry)
        if not self.collector.is_adjacent(accessed_ppn):
            self.stale_faults += 1
            return "softtrr-stale"
        self.captured_faults += 1
        self.ever_traced.add(accessed_ppn)
        if self.trace is not None:
            self.trace.emit("tracer.capture", ppn=accessed_ppn,
                            pte_paddr=ref.pte_paddr)
        # Re-queue for the next timer.
        self.ringbuf.push(PteRef(
            pte_paddr=ref.pte_paddr, vaddr=ref.vaddr, pid=ref.pid,
            ppn=accessed_ppn, leaf_level=ref.leaf_level))
        # Charge-leak updates: (a) the page's own rows (explicit attacks).
        for bank, row in self.mapping.page_rows(accessed_ppn):
            self.refresher.on_adjacent_access(bank, row)
        # (b) the page's leaf-table rows (implicit attacks/PThammer):
        # walking to this page activates its L1PT row — and, with the
        # Section VII extension, its L2 row too.
        if ref.leaf_level == 1:
            l1_ppn = ref.pte_paddr >> 12
            for bank, row in self.mapping.page_rows(l1_ppn):
                self.refresher.on_adjacent_access(bank, row)
            if 2 in self.params.protect_levels:
                l2_ppn = self._l2_table_of(ref.pid, ref.vaddr)
                if l2_ppn is not None:
                    for bank, row in self.mapping.page_rows(l2_ppn):
                        self.refresher.on_adjacent_access(bank, row)
        elif ref.leaf_level == 2 and 2 in self.params.protect_levels:
            l2_ppn = ref.pte_paddr >> 12
            for bank, row in self.mapping.page_rows(l2_ppn):
                self.refresher.on_adjacent_access(bank, row)
        return "softtrr-traced"

    def _l2_table_of(self, pid: int, vaddr: int) -> Optional[int]:
        """PPN of the L2 (PMD) table covering ``vaddr`` in ``pid``."""
        process = self.kernel.processes.get(pid)
        if process is None:
            return None
        table = process.mm.pml4_ppn
        for level in (4, 3):
            entry = self.kernel.mmu.pt_ops.raw_read_entry(
                table, bits.level_index(vaddr, level))
            if not bits.is_present(entry):
                return None
            table = bits.pte_ppn(entry)
        return table

    def on_page_mapped(self, process, vaddr: int, ppn: int,
                       leaf_level: int) -> None:
        """page-mapped hook: catch pages that become adjacent later."""
        if leaf_level == 2:
            pages = range(ppn, ppn + 512)
        else:
            pages = (ppn,)
        l1_ppn = None
        if leaf_level == 1:
            walk = self.kernel.software_walk(process.mm, vaddr)
            if walk is not None and walk[1] == 1:
                l1_ppn = walk[2] >> 12
        for page in pages:
            if self.collector.is_adjacent(page):
                continue
            if self.collector.classify_new_page(page, l1_ppn):
                self.collector.register_dynamic_adjacent(page)

    def on_pte_cleared(self, pte_paddr: int) -> None:
        """pte-cleared hook: kernel unmap code zeroed this entry.

        The mark died with the entry, so the armed record must go too —
        a stale record would block re-arming when the slot is recycled
        for a new mapping (and desynchronise the tracker from DRAM, the
        exact failure mode the PTE sanitizer exists to catch).
        """
        self._armed.pop(pte_paddr, None)

    def purge_table(self, table_ppn: int) -> None:
        """Forget armed entries living in a freed page-table page.

        Without this, a recycled L1PT frame could alias a stale armed
        record and block re-arming at the same entry address.  A table
        *relocated* before the free — its entries copied, trace marks
        included, into a new frame that now translates the same vaddrs
        — keeps its records: they move to the marked copies, so a later
        access through the copy is a trace fault this tracer owns, not
        an orphaned mark the kernel must panic on.
        """
        for pte_paddr in [paddr for paddr in self._armed
                          if paddr >> 12 == table_ppn]:
            ref = self._armed.pop(pte_paddr)
            moved = self._relocated_slot(ref)
            if moved is not None:
                self._armed[moved] = replace(ref, pte_paddr=moved)

    def _relocated_slot(self, ref: PteRef) -> Optional[int]:
        """Where ``ref``'s marked L1PT entry now lives, if its table moved.

        Walks ``ref.vaddr`` with instrumentation reads (no simulated
        cost) and returns the leaf slot when it is a different, not yet
        tracked slot holding an exact, marked copy of the old entry.
        """
        if ref.leaf_level != 1:
            return None
        pt_ops = self.kernel.mmu.pt_ops
        l2_ppn = self._l2_table_of(ref.pid, ref.vaddr)
        if l2_ppn is None:
            return None
        entry = pt_ops.raw_read_entry(l2_ppn, bits.level_index(ref.vaddr, 2))
        if not bits.is_present(entry) or bits.is_huge(entry):
            return None
        table = bits.pte_ppn(entry)
        index = bits.level_index(ref.vaddr, 1)
        slot = pt_ops.entry_paddr(table, index)
        if slot == ref.pte_paddr or slot in self._armed:
            return None
        old = pt_ops.raw_read_entry(ref.pte_paddr >> 12,
                                    (ref.pte_paddr & 0xFFF) // 8)
        copy = pt_ops.raw_read_entry(table, index)
        if copy != old or not self._is_marked(copy):
            return None
        return slot

    def resync_armed(self) -> int:
        """Drop armed records whose PTE no longer carries the mark.

        Graceful-degradation path (``repro.faults``): when the
        ``pte_cleared`` / ``__free_pages`` notify was dropped, the armed
        registry still references slots the kernel has since zeroed or
        recycled.  Re-reading each entry and discarding unmarked ones
        restores the invariant that armed records mirror marked PTEs,
        unblocking re-arming on recycled slots.  Returns records dropped.
        """
        repaired = 0
        for pte_paddr in list(self._armed):
            entry = self._read_entry(pte_paddr)
            if not self._is_marked(entry):
                del self._armed[pte_paddr]
                repaired += 1
        return repaired

    def reflush_armed(self) -> int:
        """Re-issue ``invlpg`` for armed entries with a live TLB entry.

        Graceful-degradation path (``repro.faults`` tlb site): arming
        always flushes the translation, so *any* TLB entry covering an
        armed vaddr is a stale one — a lost shootdown that lets accesses
        bypass the trace fault entirely.  Returns translations flushed.
        """
        flushed = 0
        for ref in list(self._armed.values()):
            if self.kernel.mmu.tlb.peek(ref.vaddr) is not None:
                self.kernel.mmu.invlpg(ref.vaddr)
                flushed += 1
        return flushed

    def requeue_untraced(self) -> int:
        """Put dropped-out adjacent pages back on the arming queue.

        Graceful-degradation path (``repro.faults`` mmu site): a
        swallowed trace fault disarms the PTE without the ring-buffer
        re-queue, so the page silently leaves the arm/capture cycle
        (ring overflow loses pages the same way).  Any *mapped* adjacent
        page that is neither armed, nor pending in the ring, nor already
        queued in ``adj_rbtree`` is re-queued for the next tick.
        Returns pages re-queued.
        """
        armed_ppns = {ref.ppn for ref in self._armed.values()}
        pending_ppns = {ref.ppn for ref in self.ringbuf.peek_all()}
        adj_tree = self.collector.structs.adj_rbtree
        requeued = 0
        for ppn in self.collector.adjacent_ppns():
            if ppn in armed_ppns or ppn in pending_ppns or ppn in adj_tree:
                continue
            if not self.kernel.rmap.is_mapped(ppn):
                continue
            adj_tree.insert(ppn, True)
            requeued += 1
        return requeued

    # ============================================================ teardown
    def disarm_all(self) -> int:
        """Clear the trace bit everywhere (module unload); returns count."""
        restored = 0
        for pte_paddr, ref in list(self._armed.items()):
            entry = self._read_entry(pte_paddr)
            if self._is_marked(entry):
                self._write_entry(pte_paddr, self._unmark(entry))
                self.kernel.mmu.invlpg(ref.vaddr)
                restored += 1
        self._armed.clear()
        return restored

    # ====================================================== bit strategies
    def _claims(self, fault: PageFaultInfo) -> bool:
        return fault.is_reserved_bit and fault.pte_paddr is not None

    @staticmethod
    def _mark(entry: int) -> int:
        return entry | bits.PTE_RSVD_TRACE

    @staticmethod
    def _unmark(entry: int) -> int:
        return entry & ~bits.PTE_RSVD_TRACE

    @staticmethod
    def _is_marked(entry: int) -> bool:
        return bool(entry & bits.PTE_RSVD_TRACE)

    # ------------------------------------------------------------ pt I/O
    def _read_entry(self, pte_paddr: int) -> int:
        table = pte_paddr >> 12
        index = (pte_paddr & 0xFFF) // 8
        return self.kernel.mmu.pt_ops.read_entry(table, index)

    def _write_entry(self, pte_paddr: int, entry: int) -> None:
        table = pte_paddr >> 12
        index = (pte_paddr & 0xFFF) // 8
        self.kernel.mmu.pt_ops.write_entry(table, index, entry)

    # -------------------------------------------------------------- stats
    def traced_live_count(self) -> int:
        """Currently adjacent (traced) pages — the Fig. 5 series."""
        return self.collector.adjacent_count()

    def traced_ever_count(self) -> int:
        """Distinct pages ever traced."""
        return len(self.ever_traced)


class PresentBitTracer(AdjacentPageTracer):
    """The rejected present-bit design (Section IV-C).

    Arms pages by *clearing* the present bit; captures the resulting
    non-present faults by checking its armed-PTE registry.  Works for
    plain loads — and panics the kernel the moment ``fork`` copies an
    address space containing an armed entry, because the kernel's
    present-bit consistency check sees a non-zero, non-present leaf
    "and the tracer is unaware of when the forking occurs and it cannot
    restore present bit to 1 to pass the kernel check".
    """

    TRACE_MODE = "present"

    def _claims(self, fault: PageFaultInfo) -> bool:
        return (
            fault.is_non_present
            and fault.pte_paddr is not None
            and fault.pte_paddr in self._armed
        )

    @staticmethod
    def _mark(entry: int) -> int:
        return entry & ~bits.PTE_PRESENT

    @staticmethod
    def _unmark(entry: int) -> int:
        return entry | bits.PTE_PRESENT

    @staticmethod
    def _is_marked(entry: int) -> bool:
        return not bits.is_present(entry)

    def _arm_entry(self, ref: PteRef, entry: int) -> bool:
        # Present-bit arming must bypass the is_present() guard.
        if ref.pte_paddr in self._armed:
            return False
        if not bits.is_present(entry):
            return False
        self._write_entry(ref.pte_paddr, self._mark(entry))
        self.kernel.mmu.invlpg(ref.vaddr)
        self._armed[ref.pte_paddr] = ref
        if self.trace is not None:
            self.trace.emit("pte.arm", pte_paddr=ref.pte_paddr,
                            vaddr=ref.vaddr, ppn=ref.ppn)
        return True

    def _arm_ref(self, ref: PteRef) -> bool:
        entry = self._read_entry(ref.pte_paddr)
        if not bits.is_present(entry):
            return False
        if not self.collector.is_adjacent(ref.ppn):
            return False
        return self._arm_entry(ref, entry)
