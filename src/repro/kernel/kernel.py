"""The kernel facade: boot, processes, paging, hooks, modules.

This is the operating-system substrate SoftTRR loads into.  It owns the
machine (clock, DRAM, MMU), manages physical frames through a pluggable
placement policy, implements demand paging and fork/exit, maintains the
reverse map, exposes the inline-hook points the paper's LKM attaches to,
and dispatches kernel timers at its entry points.

Design notes relevant to fidelity:

* **Page-table pages come from the same buddy pool as user pages** under
  the default policy — that physical co-location is what every attack in
  the paper exploits, and what CATT/CTA/ZebRAM change.
* **fork checks the present bit of leaf PTEs** while copying an address
  space.  A non-zero, non-present leaf (that is not a swap entry — the
  model has no swap) is a corrupted PTE and panics the kernel.  This is
  precisely why the paper's tracer cannot use the present bit and uses
  reserved bit 51 instead (Section IV-C); the alternative present-bit
  tracer in :mod:`repro.core.tracer` demonstrates the crash.
* **Timers fire at kernel dispatch points** (syscall entry, user memory
  access, fault handling), bounding how stale SoftTRR's 1 ms tick can
  get relative to user activity.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..clock import CycleAccountant, SimClock
from ..config import MachineSpec
from ..errors import (
    BadAddressError,
    KernelError,
    KernelPanic,
    PageFaultException,
    SegmentationFault,
)
from ..mmu import bits
from ..mmu.bits import (INDEX_MASK, LEVEL_SHIFT, PAGE_SHIFT, PTE_ADDR_MASK,
                        PTE_PRESENT, PTE_PSE)
from ..mmu.faults import PageFaultInfo
from ..mmu.mmu import Mmu
from .buddy import BuddyAllocator
from .hooks import (
    HOOK_CONTEXT_SWITCH,
    HOOK_FREE_PAGES,
    HOOK_PAGE_FAULT,
    HOOK_PAGE_FAULT_POST,
    HOOK_PAGE_MAPPED,
    HOOK_PMD_ALLOC,
    HOOK_PTE_ALLOC,
    HOOK_PTE_CLEARED,
    HookManager,
)
from .physmem import DefaultFramePolicy, FramePolicy, FrameTable, FrameUse
from .process import MmStruct, Process
from .rmap import ReverseMap
from .timer import KernelTimers
from .vma import HUGE, PAGE, Vma, VmaFlags

#: Start of the direct-physical map in kernel virtual space ([25]).
DIRECT_MAP_BASE = 0xFFFF_8880_0000_0000

#: Frames reserved for the kernel image and static data.
KERNEL_RESERVED_FRAMES = 64

#: Default leaf flags for user mappings.
USER_PTE_FLAGS = bits.PTE_PRESENT | bits.PTE_RW | bits.PTE_USER


class Kernel:
    """A booted machine: kernel + MMU + DRAM on one simulated clock."""

    def __init__(
        self,
        spec: MachineSpec,
        frame_policy_factory: Optional[Callable[[BuddyAllocator, "Kernel"], FramePolicy]] = None,
    ) -> None:
        self.spec = spec
        self.cost = spec.cost
        self.clock = SimClock()
        self.dram = spec.build_dram(self.clock)
        self.mmu = Mmu(
            self.clock,
            self.dram,
            cache_hit_ns=self.cost.cache_hit_ns,
            clflush_ns=self.cost.clflush_ns,
            tlb_hit_ns=self.cost.tlb_hit_ns,
            invlpg_ns=self.cost.invlpg_ns,
        )
        total_frames = self.dram.geometry.capacity_bytes // PAGE
        self.total_frames = total_frames
        self.buddy = BuddyAllocator(
            KERNEL_RESERVED_FRAMES, total_frames - KERNEL_RESERVED_FRAMES
        )
        if frame_policy_factory is None:
            self.frame_policy: FramePolicy = DefaultFramePolicy(self.buddy)
        else:
            self.frame_policy = frame_policy_factory(self.buddy, self)
        self.frame_table = FrameTable(total_frames)
        self.rmap = ReverseMap()
        self.hooks = HookManager()
        self.timers = KernelTimers(self.clock)
        self.accountant = CycleAccountant()
        self.processes: Dict[int, Process] = {}
        self.current: Optional[Process] = None
        self._next_pid = 1
        self._modules: Dict[str, object] = {}
        self._in_timer_dispatch = False
        # Statistics the evaluation consumes.
        self.faults_handled = 0
        self.demand_pages = 0
        self.forks = 0
        self.segfaults = 0
        #: Runtime invariant sanitizers (:mod:`repro.checkers`), once
        #: installed with ``install_sanitizers`` / ``with
        #: sanitized(kernel):``.
        self.sanitizers = None
        #: Trace hub (:mod:`repro.trace`), or None when tracing is off.
        #: Lives on the kernel so a machine deepcopy carries exactly one
        #: hub and every component's ``trace`` reference follows it.
        self.trace_hub = None
        self.trace = None

    # =============================================================== frames
    def alloc_frame(self, use: FrameUse, order: int = 0) -> int:
        """Allocate (and zero) a 2**order block; returns base PPN."""
        base = self.frame_policy.alloc(use, order)
        self.frame_table.record_alloc(base, use, order)
        for ppn in range(base, base + (1 << order)):
            self.dram.raw_write(ppn << 12, b"\x00" * PAGE)
        return base

    def free_frame(self, base_ppn: int, order: int = 0) -> None:
        """Free a block; fires the ``__free_pages`` hook first."""
        use, recorded_order = self.frame_table.record_free(base_ppn)
        if recorded_order != order:
            raise KernelError(
                f"free order mismatch for {base_ppn:#x}: "
                f"{recorded_order} vs {order}"
            )
        self.hooks.notify(HOOK_FREE_PAGES, base_ppn, order, use)
        self.frame_policy.free(base_ppn, use, order)

    # =========================================================== direct map
    def kvaddr_of(self, paddr: int) -> int:
        """Kernel virtual address of a physical address (direct map)."""
        return DIRECT_MAP_BASE + paddr

    def paddr_of_kvaddr(self, kvaddr: int) -> int:
        """Inverse of :meth:`kvaddr_of`."""
        if kvaddr < DIRECT_MAP_BASE:
            raise KernelError(f"{kvaddr:#x} is not a direct-map address")
        return kvaddr - DIRECT_MAP_BASE

    def kernel_read(self, kvaddr: int, size: int) -> bytes:
        """Architectural kernel read through the direct map."""
        return self.mmu.phys_load(self.paddr_of_kvaddr(kvaddr), size)

    def kernel_write(self, kvaddr: int, data: bytes) -> None:
        """Architectural kernel write through the direct map."""
        self.mmu.phys_store(self.paddr_of_kvaddr(kvaddr), data)

    # ============================================================ processes
    def create_process(self, name: str = "proc") -> Process:
        """Create a process with an empty address space."""
        pml4 = self.alloc_frame(FrameUse.PAGE_TABLE)
        mm = MmStruct(pml4_ppn=pml4)
        mm.upper_table_pages.append(pml4)
        mm.table_levels[pml4] = 4
        process = Process(pid=self._next_pid, name=name, mm=mm)
        self._next_pid += 1
        self.processes[process.pid] = process
        if self.current is None:
            self.current = process
        return process

    def switch_to(self, process: Process) -> None:
        """Context switch: CR3 reload semantics + cost."""
        if not process.alive:
            raise KernelError(f"switching to dead process {process.pid}")
        if self.current is process:
            return
        self.current = process
        self.mmu.on_context_switch()
        self.clock.advance(self.cost.context_switch_ns)
        self.accountant.charge("context_switch", self.cost.context_switch_ns)
        self.hooks.notify(HOOK_CONTEXT_SWITCH, process)

    # ---------------------------------------------------------- page tables
    def _ensure_l1_table(self, process: Process, vaddr: int) -> int:
        """Walk/create upper levels; returns the L1 table's PPN.

        Fires the ``__pte_alloc`` hook when a *new* L1PT page is created,
        which is how SoftTRR's collector sees dynamic page-table births.
        """
        table, index = self._l2_slot_of(process, vaddr)
        entry = self.mmu.pt_ops.read_entry(table, index)
        if not bits.is_present(entry):
            l1 = self.alloc_frame(FrameUse.PAGE_TABLE)
            process.mm.pte_page_population[l1] = 0
            self.mmu.write_pte(
                table, index, bits.make_pte(l1, USER_PTE_FLAGS))
            self.accountant.charge("pte_alloc_hook", self.cost.collector_hook_ns)
            self.hooks.notify(HOOK_PTE_ALLOC, process, l1)
            return l1
        if bits.is_huge(entry):
            raise KernelError(f"{vaddr:#x} already covered by a huge mapping")
        return bits.pte_ppn(entry)

    def _l2_slot_of(self, process: Process, vaddr: int) -> Tuple[int, int]:
        """(L2 table ppn, index) covering ``vaddr``; creates upper levels."""
        mm = process.mm
        table = mm.pml4_ppn
        for level in (4, 3):
            index = bits.level_index(vaddr, level)
            entry = self.mmu.pt_ops.read_entry(table, index)
            if not bits.is_present(entry):
                child = self.alloc_frame(FrameUse.PAGE_TABLE)
                mm.upper_table_pages.append(child)
                mm.table_levels[child] = level - 1
                self.mmu.write_pte(
                    table, index, bits.make_pte(child, USER_PTE_FLAGS))
                if level - 1 == 2:
                    self.hooks.notify(HOOK_PMD_ALLOC, process, child)
                table = child
            else:
                table = bits.pte_ppn(entry)
        return table, bits.level_index(vaddr, 2)

    def map_page(self, process: Process, vaddr: int, ppn: int,
                 flags: int = USER_PTE_FLAGS) -> None:
        """Install a 4 KiB user mapping."""
        l1 = self._ensure_l1_table(process, vaddr)
        index = bits.level_index(vaddr, 1)
        old = self.mmu.pt_ops.read_entry(l1, index)
        if bits.is_present(old):
            raise KernelError(f"{vaddr:#x} already mapped in pid {process.pid}")
        self.mmu.write_pte(l1, index, bits.make_pte(ppn, flags))
        process.mm.pte_page_population[l1] = (
            process.mm.pte_page_population.get(l1, 0) + 1)
        self.rmap.add(ppn, process.pid, bits.page_base(vaddr))
        self.hooks.notify(HOOK_PAGE_MAPPED, process,
                          bits.page_base(vaddr), ppn, 1)

    def map_huge_page(self, process: Process, vaddr: int, base_ppn: int,
                      flags: int = USER_PTE_FLAGS) -> None:
        """Install a 2 MiB user mapping (PS entry at L2)."""
        if vaddr % HUGE:
            raise KernelError("huge mapping must be 2 MiB aligned")
        l2, index = self._l2_slot_of(process, vaddr)
        old = self.mmu.pt_ops.read_entry(l2, index)
        if bits.is_present(old):
            raise KernelError(f"{vaddr:#x} already covered at L2")
        self.mmu.write_pte(
            l2, index, bits.make_pte(base_ppn, flags | bits.PTE_PSE))
        for i in range(HUGE // PAGE):
            self.rmap.add(base_ppn + i, process.pid, vaddr + i * PAGE)
        self.hooks.notify(HOOK_PAGE_MAPPED, process, vaddr, base_ppn, 2)

    def unmap_page(self, process: Process, vaddr: int) -> Optional[int]:
        """Remove a 4 KiB mapping; returns the PPN it held (or None).

        Frees the L1PT page when its last entry goes away (firing
        ``__free_pages``), which is how the collector learns about
        page-table deaths.
        """
        mm = process.mm
        walk = self.software_walk(mm, vaddr)
        if walk is None:
            return None
        ppn, leaf_level, pte_paddr, entry = walk
        if leaf_level != 1:
            raise KernelError("unmap_page on a huge mapping")
        l1 = pte_paddr >> 12
        index = (pte_paddr & 0xFFF) // 8
        self.mmu.write_pte(l1, index, 0)
        self.hooks.notify(HOOK_PTE_CLEARED, pte_paddr)
        self.mmu.invlpg(bits.page_base(vaddr))
        self.rmap.remove(ppn, process.pid, bits.page_base(vaddr))
        mm.pte_page_population[l1] -= 1
        if mm.pte_page_population[l1] == 0:
            self._free_l1_table(process, vaddr, l1)
        return ppn

    def _free_l1_table(self, process: Process, vaddr: int, l1: int) -> None:
        """Release an empty L1PT page and clear its L2 entry."""
        mm = process.mm
        l2, index = self._l2_slot_of(process, vaddr)
        self.mmu.write_pte(l2, index, 0)
        self.hooks.notify(
            HOOK_PTE_CLEARED, self.mmu.pt_ops.entry_paddr(l2, index))
        del mm.pte_page_population[l1]
        self.free_frame(l1)

    def unmap_huge_page(self, process: Process, vaddr: int) -> Optional[int]:
        """Remove a 2 MiB mapping; returns its base PPN (or None)."""
        l2, index = self._l2_slot_of(process, vaddr)
        entry = self.mmu.pt_ops.read_entry(l2, index)
        if not bits.is_present(entry) or not bits.is_huge(entry):
            return None
        base_ppn = bits.pte_ppn(entry)
        self.mmu.write_pte(l2, index, 0)
        self.hooks.notify(
            HOOK_PTE_CLEARED, self.mmu.pt_ops.entry_paddr(l2, index))
        self.mmu.invlpg(vaddr)
        for i in range(HUGE // PAGE):
            self.rmap.remove(base_ppn + i, process.pid, vaddr + i * PAGE)
        return base_ppn

    def software_walk(
        self, mm: MmStruct, vaddr: int
    ) -> Optional[Tuple[int, int, int, int]]:
        """Kernel software walk: (ppn, leaf_level, pte_paddr, entry) or None.

        Unlike the hardware walker this does not fault on rsvd bits or
        permissions — it reports the raw leaf, which is what kernel code
        (and SoftTRR) needs.  Reads are architectural (cached).  Each
        level's index and entry address are computed once, with the
        :mod:`~repro.mmu.bits` masks and shift table.
        """
        read_entry = self.mmu.pt_ops.read_entry
        table = mm.pml4_ppn
        for level in (4, 3, 2):
            index = (vaddr >> LEVEL_SHIFT[level]) & INDEX_MASK
            entry = read_entry(table, index)
            if not entry & PTE_PRESENT:
                return None
            if level == 2 and entry & PTE_PSE:
                return (((entry & PTE_ADDR_MASK) >> PAGE_SHIFT)
                        + ((vaddr >> PAGE_SHIFT) & INDEX_MASK), 2,
                        (table << PAGE_SHIFT) + index * 8, entry)
            table = (entry & PTE_ADDR_MASK) >> PAGE_SHIFT
        index = (vaddr >> PAGE_SHIFT) & INDEX_MASK
        entry = read_entry(table, index)
        if entry == 0:
            return None
        return ((entry & PTE_ADDR_MASK) >> PAGE_SHIFT, 1,
                (table << PAGE_SHIFT) + index * 8, entry)

    # ================================================================= mmap
    def mmap(self, process: Process, length: int, *,
             flags: VmaFlags = None, name: str = "anon",
             huge: bool = False, at: Optional[int] = None) -> int:
        """Create an anonymous demand-paged mapping; returns its base."""
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        if flags is None:
            flags = VmaFlags.rw()
        mm = process.mm
        align = HUGE if huge else PAGE
        length = (length + align - 1) & ~(align - 1)
        if length <= 0:
            raise BadAddressError(0, "mmap of zero length")
        if at is not None:
            start = at
        elif huge:
            start = mm.huge_cursor
            mm.huge_cursor += length + HUGE
        else:
            start = mm.mmap_cursor
            mm.mmap_cursor += length + PAGE
        if huge:
            flags |= VmaFlags.HUGEPAGE
        vma = Vma(start=start, end=start + length, flags=flags, name=name)
        mm.add_vma(vma)
        return start

    def munmap(self, process: Process, vaddr: int, length: int) -> None:
        """Unmap [vaddr, vaddr+length), freeing frames and empty PTs."""
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        mm = process.mm
        length = (length + PAGE - 1) & ~(PAGE - 1)
        end = vaddr + length
        victims = [v for v in mm.vmas if v.overlaps(vaddr, end)]
        if not victims:
            raise BadAddressError(vaddr, "munmap of unmapped range")
        for vma in victims:
            if vma.flags & VmaFlags.DEVICE:
                # Device frames belong to the driver: unmap the covered
                # pages (splitting the VMA if partial), don't free them.
                lo = max(vma.start, vaddr)
                hi = min(vma.end, end)
                for page in range(lo, hi, PAGE):
                    self.unmap_page(process, page)
                mm.remove_vma(vma)
                if vma.start < lo:
                    mm.add_vma(Vma(vma.start, lo, vma.flags, vma.name))
                if hi < vma.end:
                    mm.add_vma(Vma(hi, vma.end, vma.flags, vma.name))
                continue
            if vma.is_huge():
                if vaddr > vma.start or end < vma.end:
                    raise KernelError("partial munmap of huge VMA unsupported")
                for base in range(vma.start, vma.end, HUGE):
                    ppn = self.unmap_huge_page(process, base)
                    if ppn is not None:
                        self.free_frame(ppn, order=9)
                mm.remove_vma(vma)
                continue
            lo = max(vma.start, vaddr)
            hi = min(vma.end, end)
            for page in range(lo, hi, PAGE):
                ppn = self.unmap_page(process, page)
                if ppn is not None:
                    self.free_frame(ppn)
            # Reshape the VMA.
            mm.remove_vma(vma)
            if vma.start < lo:
                mm.add_vma(Vma(vma.start, lo, vma.flags, vma.name))
            if hi < vma.end:
                mm.add_vma(Vma(hi, vma.end, vma.flags, vma.name))

    def brk(self, process: Process, new_brk: int) -> int:
        """Grow/shrink the heap; returns the resulting brk."""
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        mm = process.mm
        new_brk = (new_brk + PAGE - 1) & ~(PAGE - 1)
        if new_brk < mm.brk_start:
            raise BadAddressError(new_brk, "brk below heap start")
        old = mm.brk
        if new_brk > old:
            mm.add_vma(Vma(old, new_brk, VmaFlags.rw(), name="heap"))
        elif new_brk < old:
            self.munmap(process, new_brk, old - new_brk)
        mm.brk = new_brk
        return mm.brk

    def mlock(self, process: Process, vaddr: int, length: int) -> None:
        """Pre-fault and pin a range (prefault via the fault path)."""
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        if self.current is not process:
            # The faults below run in the caller's context — placement
            # policies (e.g. RIP-RH) route by the allocating process.
            self.switch_to(process)
        end = vaddr + length
        for page in range(bits.page_base(vaddr), end, PAGE):
            if self.software_walk(process.mm, page) is None:
                vma = process.mm.find_vma(page)
                if vma is None:
                    raise BadAddressError(page, "mlock of unmapped range")
                self._demand_page(process, vma, page, is_write=False)

    def mremap(self, process: Process, old_vaddr: int, old_len: int,
               new_len: int) -> int:
        """Move/resize a mapping; returns the new base address."""
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        mm = process.mm
        vma = mm.find_vma(old_vaddr)
        if vma is None or vma.start != old_vaddr:
            raise BadAddressError(old_vaddr, "mremap of unmapped base")
        if vma.is_huge():
            raise KernelError("mremap of huge VMA unsupported")
        new_base = mm.mmap_cursor
        mm.mmap_cursor += ((new_len + PAGE - 1) & ~(PAGE - 1)) + PAGE
        new_len = (new_len + PAGE - 1) & ~(PAGE - 1)
        new_vma = Vma(new_base, new_base + new_len, vma.flags, vma.name)
        # Move existing frames that still fit.
        moved = []
        for offset in range(0, min(old_len, new_len), PAGE):
            old_page = old_vaddr + offset
            walk = self.software_walk(mm, old_page)
            if walk is None:
                continue
            ppn = self.unmap_page(process, old_page)
            moved.append((new_base + offset, ppn))
        mm.remove_vma(vma)
        mm.add_vma(new_vma)
        for new_page, ppn in moved:
            self.map_page(process, new_page, ppn)
        return new_base

    # =========================================================== page faults
    def handle_page_fault(self, process: Process, fault: PageFaultInfo) -> None:
        """The do_page_fault entry point (hookable)."""
        self.faults_handled += 1
        self.clock.advance(self.cost.page_fault_overhead_ns)
        self.accountant.charge("page_fault", self.cost.page_fault_overhead_ns)
        if self.trace is not None and fault.is_reserved_bit:
            self.trace.emit("kernel.rsvd_fault", vaddr=fault.vaddr)
        handled = self.hooks.dispatch(HOOK_PAGE_FAULT, process, fault)
        if handled is not None:
            return
        self._default_page_fault(process, fault)

    def _default_page_fault(self, process: Process, fault: PageFaultInfo) -> None:
        if fault.is_reserved_bit:
            # No module claimed a reserved-bit fault: the kernel treats
            # this as a corrupted PTE.
            raise KernelPanic(
                f"unexpected reserved bit set in PTE for {fault.vaddr:#x}"
            )
        vma = process.mm.find_vma(fault.vaddr)
        if vma is None:
            self.segfaults += 1
            raise SegmentationFault(fault.vaddr, "no VMA")
        if fault.is_write and not vma.is_writable():
            self.segfaults += 1
            raise SegmentationFault(fault.vaddr, "write to read-only VMA")
        if not fault.is_non_present:
            self.segfaults += 1
            raise SegmentationFault(fault.vaddr, "permission violation")
        mapped = self._demand_page(
            process, vma, fault.vaddr, is_write=fault.is_write)
        self.hooks.notify(HOOK_PAGE_FAULT_POST, process, fault, mapped)

    def _demand_page(self, process: Process, vma: Vma, vaddr: int,
                     *, is_write: bool) -> Tuple[int, int]:
        """Allocate and map the page backing ``vaddr``.

        Returns (base ppn, leaf_level) of the new mapping.
        """
        self.demand_pages += 1
        self.clock.advance(self.cost.demand_paging_ns)
        self.accountant.charge("demand_paging", self.cost.demand_paging_ns)
        flags = bits.PTE_PRESENT | bits.PTE_USER
        if vma.is_writable():
            flags |= bits.PTE_RW
        if not vma.is_executable():
            flags |= bits.PTE_NX
        if vma.is_huge():
            base = bits.huge_base(vaddr)
            ppn = self.alloc_frame(FrameUse.USER, order=9)
            self.map_huge_page(process, base, ppn, flags)
            return ppn, 2
        ppn = self.alloc_frame(FrameUse.USER)
        self.map_page(process, bits.page_base(vaddr), ppn, flags)
        return ppn, 1

    # ============================================================== access
    def dispatch_timers(self) -> None:
        """Run due kernel timers (idempotent, non-reentrant).

        Returns at once when no timer is due (:meth:`SimClock.has_due`,
        ``pop_due``'s own loop condition), which is what almost every
        dispatch point finds.
        """
        if self._in_timer_dispatch or not self.clock.has_due():
            return
        self._in_timer_dispatch = True
        try:
            self.timers.run_pending()
        finally:
            self._in_timer_dispatch = False

    def _user_op(self, process: Process, op: Callable[..., object],
                 *args, **kwargs) -> object:
        """Run ``op(*args, **kwargs)``, a user memory operation, with
        the fault-repair loop."""
        self.dispatch_timers()
        if self.current is not process:
            self.switch_to(process)
        for _ in range(64):
            try:
                return op(*args, **kwargs)
            except PageFaultException as exc:
                self.handle_page_fault(process, exc.info)
        raise KernelError("fault livelock: access kept faulting")

    def user_read(self, process: Process, vaddr: int, size: int) -> bytes:
        """A user-mode load (with demand paging / tracing side effects)."""
        return self._user_op(process, self.mmu.load, process.mm.pml4_ppn,
                             vaddr, size, pid=process.pid)

    def user_write(self, process: Process, vaddr: int, data: bytes) -> None:
        """A user-mode store."""
        self._user_op(process, self.mmu.store, process.mm.pml4_ppn,
                      vaddr, data, pid=process.pid)

    def user_access_run(
        self, process: Process, vaddr: int, count: int, *,
        size: int = 8, data: Optional[bytes] = None,
    ) -> Optional[bytes]:
        """``count`` :meth:`user_read` calls of ``size`` bytes (or
        :meth:`user_write` calls when ``data`` is given); returns the
        last read's bytes (None for writes).

        No package code calls it; it stays because
        ``perfbench/layertrace.py`` resolves the name when it installs.
        """
        last: Optional[bytes] = None
        for _ in range(count):
            if data is None:
                last = self.user_read(process, vaddr, size)
            else:
                self.user_write(process, vaddr, data)
        return last

    def user_fetch(self, process: Process, vaddr: int, size: int = 16) -> bytes:
        """A user-mode instruction fetch."""
        return self._user_op(process, self.mmu.load, process.mm.pml4_ppn,
                             vaddr, size, is_fetch=True, pid=process.pid)

    # ================================================================ fork
    def fork(self, parent: Process, name: Optional[str] = None) -> Process:
        """Fork: copy the address space eagerly (no COW in the model).

        While copying, the kernel checks leaf PTEs' present bits: a
        non-zero, non-present leaf is a corrupted entry => KernelPanic.
        """
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        self.forks += 1
        child = self.create_process(name or f"{parent.name}-child")
        child.parent_pid = parent.pid
        mm = parent.mm
        child.mm.brk_start = mm.brk_start
        child.mm.brk = mm.brk
        child.mm.mmap_cursor = mm.mmap_cursor
        child.mm.huge_cursor = mm.huge_cursor
        for vma in mm.vmas:
            child.mm.add_vma(Vma(vma.start, vma.end, vma.flags, vma.name))
            if vma.flags & VmaFlags.DEVICE:
                # Device mappings are shared, not copied.
                for page in vma.pages():
                    walk = self.software_walk(mm, page)
                    if walk is not None:
                        self._fork_check_leaf(walk[3], page)
                        self.map_page(child, page, walk[0],
                                      bits.pte_flags(walk[3]) & ~bits.PTE_RSVD_TRACE)
                continue
            if vma.is_huge():
                for base in range(vma.start, vma.end, HUGE):
                    walk = self.software_walk(mm, base)
                    if walk is None:
                        continue
                    self._fork_check_leaf(walk[3], base)
                    new_base = self.alloc_frame(FrameUse.USER, order=9)
                    for i in range(HUGE // PAGE):
                        data = self.dram.raw_read((walk[0] + i) << 12, PAGE)
                        self.dram.raw_write((new_base + i) << 12, data)
                    self.map_huge_page(child, base, new_base,
                                       bits.pte_flags(walk[3])
                                       & ~(bits.PTE_PSE | bits.PTE_RSVD_TRACE))
                continue
            for page in vma.pages():
                walk = self.software_walk(mm, page)
                if walk is None:
                    continue
                entry = walk[3]
                self._fork_check_leaf(entry, page)
                new_ppn = self.alloc_frame(FrameUse.USER)
                self.dram.raw_write(
                    new_ppn << 12, self.dram.raw_read(walk[0] << 12, PAGE))
                self.map_page(child, page, new_ppn,
                              bits.pte_flags(entry) & ~bits.PTE_RSVD_TRACE)
        return child

    @staticmethod
    def _fork_check_leaf(entry: int, vaddr: int) -> None:
        """The present-bit consistency check that dooms a P-bit tracer."""
        if entry != 0 and not bits.is_present(entry):
            raise KernelPanic(
                f"fork: leaf PTE for {vaddr:#x} is non-zero but not "
                f"present ({entry:#x}) — corrupted page table"
            )

    # ================================================================ exit
    def exit_process(self, process: Process, code: int = 0) -> None:
        """Tear down a process: frames, L1PTs, upper tables."""
        self.dispatch_timers()
        self.clock.advance(self.cost.syscall_ns)
        if not process.alive:
            raise KernelError(f"double exit of pid {process.pid}")
        for vma in list(process.mm.vmas):
            if vma.flags & VmaFlags.DEVICE:
                # Unmap but do not free device frames (driver owns them).
                for page in vma.pages():
                    self.unmap_page(process, page)
                process.mm.remove_vma(vma)
            else:
                self.munmap(process, vma.start, vma.length)
        for table in reversed(process.mm.upper_table_pages):
            self.free_frame(table)
        process.mm.upper_table_pages.clear()
        self.rmap.remove_process(process.pid)
        process.alive = False
        process.exit_code = code
        del self.processes[process.pid]
        if self.current is process:
            self.current = None

    # ============================================================== modules
    def load_module(self, name: str, module) -> None:
        """Load an LKM-style module (calls ``module.load(kernel)``)."""
        if name in self._modules:
            raise KernelError(f"module {name!r} already loaded")
        module.load(self)
        self._modules[name] = module

    def unload_module(self, name: str) -> None:
        """Unload a module (calls ``module.unload(kernel)``)."""
        module = self._modules.pop(name, None)
        if module is None:
            raise KernelError(f"module {name!r} not loaded")
        module.unload(self)

    def module(self, name: str):
        """A loaded module by name, or None."""
        return self._modules.get(name)

    def loaded_modules(self) -> List:
        """All loaded modules (load order)."""
        return list(self._modules.values())

    def defense_overhead_ns(self) -> int:
        """Total simulated time loaded modules added (``overhead_ns``
        accumulators); the workload engine uses this so that slice
        padding cannot mask a defense's cost."""
        return sum(getattr(module, "overhead_ns", 0)
                   for module in self._modules.values())

    # ============================================================== queries
    def l1pt_frames(self) -> List[int]:
        """PPNs of every live L1PT page across all processes."""
        out: List[int] = []
        for process in self.processes.values():
            out.extend(process.mm.pte_page_population.keys())
        return out

    def mapped_ppn_of(self, process: Process, vaddr: int) -> Optional[int]:
        """PPN backing ``vaddr`` (software walk), or None."""
        walk = self.software_walk(process.mm, vaddr)
        return walk[0] if walk else None
