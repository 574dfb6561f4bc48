"""The MMU facade: TLB + walker + cache in front of DRAM.

:class:`Mmu` is the CPU-side memory interface the kernel and user
processes use.  Responsibilities:

* :meth:`translate` — TLB-first translation; misses run the hardware
  walk (whose PTE loads are real DRAM traffic) and fill the TLB.
* :meth:`load` / :meth:`store` — user-mode data accesses, split per
  page, permission-checked, raising :class:`PageFaultException` for the
  kernel to repair.
* :meth:`phys_load` / :meth:`phys_store` — kernel-mode accesses through
  the direct-physical map (no user page tables involved, but still
  through the cache, so they cost time and can activate rows — the Row
  Refresher depends on exactly that).
* :meth:`clflush` / :meth:`invlpg` — the instructions SoftTRR and the
  attacks lean on.

The MMU is context-free: CR3 is a parameter, and the kernel flushes the
TLB on context switch (:meth:`on_context_switch`).
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..clock import SimClock
from ..dram.module import DramModule
from ..errors import PageFaultException
from . import bits
from .cache import CpuCache
from .faults import PageFaultInfo, access_error_code
from .page_table import PageTableOps
from .tlb import Tlb, TlbEntry
from .walker import Translation, Walker


class Mmu:
    """CPU memory-management unit over a DRAM module."""

    def __init__(
        self,
        clock: SimClock,
        dram: DramModule,
        *,
        cache_lines: int = 8192,
        cache_hit_ns: int = 1,
        clflush_ns: int = 12,
        tlb_hit_ns: int = 1,
        invlpg_ns: int = 150,
    ) -> None:
        self.clock = clock
        self.dram = dram
        self.cache = CpuCache(
            clock, capacity_lines=cache_lines,
            hit_ns=cache_hit_ns, clflush_ns=clflush_ns,
        )
        self.tlb = Tlb(clock, hit_ns=tlb_hit_ns)
        self.pt_ops = PageTableOps(dram, self.cache)
        self.walker = Walker(self.pt_ops)
        self.invlpg_ns = invlpg_ns
        # Trace hub, or None when tracing is off (repro.trace attaches).
        # Point events for invlpg live in the Tlb (past the fault
        # injector's wrap, so suppressed invalidations never emit).
        self.trace = None

    # -------------------------------------------------------- translation
    def translate(
        self,
        cr3_ppn: int,
        vaddr: int,
        *,
        is_write: bool = False,
        is_user: bool = True,
        is_fetch: bool = False,
        pid: Optional[int] = None,
    ) -> Translation:
        """Translate one virtual address, using the TLB when possible."""
        entry = self._entry(cr3_ppn, vaddr, is_write, is_user, is_fetch, pid)
        return Translation(
            ppn=entry.frame_ppn(vaddr), base_ppn=entry.ppn,
            flags=entry.flags, leaf_level=entry.leaf_level,
            pte_paddr=entry.pte_paddr,
        )

    def _entry(
        self, cr3_ppn: int, vaddr: int, is_write: bool, is_user: bool,
        is_fetch: bool, pid: Optional[int],
    ) -> TlbEntry:
        """The TLB entry covering ``vaddr``: a hit, permission-checked,
        or a miss, walked and filled.  A hit builds no object."""
        entry = self.tlb.lookup(vaddr)
        if entry is None:
            translation = self.walker.walk(
                cr3_ppn, vaddr,
                is_write=is_write, is_user=is_user, is_fetch=is_fetch,
                pid=pid,
            )
            entry = TlbEntry(
                ppn=translation.base_ppn,
                flags=translation.flags,
                leaf_level=translation.leaf_level,
                pte_paddr=translation.pte_paddr,
            )
            self.tlb.fill(vaddr, entry)
            return entry
        flags = entry.flags
        if (
            (is_user and not flags & bits.PTE_USER)
            or (is_write and is_user and not flags & bits.PTE_RW)
            or (is_fetch and flags & bits.PTE_NX)
        ):
            raise PageFaultException(PageFaultInfo(
                vaddr=vaddr,
                error_code=access_error_code(
                    is_write=is_write, is_user=is_user, is_fetch=is_fetch,
                    present=True,
                ),
                leaf_level=entry.leaf_level,
                pte_paddr=entry.pte_paddr,
                pid=pid,
            ))
        return entry

    # ------------------------------------------------------- user access
    def load(
        self, cr3_ppn: int, vaddr: int, size: int, *,
        is_user: bool = True, is_fetch: bool = False,
        pid: Optional[int] = None,
    ) -> bytes:
        """User-mode load, split per page; faults propagate.

        A load inside one page (every hammer-loop touch) is one
        translation and one cache load.
        """
        offset = vaddr & 0xFFF
        if offset + size <= 4096:
            if size <= 0:
                return b""
            entry = self._entry(cr3_ppn, vaddr, False, is_user, is_fetch,
                                pid)
            return self.cache.load(
                self.dram, (entry.frame_ppn(vaddr) << 12) | offset, size)
        out = bytearray()
        cursor = vaddr
        end = vaddr + size
        while cursor < end:
            page_end = bits.page_base(cursor) + 4096
            chunk = min(page_end - cursor, end - cursor)
            entry = self._entry(cr3_ppn, cursor, False, is_user, is_fetch,
                                pid)
            paddr = (entry.frame_ppn(cursor) << 12) | (cursor & 0xFFF)
            out.extend(self.cache.load(self.dram, paddr, chunk))
            cursor += chunk
        return bytes(out)

    def store(
        self, cr3_ppn: int, vaddr: int, data: bytes, *,
        is_user: bool = True, pid: Optional[int] = None,
    ) -> None:
        """User-mode store, split per page; faults propagate.

        A store inside one page is one translation and one cache store.
        """
        offset = vaddr & 0xFFF
        if offset + len(data) <= 4096:
            if not data:
                return
            entry = self._entry(cr3_ppn, vaddr, True, is_user, False, pid)
            self.cache.store(
                self.dram, (entry.frame_ppn(vaddr) << 12) | offset, data)
            return
        cursor = vaddr
        pos = 0
        end = vaddr + len(data)
        while cursor < end:
            page_end = bits.page_base(cursor) + 4096
            chunk = min(page_end - cursor, end - cursor)
            entry = self._entry(cr3_ppn, cursor, True, is_user, False, pid)
            paddr = (entry.frame_ppn(cursor) << 12) | (cursor & 0xFFF)
            self.cache.store(self.dram, paddr, data[pos:pos + chunk])
            cursor += chunk
            pos += chunk

    def access_run(
        self, cr3_ppn: int, vaddr: int, size: int, count: int, *,
        data: Optional[bytes] = None, pid: Optional[int] = None,
    ) -> Tuple[int, Optional[bytes]]:
        """``count`` user-mode :meth:`load` calls (or :meth:`store` calls
        when ``data`` is given); returns ``(count, last_bytes)``, where
        ``last_bytes`` is None for stores.  Faults propagate.

        No package code calls it; it stays because
        ``perfbench/layertrace.py`` resolves the name when it installs.
        """
        last: Optional[bytes] = None
        for _ in range(count):
            if data is None:
                last = self.load(cr3_ppn, vaddr, size, pid=pid)
            else:
                self.store(cr3_ppn, vaddr, data, pid=pid)
        return max(count, 0), last

    # ------------------------------------------------------ kernel access
    def phys_load(self, paddr: int, size: int) -> bytes:
        """Kernel read through the direct-physical map."""
        return self.cache.load(self.dram, paddr, size)

    def phys_store(self, paddr: int, data: bytes) -> None:
        """Kernel write through the direct-physical map."""
        self.cache.store(self.dram, paddr, data)

    # ------------------------------------------------------ page tables
    def write_pte(self, table_ppn: int, index: int, value: int) -> None:
        """Architectural page-table store — the kernel's sanctioned path.

        Kernel mapping code (and anything outside ``mmu/``) must come
        through here rather than calling ``pt_ops.write_entry`` directly
        (lint rule RPR004): keeping a single entry point is what lets
        the runtime sanitizers observe every PTE store.
        """
        self.pt_ops.write_entry(table_ppn, index, value)

    # -------------------------------------------------------- maintenance
    def clflush(self, paddr: int) -> None:
        """Flush one cache line by physical address."""
        self.cache.clflush(paddr)

    def invlpg(self, vaddr: int) -> None:
        """Invalidate the TLB entry covering ``vaddr``."""
        self.tlb.invlpg(vaddr)
        self.clock.advance(self.invlpg_ns)

    def on_context_switch(self) -> None:
        """CR3 reload semantics: drop all (non-global) TLB entries."""
        self.tlb.flush_all()
