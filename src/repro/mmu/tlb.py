"""TLB model with ``invlpg`` and 2 MiB entries.

The TLB matters to the reproduction for two reasons:

* SoftTRR's tracer must flush the traced page's TLB entry after setting
  the rsvd bit, or the CPU would keep using the cached translation and
  never fault (Section IV-C: the tracer "combines vaddr and mm to flush
  the TLB entry").
* PThammer needs its hammering loads to *miss* the TLB so each load
  performs a page walk that re-fetches the L1PTE from DRAM; its
  kernel-assisted variant uses ``invlpg`` every iteration (Section V-C).

Entries for 4 KiB and 2 MiB pages are kept in separate LRU maps, as on
real cores; ``invlpg`` takes a virtual address and drops whichever entry
covers it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterator, Optional

from ..clock import SimClock
from ..errors import ConfigError
from .bits import HUGE_2M_SHIFT, PAGE_SHIFT, level_index


@dataclass(frozen=True)
class TlbEntry:
    """A cached translation."""

    ppn: int
    #: Effective flag bits (PTE_RW / PTE_USER / PTE_NX semantics).
    flags: int
    #: 1 for 4 KiB leaves, 2 for 2 MiB huge pages.
    leaf_level: int
    #: Physical address of the leaf PTE (kept so a hit still knows where
    #: its translation lives — used only for diagnostics).
    pte_paddr: int

    def frame_ppn(self, vaddr: int) -> int:
        """PPN of the 4 KiB frame holding ``vaddr`` under this entry."""
        if self.leaf_level == 2:
            return self.ppn + level_index(vaddr, 1)
        return self.ppn


class Tlb:
    """Split 4K/2M fully-associative LRU TLB."""

    def __init__(self, clock: SimClock, capacity_4k: int = 1536,
                 capacity_2m: int = 32, hit_ns: int = 1) -> None:
        if capacity_4k < 1 or capacity_2m < 1:
            raise ConfigError("TLB capacities must be positive")
        self.clock = clock
        self.capacity_4k = capacity_4k
        self.capacity_2m = capacity_2m
        self.hit_ns = hit_ns
        self._small: OrderedDict = OrderedDict()
        self._huge: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        # Trace hub, or None when tracing is off (repro.trace attaches).
        # Emission lives here (not in Mmu.invlpg) so an invalidation the
        # fault injector suppressed never shows up in the trace.
        self.trace = None

    # ------------------------------------------------------------- lookup
    def lookup(self, vaddr: int) -> Optional[TlbEntry]:
        """Translation covering ``vaddr``, or None.  A hit costs time."""
        vpn = vaddr >> PAGE_SHIFT
        entry = self._small.get(vpn)
        if entry is not None:
            self._small.move_to_end(vpn)
            self.hits += 1
            self.clock.advance(self.hit_ns)
            return entry
        hvpn = vaddr >> HUGE_2M_SHIFT
        entry = self._huge.get(hvpn)
        if entry is not None:
            self._huge.move_to_end(hvpn)
            self.hits += 1
            self.clock.advance(self.hit_ns)
            return entry
        self.misses += 1
        return None

    def peek(self, vaddr: int) -> Optional[TlbEntry]:
        """Side-effect-free lookup: no time, no LRU movement, no stats.

        Instrumentation for the TLB sanitizer and tests — the equivalent
        of probing the structure with a debugger rather than the CPU.
        """
        entry = self._small.get(vaddr >> PAGE_SHIFT)
        if entry is not None:
            return entry
        return self._huge.get(vaddr >> HUGE_2M_SHIFT)

    def entries(self) -> Iterator[TlbEntry]:
        """Every cached translation, 4 KiB then 2 MiB (instrumentation)."""
        yield from self._small.values()
        yield from self._huge.values()

    # --------------------------------------------------------------- fill
    def fill(self, vaddr: int, entry: TlbEntry) -> None:
        """Insert a translation after a successful walk."""
        if entry.leaf_level == 2:
            key = vaddr >> HUGE_2M_SHIFT
            self._huge[key] = entry
            if len(self._huge) > self.capacity_2m:
                self._huge.popitem(last=False)
        else:
            key = vaddr >> PAGE_SHIFT
            self._small[key] = entry
            if len(self._small) > self.capacity_4k:
                self._small.popitem(last=False)

    # -------------------------------------------------------- invalidation
    def invlpg(self, vaddr: int) -> None:
        """Drop whichever entry covers ``vaddr`` (both granularities)."""
        self.invalidations += 1
        if self.trace is not None:
            self.trace.emit("tlb.invlpg", vaddr=vaddr)
        self._small.pop(vaddr >> PAGE_SHIFT, None)
        self._huge.pop(vaddr >> HUGE_2M_SHIFT, None)

    def flush_all(self) -> None:
        """Full flush (CR3 reload on context switch)."""
        self.invalidations += len(self._small) + len(self._huge)
        if self.trace is not None:
            self.trace.emit("tlb.flush",
                            entries=len(self._small) + len(self._huge))
        self._small.clear()
        self._huge.clear()

    def __len__(self) -> int:
        return len(self._small) + len(self._huge)
