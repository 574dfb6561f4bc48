"""Page-table entry load/store over simulated physical memory.

Two access planes again:

* **architectural** (:meth:`PageTableOps.read_entry` /
  :meth:`PageTableOps.write_entry`) — what the hardware walker and the
  kernel's mapping code do.  These go through the CPU cache, so a walk
  whose PTE line was clflushed reaches DRAM and *activates the
  page-table row*.  That activation is the entire physical basis of
  PThammer (implicitly hammering L1PTEs via page walks), so it must not
  be shortcut.
* **raw** (:meth:`PageTableOps.raw_read_entry` / ``raw_write_entry``) —
  instrumentation for tests and integrity checks; free of time and
  side effects.

Entries are little-endian 64-bit words.  The two reads, every page
walk's steps, check the index and compute the entry's address once and
decode with ``int.from_bytes``.
"""

from __future__ import annotations

import struct

from ..dram.module import DramModule
from ..errors import MmuError
from .bits import ENTRIES_PER_TABLE, PAGE_SHIFT
from .cache import CpuCache

_ENTRY = struct.Struct("<Q")


def _index_error(index: int) -> MmuError:
    return MmuError(f"PTE index {index} out of range")


class PageTableOps:
    """Entry-granular access to page tables stored in DRAM."""

    def __init__(self, dram: DramModule, cache: CpuCache) -> None:
        self.dram = dram
        self.cache = cache

    @staticmethod
    def entry_paddr(table_ppn: int, index: int) -> int:
        """Physical address of entry ``index`` of the table page."""
        if not 0 <= index < ENTRIES_PER_TABLE:
            raise _index_error(index)
        return (table_ppn << PAGE_SHIFT) + index * 8

    # ------------------------------------------------------ architectural
    def read_entry(self, table_ppn: int, index: int) -> int:
        """Load an entry through the cache (a walk step).

        The DRAM activation (if the line misses) is tagged as
        walker-originated: load-address PMU sampling cannot see it,
        which is why ANVIL-style detectors miss PThammer.
        """
        if not 0 <= index < ENTRIES_PER_TABLE:
            raise _index_error(index)
        dram = self.dram
        dram.walk_origin = True
        try:
            return int.from_bytes(self.cache.load(
                dram, (table_ppn << PAGE_SHIFT) + index * 8, 8), "little")
        finally:
            dram.walk_origin = False

    def write_entry(self, table_ppn: int, index: int, value: int) -> None:
        """Store an entry through the cache (kernel mapping code)."""
        paddr = self.entry_paddr(table_ppn, index)
        self.cache.store(self.dram, paddr, _ENTRY.pack(value))

    # ------------------------------------------------------------- raw
    def raw_read_entry(self, table_ppn: int, index: int) -> int:
        """Instrumentation read: no time, no activation."""
        if not 0 <= index < ENTRIES_PER_TABLE:
            raise _index_error(index)
        return int.from_bytes(self.dram.raw_read(
            (table_ppn << PAGE_SHIFT) + index * 8, 8), "little")

    def raw_write_entry(self, table_ppn: int, index: int, value: int) -> None:
        """Instrumentation write: no time, no activation."""
        paddr = self.entry_paddr(table_ppn, index)
        self.dram.raw_write(paddr, _ENTRY.pack(value))

    def flush_entry(self, table_ppn: int, index: int) -> None:
        """clflush the cache line holding an entry (PThammer, refresher)."""
        self.cache.clflush(self.entry_paddr(table_ppn, index))
