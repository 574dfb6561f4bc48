"""The 4-level hardware page walk.

Faithfully models the two behaviours the paper's mechanisms hang on:

* **RSVD faults** — if any entry on the walk has a reserved bit set (in
  particular SoftTRR's bit 51 in a *leaf* entry), the walk raises a page
  fault whose error code has RSVD (and P) set, before the access touches
  the data page.  This is the tracer's capture point.
* **PTE fetches are memory accesses** — each walk step loads its entry
  through the CPU cache; a clflushed (or never-cached) entry reaches
  DRAM and activates the page-table row.  This is PThammer's hammer
  primitive.

Permissions accumulate across levels as on real hardware (user and
write access require US/RW set at *every* level; NX at any level makes
the region non-executable).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MmuError, PageFaultException
from . import bits
from .bits import (INDEX_MASK, LEVEL_SHIFT, PAGE_SHIFT, PTE_ADDR_MASK,
                   PTE_PRESENT, PTE_PSE, PTE_RESERVED_MASK)
from .faults import PageFaultInfo, access_error_code
from .page_table import PageTableOps


@dataclass(frozen=True)
class Translation:
    """Result of a successful walk for one virtual address."""

    #: PPN of the 4 KiB frame containing the address.
    ppn: int
    #: Base PPN of the leaf mapping (== ppn for 4 KiB, 2 MiB-aligned for huge).
    base_ppn: int
    #: Effective flags: PTE_RW / PTE_USER present iff allowed at all levels,
    #: PTE_NX present if any level forbids execution.
    flags: int
    #: 1 for a 4 KiB leaf (L1PT entry), 2 for a 2 MiB huge page (L2 entry).
    leaf_level: int
    #: Physical address of the leaf entry.
    pte_paddr: int


class Walker:
    """Hardware page-table walker."""

    def __init__(self, pt_ops: PageTableOps) -> None:
        self.pt_ops = pt_ops
        self.walks = 0

    def walk(
        self,
        cr3_ppn: int,
        vaddr: int,
        *,
        is_write: bool = False,
        is_user: bool = True,
        is_fetch: bool = False,
        pid=None,
    ) -> Translation:
        """Translate ``vaddr`` or raise :class:`PageFaultException`.

        Each level's index and entry address are computed once, with
        the :mod:`bits` masks and shift table, and the entry is decoded
        in place (``tests/mmu/reference_walk.py`` holds the walk to its
        spelling in :mod:`bits` helpers).
        """
        if not bits.is_canonical(vaddr):
            raise MmuError(f"non-canonical virtual address {vaddr:#x}")
        self.walks += 1
        read_entry = self.pt_ops.read_entry
        table_ppn = cr3_ppn
        # RW and US survive only if every level grants them; NX sticks
        # once any level sets it.
        granted = bits.PTE_RW | bits.PTE_USER
        denied = 0
        for level in (4, 3, 2, 1):
            index = (vaddr >> LEVEL_SHIFT[level]) & INDEX_MASK
            entry = read_entry(table_ppn, index)
            present = entry & PTE_PRESENT
            if not present or entry & PTE_RESERVED_MASK:
                raise PageFaultException(PageFaultInfo(
                    vaddr=vaddr,
                    error_code=access_error_code(
                        is_write=is_write, is_user=is_user, is_fetch=is_fetch,
                        present=bool(present), rsvd=bool(present),
                    ),
                    leaf_level=level,
                    pte_paddr=(table_ppn << PAGE_SHIFT) + index * 8,
                    pid=pid,
                ))
            granted &= entry
            denied |= entry
            if level == 1 or (level == 2 and entry & PTE_PSE):
                break
            if level == 3 and entry & PTE_PSE:
                raise MmuError("1 GiB pages are not modelled")
            table_ppn = (entry & PTE_ADDR_MASK) >> PAGE_SHIFT
        else:  # pragma: no cover - loop always breaks or raises
            raise MmuError("walk fell through")

        base_ppn = (entry & PTE_ADDR_MASK) >> PAGE_SHIFT
        if level == 2 and base_ppn & 0x1FF:
            raise MmuError(
                f"2 MiB mapping at {vaddr:#x} has unaligned base "
                f"ppn {base_ppn:#x}"
            )
        leaf_paddr = (table_ppn << PAGE_SHIFT) + index * 8
        flags = granted | (denied & bits.PTE_NX)
        self._check_permissions(
            vaddr, flags,
            is_write=is_write, is_user=is_user, is_fetch=is_fetch,
            leaf_level=level, pte_paddr=leaf_paddr, pid=pid,
        )
        if level == 2:
            ppn = base_ppn + ((vaddr >> PAGE_SHIFT) & INDEX_MASK)
        else:
            ppn = base_ppn
        return Translation(
            ppn=ppn, base_ppn=base_ppn, flags=flags,
            leaf_level=level, pte_paddr=leaf_paddr,
        )

    @staticmethod
    def _check_permissions(
        vaddr: int, flags: int, *, is_write: bool, is_user: bool,
        is_fetch: bool, leaf_level: int, pte_paddr: int, pid=None,
    ) -> None:
        """Raise a protection fault if the effective flags forbid access."""
        violation = (
            (is_user and not flags & bits.PTE_USER)
            or (is_write and is_user and not flags & bits.PTE_RW)
            or (is_fetch and flags & bits.PTE_NX)
        )
        if violation:
            raise PageFaultException(PageFaultInfo(
                vaddr=vaddr,
                error_code=access_error_code(
                    is_write=is_write, is_user=is_user, is_fetch=is_fetch,
                    present=True,
                ),
                leaf_level=leaf_level,
                pte_paddr=pte_paddr,
                pid=pid,
            ))
