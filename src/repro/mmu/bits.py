"""x86-64 page-table entry bit layout.

The layout follows the Intel SDM [22] for 4-level paging.  The bit
SoftTRR repurposes is **bit 51**: with MAXPHYADDR = 46 on the paper's
CPUs, bits 46..51 of a PTE are reserved-must-be-zero, and setting any of
them makes the next hardware walk fault with the RSVD error-code bit —
without the kernel ever checking or caring about the bit itself
(Section IV-C: "the tracer chooses a rsrv bit, i.e., bit 51 in the PTE").

Entries are plain 64-bit integers; this module is pure bit arithmetic so
every other layer (walker, kernel, SoftTRR, attacks) shares one source
of truth for the encoding.
"""

from __future__ import annotations

from typing import List, Tuple

# ----------------------------------------------------------------- flags
PTE_PRESENT = 1 << 0
PTE_RW = 1 << 1
PTE_USER = 1 << 2
PTE_PWT = 1 << 3
PTE_PCD = 1 << 4
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
#: Page-size bit: set in an L2 (PD) entry for a 2 MiB page or an L3
#: (PDPT) entry for a 1 GiB page.
PTE_PSE = 1 << 7
PTE_GLOBAL = 1 << 8
#: The reserved bit SoftTRR's tracer sets (bit 51).
PTE_RSVD_TRACE = 1 << 51
PTE_NX = 1 << 63

#: Physical-address field of an entry: bits 12..45 (MAXPHYADDR = 46).
#: Bits 46..51 are reserved; any of them set => RSVD page fault.
MAXPHYADDR = 46
PTE_ADDR_MASK = ((1 << MAXPHYADDR) - 1) & ~0xFFF
#: All reserved-must-be-zero bits of a leaf entry.
PTE_RESERVED_MASK = (((1 << 52) - 1) ^ ((1 << MAXPHYADDR) - 1)) & ~0xFFF | PTE_RSVD_TRACE

# -------------------------------------------------------- address split
#: Paging levels, leaf-first naming used throughout the stack:
#: level 1 = PT (4 KiB leaves), 2 = PD, 3 = PDPT, 4 = PML4.
LEVELS = (4, 3, 2, 1)
ENTRIES_PER_TABLE = 512
#: Mask of one level's 9-bit table index, once shifted down.
INDEX_MASK = ENTRIES_PER_TABLE - 1
PAGE_SHIFT = 12
HUGE_2M_SHIFT = 21
VADDR_BITS = 48
#: Shift of each level's table index in a virtual address, indexed by
#: level (entry 0 unused): ``level_index(v, level)`` is
#: ``(v >> LEVEL_SHIFT[level]) & INDEX_MASK``.  The page walks read it
#: instead of calling :func:`level_index` per level.
LEVEL_SHIFT = (0,) + tuple(PAGE_SHIFT + 9 * (level - 1)
                           for level in (1, 2, 3, 4))


def make_pte(ppn: int, flags: int) -> int:
    """Encode an entry pointing at physical page ``ppn`` with ``flags``."""
    return ((ppn << PAGE_SHIFT) & PTE_ADDR_MASK) | flags


def pte_ppn(entry: int) -> int:
    """Physical page number an entry points at."""
    return (entry & PTE_ADDR_MASK) >> PAGE_SHIFT


def pte_flags(entry: int) -> int:
    """The non-address bits of an entry."""
    return entry & ~PTE_ADDR_MASK


def is_present(entry: int) -> bool:
    """Whether the entry's present bit is set."""
    return bool(entry & PTE_PRESENT)


def has_reserved_bits(entry: int) -> bool:
    """Whether any reserved-must-be-zero bit is set (=> RSVD fault)."""
    return bool(entry & PTE_RESERVED_MASK)


def is_huge(entry: int) -> bool:
    """Whether a PD/PDPT entry maps a huge page (PS bit)."""
    return bool(entry & PTE_PSE)


def level_index(vaddr: int, level: int) -> int:
    """The 9-bit table index for ``vaddr`` at paging ``level`` (1..4)."""
    shift = PAGE_SHIFT + 9 * (level - 1)
    return (vaddr >> shift) & INDEX_MASK


def split_vaddr(vaddr: int) -> Tuple[int, int, int, int, int]:
    """(pml4, pdpt, pd, pt, page-offset) of a canonical virtual address."""
    return (
        level_index(vaddr, 4),
        level_index(vaddr, 3),
        level_index(vaddr, 2),
        level_index(vaddr, 1),
        vaddr & 0xFFF,
    )


def vpn_of(vaddr: int) -> int:
    """Virtual page number (4 KiB granularity)."""
    return vaddr >> PAGE_SHIFT


def page_base(vaddr: int) -> int:
    """4 KiB-aligned base of the page containing ``vaddr``."""
    return vaddr & ~0xFFF


def huge_base(vaddr: int) -> int:
    """2 MiB-aligned base of the huge page containing ``vaddr``."""
    return vaddr & ~((1 << HUGE_2M_SHIFT) - 1)


def is_canonical(vaddr: int) -> bool:
    """Whether ``vaddr`` is canonical for 48-bit virtual addressing."""
    top = vaddr >> (VADDR_BITS - 1)
    return top == 0 or top == (1 << (64 - VADDR_BITS + 1)) - 1


def describe(entry: int) -> str:
    """Human-readable rendering of an entry, for diagnostics."""
    if entry == 0:
        return "<empty>"
    names: List[str] = []
    for bit, name in (
        (PTE_PRESENT, "P"),
        (PTE_RW, "RW"),
        (PTE_USER, "US"),
        (PTE_ACCESSED, "A"),
        (PTE_DIRTY, "D"),
        (PTE_PSE, "PS"),
        (PTE_GLOBAL, "G"),
        (PTE_RSVD_TRACE, "RSVD51"),
        (PTE_NX, "NX"),
    ):
        if entry & bit:
            names.append(name)
    return f"ppn={pte_ppn(entry):#x} [{' '.join(names)}]"
