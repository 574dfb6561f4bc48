"""Reference page walks, spelled only with :mod:`repro.mmu.bits` helpers.

``Walker.walk`` and ``Kernel.software_walk`` decode entries in place
with the ``bits`` masks and shift table.  These two walks are the
specification they are held to: every index comes from
``bits.level_index``, every decode from ``bits.is_present``,
``has_reserved_bits``, ``is_huge`` and ``pte_ppn``, and every entry is
loaded through the CPU cache with the walker's origin tag and decoded
with ``struct``, so each read costs what an architectural PTE load
costs.  Neither touches ``PageTableOps.read_entry`` or the TLB.

Each returns an outcome tuple:

* ``("ok", ...)`` — the translation (hardware) or the software walk's
  ``(ppn, leaf_level, pte_paddr, entry)``;
* ``("fault", error_code, leaf_level, pte_paddr)`` — a page fault;
* ``("mmu_error",)`` — a walk the model refuses (non-canonical
  address, 1 GiB page, unaligned 2 MiB base);
* ``("none",)`` — the software walk found no mapping.
"""

import struct

from repro.mmu import bits
from repro.mmu.faults import ErrorCode

_ENTRY = struct.Struct("<Q")


def load_entry(mmu, table_ppn, index):
    """One architectural PTE load: through the cache, walk-tagged."""
    paddr = (table_ppn << bits.PAGE_SHIFT) + index * 8
    mmu.dram.walk_origin = True
    try:
        return _ENTRY.unpack(mmu.cache.load(mmu.dram, paddr, 8))[0], paddr
    finally:
        mmu.dram.walk_origin = False


def error_code(*, is_write, is_user, is_fetch, present, rsvd=False):
    """The Figure 2 error code of an access, bit by bit."""
    code = ErrorCode(0)
    if present or rsvd:
        code |= ErrorCode.PRESENT
    if rsvd:
        code |= ErrorCode.RSVD
    if is_write:
        code |= ErrorCode.WRITE
    if is_user:
        code |= ErrorCode.USER
    if is_fetch:
        code |= ErrorCode.INSTR
    return int(code)


def hardware_walk(mmu, cr3_ppn, vaddr, *, is_write=False, is_user=True,
                  is_fetch=False):
    """The 4-level hardware walk: RSVD and non-present faults at any
    level, permissions accumulated over every level."""
    if not bits.is_canonical(vaddr):
        return ("mmu_error",)
    access = dict(is_write=is_write, is_user=is_user, is_fetch=is_fetch)
    table = cr3_ppn
    eff_rw = eff_user = True
    nx = False
    for level in bits.LEVELS:
        entry, paddr = load_entry(mmu, table, bits.level_index(vaddr, level))
        if not bits.is_present(entry):
            return ("fault", error_code(present=False, **access), level,
                    paddr)
        if bits.has_reserved_bits(entry):
            return ("fault", error_code(present=True, rsvd=True, **access),
                    level, paddr)
        eff_rw = eff_rw and bool(entry & bits.PTE_RW)
        eff_user = eff_user and bool(entry & bits.PTE_USER)
        nx = nx or bool(entry & bits.PTE_NX)
        if level == 1:
            base_ppn = bits.pte_ppn(entry)
            ppn = base_ppn
            break
        if level == 2 and bits.is_huge(entry):
            base_ppn = bits.pte_ppn(entry)
            if base_ppn % bits.ENTRIES_PER_TABLE:
                return ("mmu_error",)
            ppn = base_ppn + bits.level_index(vaddr, 1)
            break
        if level == 3 and bits.is_huge(entry):
            return ("mmu_error",)
        table = bits.pte_ppn(entry)
    flags = ((bits.PTE_RW if eff_rw else 0)
             | (bits.PTE_USER if eff_user else 0)
             | (bits.PTE_NX if nx else 0))
    if ((is_user and not eff_user) or (is_write and is_user and not eff_rw)
            or (is_fetch and nx)):
        return ("fault", error_code(present=True, **access), level, paddr)
    return ("ok", ppn, base_ppn, flags, level, paddr)


def software_walk(mmu, pml4_ppn, vaddr):
    """The kernel's software walk: no faults, the raw leaf or nothing."""
    table = pml4_ppn
    for level in (4, 3, 2):
        entry, paddr = load_entry(mmu, table, bits.level_index(vaddr, level))
        if not bits.is_present(entry):
            return ("none",)
        if level == 2 and bits.is_huge(entry):
            return ("ok", bits.pte_ppn(entry) + bits.level_index(vaddr, 1),
                    2, paddr, entry)
        table = bits.pte_ppn(entry)
    entry, paddr = load_entry(mmu, table, bits.level_index(vaddr, 1))
    if entry == 0:
        return ("none",)
    return ("ok", bits.pte_ppn(entry), 1, paddr, entry)
