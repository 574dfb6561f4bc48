"""Spans at the exact end of a page or line, and one byte across it.

``DramModule.raw_read`` has an in-page case, ``DramModule.write`` and
``CpuCache.store`` a one-line case and ``Mmu.store`` a one-page case.
Each is checked on a span that ends exactly at its unit's end and on
one that crosses it by a byte: the bytes must land (or come back)
where the byte-level model says, and each layer must do the per-unit
work the model predicts: one DRAM line transaction per line, one cache
line touched or filled per line, one TLB lookup per page.  A bad span
(size zero or negative, a negative address, past capacity) raises
``DramError`` with ``reads``, ``writes`` and the clock untouched.
"""

import pytest

from repro.dram.module import DramModule
from repro.errors import DramError

from .helpers import MmuBed

VADDR = 0x0000_7F00_1234_5000
PATTERN = bytes((7 * i + 3) % 256 for i in range(3 * 4096))

#: (label, offset of the span's start before the unit's end, size).
AT_END = [("ends_at_unit_end", 8, 8), ("one_byte_across", 7, 8)]


def spanned(start, size, unit):
    """The ``unit``-aligned blocks [start, start + size) touches."""
    first = start - start % unit
    return list(range(first, start + size, unit))


def counting(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def wrapper(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.mark.parametrize("label, back, size", AT_END,
                         ids=[row[0] for row in AT_END])
def test_raw_read_at_page_end(label, back, size):
    bed = MmuBed()
    dram = bed.dram
    dram.raw_write(0x5000, PATTERN)
    paddr = 0x6000 - back
    before = (bed.clock.now_ns, dram.reads, dram.writes)
    data = dram.raw_read(paddr, size)
    assert type(data) is bytes
    assert data == PATTERN[paddr - 0x5000:paddr - 0x5000 + size]
    assert (bed.clock.now_ns, dram.reads, dram.writes) == before
    # An absent frame reads as zeros on either side of the boundary.
    assert dram.raw_read(0x20000 - back, size) == bytes(size)


@pytest.mark.parametrize("label, back, size", AT_END,
                         ids=[row[0] for row in AT_END])
def test_dram_write_at_line_end(label, back, size, monkeypatch):
    bed = MmuBed()
    dram = bed.dram
    lines = counting(monkeypatch, DramModule, "_transact_line")
    paddr = 0x5040 - back
    dram.write(paddr, PATTERN[:size])
    assert [args[0] for args in lines] == spanned(paddr, size, 64)
    assert dram.writes == 1
    assert dram.raw_read(paddr - 8, size + 16) == (
        bytes(8) + PATTERN[:size] + bytes(8))


@pytest.mark.parametrize("label, back, size", AT_END,
                         ids=[row[0] for row in AT_END])
def test_cache_store_at_line_end(label, back, size):
    bed = MmuBed()
    cache, dram = bed.mmu.cache, bed.dram
    cache.load(dram, 0x5040, 8)  # the second line is already cached
    paddr = 0x5040 - back
    cache.store(dram, paddr, PATTERN[:size])
    lines = spanned(paddr, size, 64)
    assert set(cache._lines) == set(lines) | {0x5040}
    # The store touched its lines in order, so its last line is now the
    # most recent, whether it was cached before or filled.
    assert list(cache._lines)[-1] == lines[-1]
    assert dram.writes == 1
    assert dram.raw_read(paddr, size) == PATTERN[:size]


@pytest.mark.parametrize("label, back, size", AT_END,
                         ids=[row[0] for row in AT_END])
def test_mmu_store_at_page_end(label, back, size):
    bed = MmuBed()
    bed.map_page(VADDR, ppn=3)
    bed.map_page(VADDR + 0x1000, ppn=4)
    tlb = bed.mmu.tlb
    vaddr = VADDR + 0x1000 - back
    bed.mmu.store(bed.cr3, vaddr, PATTERN[:size])
    pages = spanned(vaddr, size, 4096)
    assert tlb.hits + tlb.misses == len(pages)
    assert bed.dram.writes == len(pages)
    # Frames 3 and 4 are physically adjacent, so the bytes are too.
    assert bed.dram.raw_read(0x4000 - back, size) == PATTERN[:size]


def test_mmu_store_of_nothing_does_nothing():
    bed = MmuBed()
    bed.mmu.store(bed.cr3, VADDR, b"")
    tlb = bed.mmu.tlb
    assert (tlb.hits, tlb.misses, bed.dram.writes, bed.clock.now_ns) == (
        0, 0, 0, 0)


BAD_SPANS = [("size_zero", 0x5000, 0), ("size_negative", 0x5000, -8),
             ("negative_address", -8, 8), ("past_capacity", None, 8),
             ("straddles_capacity", None, 16)]
#: (op, label, paddr, size): a payload has no negative length.
BAD_CALLS = [(op, *row) for op in ("read", "raw_read", "write", "raw_write")
             for row in BAD_SPANS
             if op in ("read", "raw_read") or row[2] >= 0]


@pytest.mark.parametrize("op, label, paddr, size", BAD_CALLS,
                         ids=[f"{row[0]}-{row[1]}" for row in BAD_CALLS])
def test_bad_spans_raise_and_count_nothing(op, label, paddr, size):
    bed = MmuBed()
    dram = bed.dram
    capacity = dram.geometry.capacity_bytes
    if paddr is None:
        paddr = capacity - 8 if label == "straddles_capacity" else capacity
    dram.raw_write(0x5000, PATTERN[:64])
    before = (dram.reads, dram.writes, bed.clock.now_ns, dict(dram._frames))
    with pytest.raises(DramError):
        if op in ("read", "raw_read"):
            getattr(dram, op)(paddr, size)
        else:
            getattr(dram, op)(paddr, PATTERN[:size])
    assert (dram.reads, dram.writes, bed.clock.now_ns,
            dict(dram._frames)) == before


def test_cache_store_of_nothing_raises_before_touching_a_line():
    bed = MmuBed()
    cache = bed.mmu.cache
    with pytest.raises(DramError):
        cache.store(bed.dram, 0x5000, b"")
    assert len(cache) == 0
