"""The access shapes of the load path, pinned against a line-level model.

``Mmu.load``, ``CpuCache.load`` and ``DramModule.read`` each split a
span per page and per line; a hammer-loop touch is one 8-byte load
inside one line of one page.  For every shape below — size 0 (and
negative), inside one line, straddling two lines, straddling two pages,
and a load through a 2 MiB page — each layer must return the backing
bytes and move the TLB and cache hit/miss counters, the DRAM read and
activation counters and the clock exactly as the model says: one TLB
lookup per page touched, one cache lookup per line touched, one DRAM
line transaction per missed line, activating whenever its bank holds
another row.
"""

import pytest

from repro.errors import DramError

from .helpers import MmuBed

VADDR = 0x0000_7F00_1234_5000
HUGE_VADDR = 0x0000_7F40_0000_0000
HUGE_PPN = 512

#: (label, vaddr, size) of each access shape.
SHAPES = (
    ("one_line", VADDR + 0x48, 8),
    ("two_lines", VADDR + 0x7C, 8),
    ("two_pages", VADDR + 0xFFC, 8),
    ("huge_page", HUGE_VADDR + 0x3048, 8),
)


def build_bed():
    """Two 4 KiB pages and one 2 MiB page, patterned, TLB warm, cache
    cold, every bank precharged."""
    bed = MmuBed()
    bed.map_page(VADDR, ppn=3)
    bed.map_page(VADDR + 0x1000, ppn=4)
    bed.map_huge(HUGE_VADDR, base_ppn=HUGE_PPN)
    for ppn in (3, 4, HUGE_PPN + 3):
        bed.dram.raw_write(ppn << 12, bytes((ppn + i) % 251
                                            for i in range(4096)))
    for vaddr in (VADDR, VADDR + 0x1000, HUGE_VADDR):
        bed.mmu.translate(bed.cr3, vaddr)
    bed.mmu.cache.flush_all()
    for bank in range(bed.dram.geometry.num_banks):
        bed.dram.bank_state(bank).precharge()
    return bed


def paddr_of(vaddr):
    """The physical address :func:`build_bed` maps ``vaddr`` to."""
    if vaddr >= HUGE_VADDR:
        return (HUGE_PPN << 12) + vaddr - HUGE_VADDR
    return (3 << 12) + vaddr - VADDR


def observe(bed):
    tlb, cache, dram = bed.mmu.tlb, bed.mmu.cache, bed.dram
    return {
        "tlb": (tlb.hits, tlb.misses),
        "cache": (cache.hits, cache.misses),
        "dram": (dram.reads, dram.total_activations),
        "now_ns": bed.clock.now_ns,
    }


def delta(before, after):
    return {key: (tuple(a - b for a, b in zip(after[key], before[key]))
                  if isinstance(after[key], tuple)
                  else after[key] - before[key])
            for key in after}


def spans(start, size, unit):
    """Addresses of the ``unit``-aligned blocks [start, start+size)
    touches, in order."""
    first = start - start % unit
    return list(range(first, start + size, unit)) if size > 0 else []


def model(bed, paddr, size, *, pages=0, dram_calls=None):
    """Expected deltas of loading [paddr, paddr+size) through the
    cache after ``pages`` TLB hits; ``dram_calls`` overrides the DRAM
    read count (``DramModule.read`` is one call however many lines)."""
    cache, dram, timings = bed.mmu.cache, bed.dram, bed.dram.timings
    open_rows = {bank: dram.bank_state(bank).open_row
                 for bank in range(dram.geometry.num_banks)}
    hits = misses = acts = 0
    now_ns = pages * bed.mmu.tlb.hit_ns
    for line in spans(paddr, size, 64):
        if cache.contains(line):
            hits += 1
            now_ns += cache.hit_ns
            continue
        misses += 1
        bank, row = dram.mapping.row_of(line)
        if open_rows[bank] == row:
            now_ns += timings.hit_latency_ns
        else:
            acts += 1
            now_ns += timings.conflict_latency_ns
            open_rows[bank] = row
    return {
        "tlb": (pages, 0),
        "cache": (hits, misses),
        "dram": (misses if dram_calls is None else dram_calls, acts),
        "now_ns": now_ns,
    }


@pytest.mark.parametrize("size", [0, -1])
class TestEmptyAccess:
    def test_mmu_load_is_empty_and_free(self, size):
        bed = build_bed()
        before = observe(bed)
        assert bed.mmu.load(bed.cr3, VADDR + 0x48, size) == b""
        assert observe(bed) == before

    def test_cache_load_is_empty_and_free(self, size):
        bed = build_bed()
        before = observe(bed)
        assert bed.mmu.cache.load(bed.dram, (3 << 12) + 0x48, size) == b""
        assert observe(bed) == before

    def test_dram_read_raises(self, size):
        bed = build_bed()
        before = observe(bed)
        with pytest.raises(DramError, match="size must be positive"):
            bed.dram.read((3 << 12) + 0x48, size)
        # A rejected read is not counted; nothing moves.
        assert delta(before, observe(bed)) == {
            "tlb": (0, 0), "cache": (0, 0), "dram": (0, 0), "now_ns": 0}


@pytest.mark.parametrize("op, span", [("write", "empty"),
                                      ("read", "past_capacity"),
                                      ("write", "past_capacity")])
def test_rejected_dram_access_counts_nothing(op, span):
    bed = build_bed()
    dram = bed.dram
    if span == "empty":
        paddr, size, match = (3 << 12) + 0x48, 0, "size must be positive"
    else:
        paddr, size, match = dram.geometry.capacity_bytes - 4, 8, \
            "outside capacity"
    before = observe(bed), dram.writes
    with pytest.raises(DramError, match=match):
        if op == "read":
            dram.read(paddr, size)
        else:
            dram.write(paddr, bytes(size))
    assert (observe(bed), dram.writes) == before


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("label, vaddr, size", SHAPES,
                         ids=[shape[0] for shape in SHAPES])
class TestAccessShapes:
    """``warm`` repeats the access first: the cache then holds every
    line (``Mmu``/``CpuCache``) or the bank holds the row (DRAM)."""

    def test_mmu_load(self, label, vaddr, size, warm):
        bed = build_bed()
        if warm:
            bed.mmu.load(bed.cr3, vaddr, size)
        paddr = paddr_of(vaddr)
        pages = len(spans(vaddr, size, 4096))
        expected = model(bed, paddr, size, pages=pages)
        before = observe(bed)
        data = bed.mmu.load(bed.cr3, vaddr, size)
        assert data == bed.dram.raw_read(paddr, size)
        assert type(data) is bytes
        assert delta(before, observe(bed)) == expected

    def test_cache_load(self, label, vaddr, size, warm):
        bed = build_bed()
        paddr = paddr_of(vaddr)
        cache = bed.mmu.cache
        if warm:
            cache.load(bed.dram, paddr, size)
        expected = model(bed, paddr, size)
        before = observe(bed)
        data = cache.load(bed.dram, paddr, size)
        assert data == bed.dram.raw_read(paddr, size)
        assert type(data) is bytes
        assert delta(before, observe(bed)) == expected

    def test_dram_read(self, label, vaddr, size, warm):
        bed = build_bed()
        paddr = paddr_of(vaddr)
        if warm:
            bed.dram.read(paddr, size)
        expected = model(bed, paddr, size, dram_calls=1)
        expected["cache"] = (0, 0)
        before = observe(bed)
        data = bed.dram.read(paddr, size)
        assert data == bed.dram.raw_read(paddr, size)
        assert type(data) is bytes
        assert delta(before, observe(bed)) == expected


def test_shapes_cover_their_names():
    """The shapes touch what their labels say: 1, 2, 2 and 1 lines;
    1, 1, 2 and 1 pages."""
    lines = [len(spans(paddr_of(va), size, 64)) for _l, va, size in SHAPES]
    pages = [len(spans(va, size, 4096)) for _l, va, size in SHAPES]
    assert lines == [1, 2, 2, 1]
    assert pages == [1, 1, 2, 1]
