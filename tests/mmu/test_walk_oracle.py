"""The page walks against the reference walks of ``reference_walk.py``.

``Walker.walk``, ``Mmu.translate`` (cold TLB) and ``Kernel.software_walk``
decode entries in place.  Over generated four-level chains — non-present
entries (zero or not) at every level, huge L2 entries with aligned and
unaligned bases, L3 PS entries, reserved bits (bit 51 and the lowest
reserved bit) at the leaf and upper levels, RW/US/NX mixes, some entry
lines already cached, canonical and non-canonical addresses — each must
give the reference's result or fault (error code, ``leaf_level``,
``pte_paddr``) and leave the same clock, cache hits and misses, DRAM
reads, activations and PMU activation samples.
"""

from dataclasses import dataclass
from typing import Dict, FrozenSet

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import tiny_machine
from repro.errors import MmuError, PageFaultException
from repro.kernel.kernel import Kernel
from repro.kernel.process import MmStruct
from repro.mmu import bits
from repro.mmu.faults import ErrorCode

from .reference_walk import hardware_walk, software_walk

#: Table frame of each level of the walked chain (4 is CR3).
TABLES = {4: 16, 3: 17, 2: 18, 1: 19}
CR3 = TABLES[4]
LEAF_PPN = 40
PID = 7
#: The lowest reserved-must-be-zero bit (bit 46), beside SoftTRR's 51.
LOW_RSVD = bits.PTE_RESERVED_MASK & -bits.PTE_RESERVED_MASK
UPPER = bits.PTE_PRESENT | bits.PTE_RW | bits.PTE_USER


@dataclass(frozen=True)
class WalkCase:
    """One walked chain: the address, each level's entry, the levels
    whose entry line is cached before the walk, and the access."""

    vaddr: int
    entries: Dict[int, int]
    warm: FrozenSet[int] = frozenset()
    is_write: bool = False
    is_user: bool = True
    is_fetch: bool = False

    def access(self):
        return dict(is_write=self.is_write, is_user=self.is_user,
                    is_fetch=self.is_fetch)


def vaddr_of(i4, i3, i2, i1, offset=0x48):
    return (i4 << 39) | (i3 << 30) | (i2 << 21) | (i1 << 12) | offset


VADDR = vaddr_of(3, 5, 7, 9)


@st.composite
def entry_at(draw, level):
    """An entry for ``level`` of the chain, pointing at the next table
    (or the leaf frame, or a huge base)."""
    present = draw(st.sampled_from((True, True, True, True, False)))
    flags = bits.PTE_PRESENT if present else 0
    for bit in (bits.PTE_RW, bits.PTE_USER, bits.PTE_NX,
                bits.PTE_ACCESSED, bits.PTE_DIRTY):
        if draw(st.sampled_from((True, True, False))):
            flags |= bit
    flags |= draw(st.sampled_from(
        (0, 0, 0, 0, 0, 0, bits.PTE_RSVD_TRACE, LOW_RSVD)))
    target = TABLES[level - 1] if level > 1 else LEAF_PPN
    if level in (2, 3) and draw(st.sampled_from((False, False, False,
                                                  True))):
        flags |= bits.PTE_PSE
        if level == 2:
            target = draw(st.sampled_from((512, 512, 513, 600)))
    if not present and draw(st.booleans()):
        return 0
    return bits.make_pte(target, flags)


@st.composite
def walk_cases(draw):
    top = draw(st.one_of(st.integers(0, 255), st.integers(256, 511)))
    index = st.integers(0, bits.ENTRIES_PER_TABLE - 1)
    vaddr = vaddr_of(top, draw(index), draw(index), draw(index),
                     draw(st.integers(0, 0xFFF)))
    return WalkCase(
        vaddr=vaddr,
        entries={level: draw(entry_at(level)) for level in (4, 3, 2, 1)},
        warm=frozenset(draw(st.sets(st.sampled_from((4, 3, 2, 1))))),
        is_write=draw(st.booleans()),
        is_user=draw(st.booleans()),
        is_fetch=draw(st.booleans()),
    )


def build(case):
    """A tiny kernel holding the case's chain (raw writes), with the
    ``warm`` entries' lines loaded into the cache."""
    kernel = Kernel(tiny_machine())
    ops = kernel.mmu.pt_ops
    for level, entry in case.entries.items():
        ops.raw_write_entry(TABLES[level],
                            bits.level_index(case.vaddr, level), entry)
    for level in sorted(case.warm):
        kernel.mmu.phys_load(ops.entry_paddr(
            TABLES[level], bits.level_index(case.vaddr, level)), 8)
    return kernel


def observe(kernel):
    mmu, dram = kernel.mmu, kernel.dram
    return {
        "now_ns": kernel.clock.now_ns,
        "cache": (mmu.cache.hits, mmu.cache.misses),
        "dram": (dram.reads, dram.total_activations),
        "samples": list(dram.recent_activations),
    }


def run_walker(kernel, case):
    return kernel.mmu.walker.walk(CR3, case.vaddr, pid=PID, **case.access())


def run_translate(kernel, case):
    return kernel.mmu.translate(CR3, case.vaddr, pid=PID, **case.access())


def outcome(run, kernel, case):
    """``run``'s result in the reference's outcome format."""
    try:
        t = run(kernel, case)
    except PageFaultException as exc:
        info = exc.info
        assert (info.vaddr, info.pid) == (case.vaddr, PID)
        return ("fault", int(info.error_code), info.leaf_level,
                info.pte_paddr)
    except MmuError:
        return ("mmu_error",)
    return ("ok", t.ppn, t.base_ppn, t.flags, t.leaf_level, t.pte_paddr)


def software_outcome(kernel, case):
    walk = kernel.software_walk(MmStruct(pml4_ppn=CR3), case.vaddr)
    return ("none",) if walk is None else ("ok",) + walk


def check_hardware(run, case):
    reference, kernel = build(case), build(case)
    expected = hardware_walk(reference.mmu, CR3, case.vaddr, **case.access())
    assert outcome(run, kernel, case) == expected
    assert observe(kernel) == observe(reference)
    return expected


def check_software(case):
    reference, kernel = build(case), build(case)
    expected = software_walk(reference.mmu, CR3, case.vaddr)
    assert software_outcome(kernel, case) == expected
    assert observe(kernel) == observe(reference)
    return expected


HARDWARE = pytest.mark.parametrize("run", [run_walker, run_translate],
                                   ids=["walker", "translate"])


@HARDWARE
@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_hardware_walks_match_reference(run, case):
    check_hardware(run, case)


@settings(max_examples=150, deadline=None)
@given(walk_cases())
def test_software_walk_matches_reference(case):
    check_software(case)


# ------------------------------------------------------------ named cases
def chain(**overrides):
    """A fully present user/RW chain to LEAF_PPN, with overrides."""
    entries = {4: bits.make_pte(TABLES[3], UPPER),
               3: bits.make_pte(TABLES[2], UPPER),
               2: bits.make_pte(TABLES[1], UPPER),
               1: bits.make_pte(LEAF_PPN, UPPER)}
    entries.update({int(key[1]): value for key, value in overrides.items()})
    return entries


def huge(base_ppn, flags=UPPER):
    return bits.make_pte(base_ppn, flags | bits.PTE_PSE)


#: (name, case, hardware outcome kind, leaf_level or None).  Each named
#: shape the property must cover, pinned so a strategy change cannot
#: silently drop it.
NAMED = [
    ("mapped", WalkCase(VADDR, chain()), "ok", 1),
    ("mapped_warm", WalkCase(VADDR, chain(), frozenset((4, 2))), "ok", 1),
    *[(f"non_present_l{level}",
       WalkCase(VADDR, chain(**{f"l{level}": 0})), "fault", level)
      for level in (4, 3, 2, 1)],
    ("non_present_nonzero_leaf",
     WalkCase(VADDR, chain(l1=bits.make_pte(LEAF_PPN, bits.PTE_RW))),
     "fault", 1),
    ("huge_l2", WalkCase(VADDR, chain(l2=huge(512))), "ok", 2),
    ("huge_l2_unaligned", WalkCase(VADDR, chain(l2=huge(513))),
     "mmu_error", None),
    ("ps_l3", WalkCase(VADDR, chain(l3=bits.make_pte(
        TABLES[2], UPPER | bits.PTE_PSE))), "mmu_error", None),
    ("rsvd51_leaf", WalkCase(VADDR, chain(
        l1=bits.make_pte(LEAF_PPN, UPPER | bits.PTE_RSVD_TRACE))),
     "fault", 1),
    ("rsvd51_l3", WalkCase(VADDR, chain(
        l3=bits.make_pte(TABLES[2], UPPER | bits.PTE_RSVD_TRACE))),
     "fault", 3),
    ("rsvd_low_l2", WalkCase(VADDR, chain(
        l2=bits.make_pte(TABLES[1], UPPER | LOW_RSVD))), "fault", 2),
    ("rsvd51_huge", WalkCase(VADDR, chain(
        l2=huge(512, UPPER | bits.PTE_RSVD_TRACE))), "fault", 2),
    ("read_only_write", WalkCase(VADDR, chain(
        l1=bits.make_pte(LEAF_PPN, bits.PTE_PRESENT | bits.PTE_USER)),
        is_write=True), "fault", 1),
    ("kernel_only_user", WalkCase(VADDR, chain(
        l3=bits.make_pte(TABLES[2], bits.PTE_PRESENT | bits.PTE_RW))),
     "fault", 1),
    ("nx_upper_fetch", WalkCase(VADDR, chain(
        l4=bits.make_pte(TABLES[3], UPPER | bits.PTE_NX)), is_fetch=True),
     "fault", 1),
    ("nx_huge_read", WalkCase(VADDR, chain(
        l2=huge(512, UPPER | bits.PTE_NX))), "ok", 2),
    ("supervisor_write", WalkCase(VADDR, chain(
        l1=bits.make_pte(LEAF_PPN, bits.PTE_PRESENT)),
        is_write=True, is_user=False), "ok", 1),
    ("non_canonical", WalkCase(vaddr_of(300, 5, 7, 9), chain()),
     "mmu_error", None),
]


@HARDWARE
@pytest.mark.parametrize("name, case, kind, level", NAMED,
                         ids=[row[0] for row in NAMED])
def test_named_hardware_cases(run, name, case, kind, level):
    expected = check_hardware(run, case)
    assert expected[0] == kind
    if kind == "fault":
        assert expected[2] == level
    elif kind == "ok":
        assert expected[4] == level


@pytest.mark.parametrize("name, case, kind, level", NAMED,
                         ids=[row[0] for row in NAMED])
def test_named_software_cases(name, case, kind, level):
    check_software(case)


def test_named_cases_fault_with_their_error_codes():
    """The named faults carry the Figure 2 bits they are named for."""
    by_name = {name: case for name, case, _, _ in NAMED}

    def code(name):
        case = by_name[name]
        return hardware_walk(build(case).mmu, CR3, case.vaddr,
                             **case.access())[1]

    user, rsvd = int(ErrorCode.USER), int(ErrorCode.PRESENT | ErrorCode.RSVD)
    assert code("non_present_l2") == user
    assert code("rsvd51_leaf") == rsvd | user
    assert code("rsvd51_l3") == rsvd | user
    assert code("read_only_write") == int(
        ErrorCode.PRESENT | ErrorCode.WRITE | ErrorCode.USER)
