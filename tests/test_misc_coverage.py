"""Small coverage tests for corners not exercised elsewhere."""

import pytest

from repro.clock import SimClock
from repro.config import tiny_machine
from repro.errors import (
    MmuError,
    PageFaultException,
    SegmentationFault,
)
from repro.mmu import bits
from repro.mmu.faults import ErrorCode, PageFaultInfo
from repro.mmu.mmu import Mmu


def bed():
    spec = tiny_machine()
    clock = SimClock()
    dram = spec.build_dram(clock)
    return clock, dram, Mmu(clock, dram)


class TestWalkerCorners:
    def test_1gib_pages_rejected(self):
        clock, dram, mmu = bed()
        cr3 = 30
        vaddr = 0x0000_7000_0000_0000
        mmu.pt_ops.raw_write_entry(
            cr3, bits.level_index(vaddr, 4),
            bits.make_pte(31, bits.PTE_PRESENT | bits.PTE_RW | bits.PTE_USER))
        # A PS entry at L3 claims a 1 GiB page: not modelled.
        mmu.pt_ops.raw_write_entry(
            31, bits.level_index(vaddr, 3),
            bits.make_pte(512, bits.PTE_PRESENT | bits.PTE_RW
                          | bits.PTE_USER | bits.PTE_PSE))
        with pytest.raises(MmuError):
            mmu.walker.walk(cr3, vaddr)

    def test_rsvd_bit_in_upper_level_faults(self):
        clock, dram, mmu = bed()
        cr3 = 30
        vaddr = 0x0000_7000_0000_0000
        mmu.pt_ops.raw_write_entry(
            cr3, bits.level_index(vaddr, 4),
            bits.make_pte(31, bits.PTE_PRESENT | bits.PTE_RW
                          | bits.PTE_USER) | bits.PTE_RSVD_TRACE)
        with pytest.raises(PageFaultException) as exc:
            mmu.walker.walk(cr3, vaddr)
        assert exc.value.info.is_reserved_bit
        assert exc.value.info.leaf_level == 4


class TestErrorStrings:
    def test_segfault_message(self):
        err = SegmentationFault(0xdead000, "no VMA")
        assert "0xdead000" in str(err)
        assert "no VMA" in str(err)
        assert err.vaddr == 0xdead000

    def test_pagefault_exception_carries_info(self):
        info = PageFaultInfo(vaddr=0x1000, error_code=ErrorCode.RSVD)
        exc = PageFaultException(info)
        assert exc.info is info
        assert "page fault" in str(exc)


class TestPteDescribe:
    def test_describe_round_trips_flags(self):
        entry = bits.make_pte(
            0x42, bits.PTE_PRESENT | bits.PTE_RW | bits.PTE_USER
            | bits.PTE_ACCESSED | bits.PTE_DIRTY | bits.PTE_GLOBAL
            | bits.PTE_NX) | bits.PTE_RSVD_TRACE
        text = bits.describe(entry)
        for flag in ("P", "RW", "US", "A", "D", "G", "RSVD51", "NX"):
            assert flag in text
        assert "ppn=0x42" in text


class TestBankStats:
    def test_hit_and_activation_counters(self):
        clock, dram, mmu = bed()
        dram.read(0x0, 8)
        dram.read(0x40, 8)  # same row: buffer hit
        state = dram.bank_state(dram.mapping.phys_to_dram(0x0).bank)
        assert state.activations >= 1
        assert state.hits >= 1
        state.precharge()
        assert state.open_row is None


class TestClockEdges:
    def test_pop_due_empty(self):
        assert SimClock().pop_due() == []
