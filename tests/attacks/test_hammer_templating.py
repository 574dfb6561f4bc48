"""Tests for hammer primitives and flip templating."""

import pytest

from repro.config import tiny_machine
from repro.errors import AttackError, TemplatingError
from repro.attacks.hammer import HammerKit
from repro.attacks.templating import FlipTemplater
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.patterns import round_robin


def bed(trr=False):
    kernel = Kernel(tiny_machine(trr=trr))
    proc = kernel.create_process("attacker")
    return kernel, proc


class TestHammerKit:
    def test_paddr_of_faults_in(self):
        kernel, proc = bed()
        base = kernel.mmap(proc, PAGE)
        kit = HammerKit(kernel, proc)
        paddr = kit.paddr_of(base + 0x123)
        assert paddr & 0xFFF == 0x123
        assert kernel.mapped_ppn_of(proc, base) == paddr >> 12

    def test_hammer_requires_targets(self):
        kernel, proc = bed()
        kit = HammerKit(kernel, proc)
        with pytest.raises(AttackError):
            kit.run(round_robin(1, 100), [])
        with pytest.raises(AttackError):
            kit.run_for([], 100)

    def test_hammer_activates_rows(self):
        kernel, proc = bed()
        base = kernel.mmap(proc, 64 * PAGE)
        kernel.mlock(proc, base, 64 * PAGE)
        kit = HammerKit(kernel, proc)
        va = base
        pa = kit.paddr_of(va)
        bank, row = kernel.dram.mapping.row_of(pa)
        kit.run(round_robin(1, 500), [va])
        # Neighbouring rows accumulated disturbance.
        acc = kernel.dram.row_accumulated(bank, row + 1)
        assert acc >= 400  # most of the 500 activations landed

    def test_hammer_costs_time(self):
        kernel, proc = bed()
        base = kernel.mmap(proc, PAGE)
        kit = HammerKit(kernel, proc)
        kit.paddr_of(base)
        t0 = kernel.clock.now_ns
        kit.run(round_robin(1, 1000), [base])
        elapsed = kernel.clock.now_ns - t0
        # ~80 ns per activation.
        assert 60_000 < elapsed < 200_000

    def test_run_for_duration(self):
        kernel, proc = bed()
        base = kernel.mmap(proc, PAGE)
        kit = HammerKit(kernel, proc)
        kit.paddr_of(base)
        t0 = kernel.clock.now_ns
        kit.run_for([base], 1_000_000)
        assert kernel.clock.now_ns - t0 >= 1_000_000


class TestTemplating:
    def test_finds_vulnerable_pages(self):
        kernel, proc = bed()
        templater = FlipTemplater(kernel, proc)
        pages = templater.find_vulnerable_pages(
            2, pattern="double_sided", region_pages=192, rounds=3000)
        assert len(pages) == 2
        for vp in pages:
            assert vp.flips
            assert vp.pattern == "double_sided"
            assert len(vp.aggressor_vaddrs) == 2
            assert vp.aggressor_rows == [vp.victim_row - 1, vp.victim_row + 1]

    def test_flips_are_reproducible(self):
        """Re-hammering the same aggressors flips the same cell again."""
        kernel, proc = bed()
        templater = FlipTemplater(kernel, proc)
        vp = templater.find_vulnerable_pages(
            1, region_pages=192, rounds=3000)[0]
        flip = vp.flips[0]
        # Restore the charged polarity and hammer again.
        payload = bytes([0xFF if flip.from_value else 0x00]) * PAGE
        kernel.user_write(proc, vp.victim_vaddr, payload)
        kernel.clock.advance(64_000_000)  # fresh refresh window
        templater.kit.run(round_robin(2, 3000), vp.aggressor_vaddrs)
        after = kernel.user_read(proc, vp.victim_vaddr, PAGE)
        assert after != payload
        changed = after[flip.byte_offset] ^ payload[flip.byte_offset]
        assert changed & (1 << flip.bit_index)

    def test_targets_do_not_share_rows(self):
        kernel, proc = bed()
        templater = FlipTemplater(kernel, proc)
        pages = templater.find_vulnerable_pages(
            3, region_pages=256, rounds=3000)
        rows = set()
        for vp in pages:
            mine = {(vp.bank, vp.victim_row)} | {
                (vp.bank, r) for r in vp.aggressor_rows}
            assert not (rows & mine)
            rows |= mine

    def test_impossible_request_raises(self):
        kernel, proc = bed()
        templater = FlipTemplater(kernel, proc)
        with pytest.raises(TemplatingError):
            templater.find_vulnerable_pages(
                500, region_pages=64, rounds=1000)

    def test_unknown_pattern(self):
        kernel, proc = bed()
        templater = FlipTemplater(kernel, proc)
        with pytest.raises(TemplatingError):
            templater.find_vulnerable_pages(1, pattern="sideways")

    def test_trr_blocks_double_sided_but_not_three_sided(self):
        """The Optiplex 390 situation: 2-sided finds nothing on a TRR
        module; the TRRespass 3-sided pattern does."""
        kernel, proc = bed(trr=True)
        templater = FlipTemplater(kernel, proc)
        with pytest.raises(TemplatingError):
            templater.find_vulnerable_pages(
                1, pattern="double_sided", region_pages=128, rounds=3000)
        kernel2, proc2 = bed(trr=True)
        templater2 = FlipTemplater(kernel2, proc2)
        pages = templater2.find_vulnerable_pages(
            1, pattern="three_sided", region_pages=192, rounds=3000)
        assert pages
