"""Tests for the baseline defenses' allocator policies."""

import pytest

from repro.config import tiny_machine
from repro.defenses.anvil import AnvilDefense
from repro.defenses.base import DEFENSES, NoDefense
from repro.defenses.catt import CattDefense
from repro.defenses.cta import CtaDefense
from repro.defenses.zebram import ZebramDefense
from repro.errors import DefenseError, OutOfMemoryError
from repro.kernel.physmem import FrameUse
from repro.kernel.vma import HUGE, PAGE
from repro.machine import Machine
from repro.patterns import round_robin


class TestRegistry:
    def test_all_defenses_resolvable(self):
        for name in ("vanilla", "catt", "cta", "zebram", "anvil", "softtrr"):
            defense = DEFENSES[name]()
            assert defense.name == name


class TestCatt:
    def test_boot_and_basic_operation(self):
        kernel = Machine.from_parts(tiny_machine(), CattDefense()).kernel
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 4 * PAGE)
        kernel.user_write(proc, base, b"works")
        assert kernel.user_read(proc, base, 5) == b"works"

    def test_partition_separates_uses(self):
        defense = CattDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        user = kernel.alloc_frame(FrameUse.USER)
        pt = kernel.alloc_frame(FrameUse.PAGE_TABLE)
        sg = kernel.alloc_frame(FrameUse.SG_BUFFER)
        assert defense.policy.region_of(user) == "user"
        assert defense.policy.region_of(pt) == "kernel"
        assert defense.policy.region_of(sg) == "kernel"  # the CATTmew hole

    def test_guard_rows_exceed_blast_radius(self):
        defense = CattDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        mapping = kernel.dram.mapping
        pt = kernel.alloc_frame(FrameUse.PAGE_TABLE)
        user = kernel.alloc_frame(FrameUse.USER)
        # No user frame row can be within 6 rows of any PT-region row:
        # check the extremes of both regions.
        pt_rows = {row for _, row in mapping.page_rows(pt)}
        user_rows = {row for _, row in mapping.page_rows(user)}
        for pr in pt_rows:
            for ur in user_rows:
                assert abs(pr - ur) > 6

    def test_placement_violation_refused(self):
        defense = CattDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        user = kernel.alloc_frame(FrameUse.USER)
        kernel.free_frame(user)
        with pytest.raises(DefenseError):
            defense.policy.alloc_specific(user, FrameUse.PAGE_TABLE)

    def test_compliant_placement_allowed(self):
        defense = CattDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        pt = kernel.alloc_frame(FrameUse.PAGE_TABLE)
        kernel.free_frame(pt)
        assert defense.policy.alloc_specific(pt, FrameUse.PAGE_TABLE) == pt


class TestCta:
    def test_pt_region_is_exclusive(self):
        defense = CtaDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        pt = kernel.alloc_frame(FrameUse.PAGE_TABLE)
        user = kernel.alloc_frame(FrameUse.USER)
        sg = kernel.alloc_frame(FrameUse.SG_BUFFER)
        assert defense.policy.region_of(pt) == "pagetable"
        assert defense.policy.region_of(user) == "common"
        assert defense.policy.region_of(sg) == "common"

    def test_sg_cannot_enter_pt_region(self):
        defense = CtaDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        pt = kernel.alloc_frame(FrameUse.PAGE_TABLE)
        kernel.free_frame(pt)
        with pytest.raises(DefenseError):
            defense.policy.alloc_specific(pt, FrameUse.SG_BUFFER)

    def test_pts_remain_mutually_adjacent(self):
        """The PThammer lever: the dedicated region clusters L1PTs."""
        defense = CtaDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        mapping = kernel.dram.mapping
        frames = [kernel.alloc_frame(FrameUse.PAGE_TABLE) for _ in range(32)]
        locations = {}
        for ppn in frames:
            for bank, row in mapping.page_rows(ppn):
                locations.setdefault(bank, set()).add(row)
        adjacent = any(
            row + 1 in rows or row + 2 in rows
            for rows in locations.values() for row in rows)
        assert adjacent


class TestZebram:
    def test_all_frames_in_even_rows(self):
        defense = ZebramDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        mapping = kernel.dram.mapping
        for _ in range(32):
            ppn = kernel.alloc_frame(FrameUse.USER)
            assert all(row % 2 == 0 for _, row in mapping.page_rows(ppn))

    def test_capacity_roughly_halved(self):
        vanilla = Machine.from_parts(tiny_machine(), NoDefense()).kernel
        zebra = Machine.from_parts(tiny_machine(), ZebramDefense()).kernel
        assert zebra.frame_policy.free_frames() < (
            vanilla.frame_policy.free_frames() * 0.6)

    def test_huge_pages_unsupported(self):
        kernel = Machine.from_parts(tiny_machine(), ZebramDefense()).kernel
        with pytest.raises(OutOfMemoryError):
            kernel.alloc_frame(FrameUse.USER, order=9)

    def test_unsafe_placement_refused(self):
        defense = ZebramDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        mapping = kernel.dram.mapping
        odd = next(
            ppn for ppn in range(64, 1024)
            if all(row % 2 == 1 for _, row in mapping.page_rows(ppn)))
        with pytest.raises(DefenseError):
            defense.policy.alloc_specific(odd, FrameUse.PAGE_TABLE)

    def test_workload_runs(self):
        kernel = Machine.from_parts(tiny_machine(), ZebramDefense()).kernel
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 8 * PAGE)
        for i in range(8):
            kernel.user_write(proc, base + i * PAGE, bytes([i]))
        child = kernel.fork(proc)
        assert kernel.user_read(child, base + 3 * PAGE, 1) == b"\x03"


class TestAnvil:
    def test_module_loads_and_ticks(self):
        defense = AnvilDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        kernel.clock.advance(5_000_000)
        kernel.dispatch_timers()
        assert defense.module is not None
        # Quiet system: no detections.
        assert defense.module.detections == 0

    def test_detects_data_hammering(self):
        from repro.attacks.hammer import HammerKit
        defense = AnvilDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        proc = kernel.create_process("attacker")
        base = kernel.mmap(proc, 64 * PAGE)
        kernel.mlock(proc, base, 64 * PAGE)
        kit = HammerKit(kernel, proc)
        # Pick two pages in the same bank, different rows.
        mapping = kernel.dram.mapping
        pages = {}
        for i in range(64):
            va = base + i * PAGE
            pa = kit.paddr_of(va)
            pages.setdefault(mapping.row_of(pa)[0], []).append((va, pa))
        bank, pairs = next((b, p) for b, p in pages.items() if len(p) >= 2)
        vaddrs = [pairs[0][0], pairs[1][0]]
        kit.run(round_robin(len(vaddrs), 30_000), vaddrs)
        assert defense.module.detections > 0
        assert defense.module.refreshes > 0

    def test_blind_to_walk_activations(self):
        defense = AnvilDefense(miss_threshold=10)
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        # Feed only walker-tagged activations.
        for i in range(5000):
            kernel.dram.hammer(0x4000, 1, origin="walk")
            kernel.mmu.cache.clflush(0x9000)
            kernel.mmu.cache.load(kernel.dram, 0x9000, 8)
        kernel.clock.advance(2_000_000)
        kernel.dispatch_timers()
        # Plenty of misses, but all hot activations were walk-tagged.
        assert defense.module.detections == 0
