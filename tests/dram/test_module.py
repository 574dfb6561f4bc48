"""Tests for the DramModule facade."""

from dataclasses import replace

import pytest

from repro.clock import SimClock
from repro.config import tiny_machine
from repro.dram.bank import RowBufferPolicy
from repro.dram.disturbance import DisturbanceParams, FlipEvent
from repro.dram.module import DramModule
from repro.dram.chiptrr import TrrParams
from repro.dram.address import linear_mapping
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DDR3_TIMINGS
from repro.errors import DramError


def make_module(vuln=0.0, trr=False, policy=RowBufferPolicy.OPEN_PAGE,
                threshold=1000.0, seed=5):
    geo = DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192)
    clock = SimClock()
    module = DramModule(
        mapping=linear_mapping(geo),
        timings=DDR3_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=threshold,
            row_vuln_probability=vuln,
            seed=seed,
        ),
        trr=TrrParams(enabled=trr, tracker_slots=2, trr_threshold=200),
        clock=clock,
        row_policy=policy,
    )
    return module, clock


class TestStorage:
    def test_read_back_what_was_written(self):
        module, _ = make_module()
        module.write(0x1000, b"hello world")
        assert module.read(0x1000, 11) == b"hello world"

    def test_unwritten_memory_reads_zero(self):
        module, _ = make_module()
        assert module.read(0x2000, 16) == b"\x00" * 16

    def test_write_spanning_lines(self):
        module, _ = make_module()
        payload = bytes(range(200))
        module.write(0x1f80, payload)  # crosses several 64B lines
        assert module.read(0x1f80, 200) == payload

    def test_write_spanning_rows(self):
        module, _ = make_module()
        geo_row = 8192
        payload = b"\xab" * 128
        module.write(geo_row - 64, payload)  # straddles a row boundary
        assert module.read(geo_row - 64, 128) == payload

    def test_raw_rw_round_trip(self):
        module, clock = make_module()
        before = clock.now_ns
        module.raw_write(0x3000, b"\x01\x02\x03")
        assert module.raw_read(0x3000, 3) == b"\x01\x02\x03"
        assert clock.now_ns == before  # instrumentation is free

    def test_raw_read_of_untouched_memory(self):
        module, _ = make_module()
        assert module.raw_read(0x0, 8) == b"\x00" * 8
        assert module.raw_read(0x5000, 3 * 4096) == bytes(3 * 4096)
        assert not module._frames

    def test_raw_rw_across_page_boundary(self):
        module, _ = make_module()
        payload = bytes(range(256)) * 20  # 5120 bytes over three frames
        module.raw_write(0x1ff0, payload)
        assert module.raw_read(0x1ff0, len(payload)) == payload
        assert module.raw_read(0x1000, 0x1000) == (
            bytes(0xff0) + payload[:0x10])
        assert sorted(module._frames) == [1, 2, 3]

    def test_zeroed_page_leaves_no_frame(self):
        module, _ = make_module()
        module.raw_write(0x3008, b"\xff" * 8)
        module.write(0x4000, b"x")
        assert sorted(module._frames) == [3, 4]
        module.raw_write(0x3000, bytes(4096))  # what alloc_frame does
        module.write(0x4000, b"\x00")
        assert module._frames == {}
        assert module.raw_read(0x3000, 8192) == bytes(8192)

    def test_out_of_range_access_rejected(self):
        module, _ = make_module()
        cap = module.geometry.capacity_bytes
        with pytest.raises(DramError):
            module.read(cap - 4, 8)
        with pytest.raises(DramError):
            module.read(0, 0)


class TestTiming:
    def test_conflict_then_hit_latency(self):
        module, clock = make_module()
        t0 = clock.now_ns
        module.read(0x0, 8)  # first access: conflict (empty buffer)
        t1 = clock.now_ns
        module.read(0x40, 8)  # same row: hit
        t2 = clock.now_ns
        assert t1 - t0 == module.timings.conflict_latency_ns
        assert t2 - t1 == module.timings.hit_latency_ns

    def test_alternating_rows_conflict(self):
        module, clock = make_module()
        mapping = module.mapping
        p1 = mapping.dram_to_phys(0, 1, 0)
        p2 = mapping.dram_to_phys(0, 2, 0)
        module.read(p1, 8)
        t0 = clock.now_ns
        module.read(p2, 8)
        module.read(p1, 8)
        elapsed = clock.now_ns - t0
        assert elapsed == 2 * module.timings.conflict_latency_ns

    def test_closed_page_policy_always_activates(self):
        module, clock = make_module(policy=RowBufferPolicy.CLOSED_PAGE)
        module.read(0x0, 8)
        t0 = clock.now_ns
        module.read(0x40, 8)  # same row, but closed-page: full conflict
        assert clock.now_ns - t0 == module.timings.conflict_latency_ns


class TestHammerAndFlips:
    def find_vulnerable(self, module):
        for row in range(2, 60):
            if module.engine.is_vulnerable(0, row):
                return row
        pytest.skip("no vulnerable row with this seed")

    def test_hammer_advances_clock(self):
        module, clock = make_module()
        module.hammer(0x0, 10)
        assert clock.now_ns == 10 * module.timings.conflict_latency_ns

    def test_hammer_flips_victim(self):
        module, _ = make_module(vuln=1.0)
        victim = self.find_vulnerable(module)
        mapping = module.mapping
        aggr = mapping.dram_to_phys(0, victim - 1, 0)
        for _ in range(30):
            module.hammer(aggr, 100)
        assert module.applied_flips > 0
        assert any(f.row == victim for f in module.flip_log)

    def test_flip_corrupts_stored_data(self):
        module, _ = make_module(vuln=1.0)
        victim = self.find_vulnerable(module)
        mapping = module.mapping
        # Fill the victim row with 0x55 so true-cells (1 -> 0) and
        # anti-cells (0 -> 1) both find their from_value somewhere.
        for col in range(0, module.geometry.row_bytes, 64):
            module.raw_write(mapping.dram_to_phys(0, victim, col),
                             b"\x55" * 64)
        aggr = mapping.dram_to_phys(0, victim - 1, 0)
        for _ in range(40):
            module.hammer(aggr, 100)
        flips = [f for f in module.flip_log if f.row == victim]
        assert flips
        # Replay the log on a model: a flip toggles its bit at the byte
        # dram_to_phys places it iff the bit still holds from_value.
        model = {}
        applied = 0
        for flip in module.flip_log:
            col, bit = divmod(flip.bit_offset, 8)
            paddr = mapping.dram_to_phys(flip.bank, flip.row, col)
            byte = model.get(paddr, 0x55 if flip.row == victim else 0)
            if (byte >> bit) & 1 == flip.from_value:
                byte ^= 1 << bit
                applied += 1
            model[paddr] = byte
        assert applied == module.applied_flips > 0
        for paddr, byte in model.items():
            assert module.raw_read(paddr, 1)[0] == byte

    def test_unapplied_flip_leaves_byte_alone(self):
        module, clock = make_module()
        bank, row, col = 2, 9, 100
        paddr = module.mapping.dram_to_phys(bank, row, col)
        module.raw_write(paddr, b"\x0f")
        flip = FlipEvent(bank=bank, row=row, bit_offset=col * 8 + 6,
                         from_value=1, at_ns=clock.now_ns)
        module._apply_flips([flip])  # bit 6 is 0: no match
        assert module.raw_read(paddr, 1) == b"\x0f"
        assert module.applied_flips == 0
        module._apply_flips([replace(flip, bit_offset=col * 8 + 1)])
        assert module.raw_read(paddr, 1) == b"\x0d"
        assert module.applied_flips == 1
        assert len(module.flip_log) == 2

    def test_refresh_row_heals(self):
        module, _ = make_module(vuln=0.0)
        module.hammer(module.mapping.dram_to_phys(0, 10, 0), 50)
        assert module.row_accumulated(0, 9) == pytest.approx(50.0)
        module.refresh_row(0, 9)
        assert module.row_accumulated(0, 9) == 0.0

    def test_reading_victim_row_heals_it(self):
        # An architectural read re-activates the row => recharge.
        module, _ = make_module(vuln=0.0)
        mapping = module.mapping
        module.hammer(mapping.dram_to_phys(0, 10, 0), 50)
        assert module.row_accumulated(0, 9) > 0
        module.read(mapping.dram_to_phys(0, 9, 0), 8)
        assert module.row_accumulated(0, 9) == 0.0

    def test_trr_blocks_double_sided(self):
        module, _ = make_module(vuln=1.0, trr=True)
        victim = self.find_vulnerable(module)
        mapping = module.mapping
        a = mapping.dram_to_phys(0, victim - 1, 0)
        b = mapping.dram_to_phys(0, victim + 1, 0)
        for _ in range(60):
            module.hammer(a, 50)
            module.hammer(b, 50)
        assert not [f for f in module.flip_log if f.row == victim]
        assert module.trr.targeted_refreshes > 0

    def test_trr_bypassed_by_three_sided(self):
        module, _ = make_module(vuln=1.0, trr=True)
        victim = self.find_vulnerable(module)
        mapping = module.mapping
        rows = [victim - 1, victim + 1, victim + 3]
        addrs = [mapping.dram_to_phys(0, r, 0) for r in rows]
        for _ in range(80):
            for addr in addrs:
                module.hammer(addr, 50)
        assert module.trr.targeted_refreshes == 0
        assert any(f.row == victim for f in module.flip_log)


class TestFlipsInPage:
    def test_flip_locates_page(self):
        module, _ = make_module(vuln=1.0)
        victim = None
        for row in range(2, 60):
            if module.engine.is_vulnerable(0, row):
                victim = row
                break
        assert victim is not None
        mapping = module.mapping
        aggr = mapping.dram_to_phys(0, victim - 1, 0)
        for _ in range(40):
            module.hammer(aggr, 100)
        flips = [f for f in module.flip_log if f.row == victim]
        assert flips
        pages = mapping.row_pages(0, victim)
        located = []
        for ppn in pages:
            located.extend(module.flips_in_page(ppn))
        assert set(f.bit_offset for f in flips) == set(
            f.bit_offset for f in located if f.row == victim
        )

    def test_clean_page_reports_no_flips(self):
        module, _ = make_module(vuln=1.0)
        assert module.flips_in_page(3) == []


class TestMachineProfiles:
    def test_tiny_machine_builds(self):
        spec = tiny_machine()
        clock = SimClock()
        module = spec.build_dram(clock)
        module.write(0x100, b"ok")
        assert module.read(0x100, 2) == b"ok"

    def test_all_paper_machines_build(self):
        from repro.config import MACHINES
        for name, factory in MACHINES.items():
            spec = factory()
            module = spec.build_dram(SimClock())
            assert module.geometry.capacity_bytes == spec.memory_bytes
