"""Unit tests for the DRAM-level batched execution primitives.

Covers the accounting the differential suite cannot isolate on its own:
origin labels in the PMU sample buffer (``recent_activations``),
:meth:`BankState.hit_run`'s refusal to mis-count, and
:meth:`DramModule.write_run`'s precondition checks.
"""

import dataclasses

import pytest

from repro.config import machine, tiny_machine
from repro.dram.bank import BankState, RowBufferPolicy
from repro.kernel.kernel import Kernel


def build_dram(policy=RowBufferPolicy.OPEN_PAGE):
    spec = dataclasses.replace(tiny_machine(seed=7), row_policy=policy)
    return Kernel(spec).dram


class TestHammerOriginAccounting:
    def test_hammer_labels_data_by_default(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(0, 30, 0)
        dram.hammer(paddr, 5)
        assert list(dram.recent_activations) == [(0, 30, "data")]

    def test_hammer_walk_origin_label(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(1, 12, 0)
        dram.hammer(paddr, 3, origin="walk")
        assert list(dram.recent_activations) == [(1, 12, "walk")]

    def test_hammer_batch_one_sample_per_item(self):
        """Each batch item is one hammer call: one PMU sample each,
        regardless of its count or of run-grouping."""
        dram = build_dram()
        a = dram.mapping.dram_to_phys(0, 30, 0)
        b = dram.mapping.dram_to_phys(0, 33, 0)
        dram.hammer_batch([(a, 5)] * 3 + [(b, 1)] + [(a, 2)],
                          origin="walk")
        assert list(dram.recent_activations) == [
            (0, 30, "walk")] * 3 + [(0, 33, "walk"), (0, 30, "walk")]

    def test_transact_line_honours_walk_origin_flag(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(2, 7, 0)
        dram.walk_origin = True
        try:
            dram._transact_line(paddr)
        finally:
            dram.walk_origin = False
        dram._transact_line(dram.mapping.dram_to_phys(2, 9, 0))
        assert list(dram.recent_activations) == [
            (2, 7, "walk"), (2, 9, "data")]


class TestBankHitRun:
    def test_hit_run_counts(self):
        bank = BankState()
        bank.access(30, RowBufferPolicy.OPEN_PAGE)
        bank.hit_run(30, 7)
        assert bank.hits == 7
        assert bank.activations == 1

    def test_hit_run_rejects_wrong_row(self):
        bank = BankState()
        bank.access(30, RowBufferPolicy.OPEN_PAGE)
        with pytest.raises(ValueError):
            bank.hit_run(31, 1)

    def test_hit_run_rejects_closed_buffer(self):
        bank = BankState()
        with pytest.raises(ValueError):
            bank.hit_run(30, 1)

    def test_hit_run_ignores_nonpositive_count(self):
        bank = BankState()
        bank.hit_run(30, 0)
        bank.hit_run(30, -3)
        assert bank.hits == 0


class TestWriteRun:
    def test_replays_open_row_writes(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(0, 30, 0)
        dram.write(paddr, b"seed")  # opens the row
        writes_before = dram.writes
        start = dram.clock.now_ns
        assert dram.write_run(paddr, b"data", 5)
        assert dram.writes - writes_before == 5
        assert dram.raw_read(paddr, 4) == b"data"
        assert (dram.clock.now_ns - start
                == 5 * dram.timings.hit_latency_ns)
        assert dram.bank_state(0).hits >= 5

    def test_refuses_when_row_not_open(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(0, 30, 0)
        before = dram.clock.now_ns
        assert not dram.write_run(paddr, b"data", 5)
        assert dram.writes == 0
        assert dram.clock.now_ns == before
        assert dram.raw_read(paddr, 4) == b"\x00" * 4

    def test_refuses_under_closed_page(self):
        dram = build_dram(policy=RowBufferPolicy.CLOSED_PAGE)
        paddr = dram.mapping.dram_to_phys(0, 30, 0)
        dram.write(paddr, b"seed")
        assert not dram.write_run(paddr, b"data", 5)

    def test_zero_count_is_a_noop_success(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(0, 30, 0)
        assert dram.write_run(paddr, b"data", 0)
        assert dram.writes == 0


class TestHammerBatchDegenerates:
    def test_empty_and_nonpositive_items_are_noops(self):
        dram = build_dram()
        paddr = dram.mapping.dram_to_phys(0, 30, 0)
        before = dram.clock.now_ns
        dram.hammer_batch([])
        dram.hammer_batch([(paddr, 0), (paddr, -5)])
        assert dram.total_activations == 0
        assert dram.clock.now_ns == before
        assert not dram.recent_activations

    def test_single_item_equals_scalar_hammer(self):
        """The HammerKit burst shape: one (paddr, count) item."""
        scalar = build_dram()
        batched = build_dram()
        paddr = scalar.mapping.dram_to_phys(0, 30, 0)
        scalar.hammer(paddr, 99)
        scalar.clock.advance(99 * 15)
        batched.hammer_batch([(paddr, 99)], extra_ns=15)
        assert scalar.clock.now_ns == batched.clock.now_ns
        assert scalar.total_activations == batched.total_activations
        assert (scalar.engine.total_deposits
                == batched.engine.total_deposits)
        epoch = scalar._epoch()
        for row in (28, 29, 31, 32):
            assert (scalar.engine.accumulated(0, row, epoch)
                    == batched.engine.accumulated(0, row, epoch))


def test_perf_testbed_machine_still_boots():
    """Guard: the batched layer does not disturb machine construction."""
    kernel = Kernel(machine("perf_testbed"))
    assert kernel.dram.trr.params.enabled
