"""Unit tests for the DRAM-level batched hammer path.

Covers the accounting the differential suite cannot isolate on its own:
origin labels in the PMU sample buffer (``recent_activations``) and
:meth:`DramModule.hammer_batch`'s refusal of a bad stream before any
side effect.
"""

import pytest

from repro.config import machine, tiny_machine
from repro.errors import DramError
from repro.kernel.kernel import Kernel
from repro.machine import Machine, MachineConfig

from ..perf.generative import fingerprint


#: The feed trackers, with the overrides that make each one refresh
#: after a single burst of ~2,000 ACTs (the others' defaults already do).
TRACKER_PARAMS = {
    "chiptrr": {"trr_threshold": 1_000},
    "para": {},
    "misra_gries": {},
    "ptmp": {"insert_probability": 1.0},
    "dapper": {},
}


def build_dram():
    return Kernel(tiny_machine(seed=7)).dram


def threshold_crossing_burst(tracker, *, batched):
    """Hammer one aggressor of a tiny machine with ``tracker`` on the
    feed, once, for enough ACTs to fire its distance-1 victim's easiest
    cell; that victim's cells hold their charged values beforehand, so
    the flips change DRAM bytes.  Returns the machine's fingerprint:
    flips, frames, bank state, recent activations, the clock and the
    telemetry, which holds ``actuator.refreshes`` and every tracker
    counter."""
    machine = Machine(MachineConfig(
        machine="tiny", seed=7, defense=tracker,
        defense_params=TRACKER_PARAMS[tracker]))
    dram = machine.dram
    assert [t.name for t in dram.feed.trackers()] == [tracker]
    engine = dram.engine
    aggressor = next(row for row in range(8, dram.geometry.rows_per_bank)
                     if engine.victim_plan(0, row)[0][2])
    victim, weight, cells = engine.victim_plan(0, aggressor)[0]
    for cell in cells:
        col, bit = divmod(cell.bit_offset, 8)
        dram.raw_write(dram.mapping.dram_to_phys(0, victim, col),
                       bytes((cell.from_value << bit,)))
    count = int(cells[0].threshold / weight) + 1
    paddr = dram.mapping.dram_to_phys(0, aggressor, 0)
    if batched:
        dram.hammer_batch([(*dram.mapping.row_of(paddr), count)],
                          extra_ns=15)
    else:
        dram.hammer(paddr, count)
        dram.clock.advance(count * 15)
    return fingerprint(machine)


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
        """Each batch item is one data-origin hammer call: one PMU
        sample each, regardless of its count or of run-grouping."""
        dram = build_dram()
        dram.hammer_batch([(0, 30, 5)] * 3 + [(0, 33, 1)] + [(0, 30, 2)])
        assert list(dram.recent_activations) == [
            (0, 30, "data")] * 3 + [(0, 33, "data"), (0, 30, "data")]

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


class TestHammerBatchDegenerates:
    def test_empty_and_nonpositive_items_are_noops(self):
        dram = build_dram()
        before = dram.clock.now_ns
        dram.hammer_batch([])
        dram.hammer_batch([(0, 30, 0), (0, 30, -5)])
        assert dram.total_activations == 0
        assert dram.clock.now_ns == before
        assert not dram.recent_activations

    def test_single_item_equals_scalar_hammer(self):
        """The HammerKit burst shape: one (bank, row, count) item."""
        scalar = build_dram()
        batched = build_dram()
        paddr = scalar.mapping.dram_to_phys(0, 30, 0)
        scalar.hammer(paddr, 99)
        scalar.clock.advance(99 * 15)
        batched.hammer_batch([(*batched.mapping.row_of(paddr), 99)],
                             extra_ns=15)
        assert scalar.clock.now_ns == batched.clock.now_ns
        assert scalar.total_activations == batched.total_activations
        assert (scalar.engine.total_deposits
                == batched.engine.total_deposits)
        epoch = scalar._epoch()
        for row in (28, 29, 31, 32):
            assert (scalar.engine.accumulated(0, row, epoch)
                    == batched.engine.accumulated(0, row, epoch))

    @pytest.mark.parametrize("tracker", sorted(TRACKER_PARAMS))
    def test_single_item_equals_scalar_hammer_under_tracker(self, tracker):
        """One item whose count crosses a victim threshold, with a feed
        tracker subscribed: flips land first, then the tracker's
        refreshes, on both paths alike."""
        scalar = threshold_crossing_burst(tracker, batched=False)
        batched = threshold_crossing_burst(tracker, batched=True)
        assert scalar["flip_log"]
        assert scalar["telemetry"]["actuator.refreshes"] > 0
        assert scalar == batched


class TestHammerBatchRejectsBadStreams:
    """A bad stream raises a typed error before any side effect: no
    activation, bank counter, accumulator, sample or clock moves, even
    when the bad value comes after valid items."""

    @pytest.mark.parametrize("items, extra_ns, match", [
        ([(0, 30, 5)], -100, "extra_ns must be >= 0, got -100"),
        ([(0, 30, 5), (8, 0, 1)], 0, r"\(bank=8, row=0\)"),
        ([(0, 30, 5), (-1, 0, 1)], 0, r"\(bank=-1, row=0\)"),
        ([(0, 30, 5), (0, 64, 1)], 15, r"\(bank=0, row=64\)"),
        ([(0, 30, 5), (0, -1, 0)], 15, r"\(bank=0, row=-1\)"),
    ], ids=["negative_extra_ns", "bank_past_end", "negative_bank",
            "row_past_end", "negative_row_zero_count"])
    def test_nothing_moves(self, items, extra_ns, match):
        machine = Machine(MachineConfig(machine="tiny", seed=7))
        dram = machine.dram
        dram.hammer(dram.mapping.dram_to_phys(0, 40, 0), 3)
        before = fingerprint(machine)
        with pytest.raises(DramError, match=match):
            dram.hammer_batch(items, extra_ns=extra_ns)
        assert fingerprint(machine) == before
        assert dram.engine.accumulated(0, 31, dram._epoch()) == 0.0


def test_perf_testbed_machine_still_boots():
    """Guard: the batched layer does not disturb machine construction."""
    kernel = Kernel(machine("perf_testbed"))
    assert kernel.dram.trr.params.enabled
