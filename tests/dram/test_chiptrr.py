"""Tests for the in-DRAM TRR tracker and its many-sided blind spot."""

import pytest

from repro.dram.chiptrr import ChipTrr, TrrParams
from repro.errors import ConfigError


class Recorder:
    """Drives a standalone tracker the way the activation feed does
    (observe, then drain) and collects the rows it refreshes."""

    def __init__(self, trr):
        self.trr = trr
        self.refreshed = []

    def activate(self, bank, row, count, epoch):
        self.trr.observe(bank, row, count, epoch, 0)
        self.refreshed.extend(self.trr.drain_refreshes())


def make_trr(slots=2, threshold=100, distance=2):
    trr = ChipTrr(
        TrrParams(enabled=True, tracker_slots=slots,
                  trr_threshold=threshold, refresh_distance=distance),
    )
    return trr, Recorder(trr)


class TestParams:
    def test_disabled_params_skip_validation(self):
        TrrParams(enabled=False, tracker_slots=0)

    @pytest.mark.parametrize("kwargs", [
        dict(tracker_slots=0),
        dict(trr_threshold=1),
        dict(refresh_distance=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            TrrParams(enabled=True, **kwargs)


class TestTracking:
    def test_disabled_does_nothing(self):
        trr = ChipTrr(TrrParams(enabled=False))
        rec = Recorder(trr)
        for _ in range(1000):
            rec.activate(0, 5, 1, epoch=0)
        assert rec.refreshed == []
        assert trr.tracked_rows(0, 0) == {}

    def test_single_aggressor_triggers_refresh(self):
        trr, rec = make_trr(threshold=50, distance=2)
        for _ in range(50):
            rec.activate(0, 10, 1, epoch=0)
        assert (0, 9) in rec.refreshed
        assert (0, 11) in rec.refreshed
        assert (0, 8) in rec.refreshed
        assert (0, 12) in rec.refreshed

    def test_counter_resets_after_refresh(self):
        trr, rec = make_trr(threshold=50)
        for _ in range(50):
            rec.activate(0, 10, 1, epoch=0)
        assert trr.tracked_rows(0, 0)[10] == 0

    def test_double_sided_both_tracked(self):
        trr, rec = make_trr(slots=2, threshold=100)
        for _ in range(200):
            rec.activate(0, 9, 1, epoch=0)
            rec.activate(0, 11, 1, epoch=0)
        # Both aggressors reached the threshold at least once; the victim
        # row 10 was refreshed from both sides.
        assert rec.refreshed.count((0, 10)) >= 2
        assert trr.targeted_refreshes >= 2

    def test_three_sided_bypasses_two_slot_tracker(self):
        """The TRRespass phenomenon: k > slots aggressors are invisible."""
        trr, rec = make_trr(slots=2, threshold=100)
        for _ in range(2000):
            rec.activate(0, 8, 1, epoch=0)
            rec.activate(0, 10, 1, epoch=0)
            rec.activate(0, 12, 1, epoch=0)
        assert rec.refreshed == []
        assert trr.targeted_refreshes == 0
        assert trr.evictions > 0

    def test_k_sided_caught_with_enough_slots(self):
        trr, rec = make_trr(slots=4, threshold=100)
        for _ in range(200):
            rec.activate(0, 8, 1, epoch=0)
            rec.activate(0, 10, 1, epoch=0)
            rec.activate(0, 12, 1, epoch=0)
        assert trr.targeted_refreshes > 0

    def test_epoch_rollover_clears_tracker(self):
        trr, rec = make_trr(slots=2, threshold=100)
        for _ in range(99):
            rec.activate(0, 10, 1, epoch=0)
        rec.activate(0, 10, 1, epoch=1)  # new refresh window
        assert trr.targeted_refreshes == 0
        assert trr.tracked_rows(0, 1) == {10: 1}

    def test_banks_tracked_independently(self):
        trr, rec = make_trr(slots=1, threshold=100)
        for _ in range(99):
            rec.activate(0, 10, 1, epoch=0)
            rec.activate(1, 20, 1, epoch=0)
        assert trr.tracked_rows(0, 0) == {10: 99}
        assert trr.tracked_rows(1, 0) == {20: 99}

    def test_batched_counts(self):
        trr, rec = make_trr(slots=2, threshold=100)
        rec.activate(0, 10, 100, epoch=0)
        assert trr.targeted_refreshes == 1

    def test_misra_gries_eviction_removes_dead_rows(self):
        trr, rec = make_trr(slots=1, threshold=1000)
        rec.activate(0, 10, 5, epoch=0)   # tracked: {10: 5}
        rec.activate(0, 20, 5, epoch=0)   # evicts 10 entirely
        assert trr.tracked_rows(0, 0) == {}
        rec.activate(0, 20, 1, epoch=0)   # now 20 can take the slot
        assert trr.tracked_rows(0, 0) == {20: 1}

    def test_negative_or_zero_count_ignored(self):
        trr, rec = make_trr()
        rec.activate(0, 10, 0, epoch=0)
        rec.activate(0, 10, -5, epoch=0)
        assert trr.tracked_rows(0, 0) == {}
