"""Regression tests pinning the deposit threshold-crossing boundary.

The fault model's crossing predicate is ``before < threshold <= after``
(:func:`repro.dram.disturbance.crosses`): a cell fires on the deposit
that first *reaches* its threshold — ``after == threshold`` flips — and
never re-fires while the accumulator sits at or above the threshold —
``before == threshold`` is not a crossing.  An off-by-one here either
double-fires cells (every deposit past the threshold would flip again)
or delays every flip by one deposit, so the exact semantics are pinned
down to the boundary values, for the scalar :meth:`deposit` and for
:meth:`deposit_batch`, which must agree bit for bit.
"""

import pytest

from repro.dram.disturbance import (
    DisturbanceEngine,
    DisturbanceParams,
    VulnerableCell,
    crosses,
)
from repro.dram.geometry import DramGeometry


def make_engine(vuln_probability=0.0):
    geometry = DramGeometry(num_banks=4, rows_per_bank=64, row_bytes=4096)
    params = DisturbanceParams(
        base_flip_threshold=1000.0,
        row_vuln_probability=vuln_probability,
        seed=3,
    )
    return DisturbanceEngine(geometry, params)


def inject_cells(engine, bank, row, cells):
    """Install a hand-built cell map for one row (tests only)."""
    key = (bank, row)
    engine._cells[key] = tuple(cells)
    if cells:
        engine._vulnerable.add(key)
    return key


class TestCrossesPredicate:
    def test_reaching_the_threshold_fires(self):
        assert crosses(0.0, 10.0, 10.0)

    def test_sitting_at_the_threshold_does_not_refire(self):
        assert not crosses(10.0, 10.0, 20.0)

    def test_strictly_below_does_not_fire(self):
        assert not crosses(0.0, 10.0, 9.999999)

    def test_spanning_fires(self):
        assert not crosses(10.000001, 10.0, 50.0)
        assert crosses(9.999999, 10.0, 10.000001)

    def test_zero_width_step_never_fires(self):
        assert not crosses(10.0, 10.0, 10.0)


class TestDepositBoundary:
    def test_deposit_fires_exactly_at_threshold(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        assert engine.deposit(0, 5, 9.0, epoch=0, now_ns=100) == []
        flips = engine.deposit(0, 5, 1.0, epoch=0, now_ns=200)
        assert len(flips) == 1
        assert flips[0].at_ns == 200
        assert flips[0].row == 5

    def test_before_equal_threshold_does_not_refire(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        assert len(engine.deposit(0, 5, 10.0, epoch=0, now_ns=0)) == 1
        # Accumulator sits exactly at the threshold now.
        assert engine.accumulated(0, 5, 0) == 10.0
        assert engine.deposit(0, 5, 5.0, epoch=0, now_ns=1) == []
        assert engine.deposit(0, 5, 5.0, epoch=0, now_ns=2) == []

    def test_heal_rearms_the_cell(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=3, threshold=10.0, from_value=1)])
        assert len(engine.deposit(0, 5, 10.0, epoch=0, now_ns=0)) == 1
        engine.heal(0, 5)
        assert engine.accumulated(0, 5, 0) == 0.0
        assert len(engine.deposit(0, 5, 10.0, epoch=0, now_ns=1)) == 1

    def test_epoch_rollover_rearms_the_cell(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        assert len(engine.deposit(0, 5, 10.0, epoch=0, now_ns=0)) == 1
        # Next epoch: the lazy auto-refresh restores the charge.
        assert len(engine.deposit(0, 5, 10.0, epoch=1, now_ns=1)) == 1

    def test_equal_thresholds_fire_together(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0),
            VulnerableCell(bit_offset=7, threshold=10.0, from_value=1),
        ])
        flips = engine.deposit(0, 5, 10.0, epoch=0, now_ns=9)
        assert sorted(f.bit_offset for f in flips) == [0, 7]

    def test_one_deposit_can_cross_multiple_thresholds(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=4.0, from_value=0),
            VulnerableCell(bit_offset=1, threshold=8.0, from_value=0),
            VulnerableCell(bit_offset=2, threshold=50.0, from_value=0),
        ])
        flips = engine.deposit(0, 5, 8.0, epoch=0, now_ns=0)
        assert sorted(f.bit_offset for f in flips) == [0, 1]


class TestDepositBatchBoundary:
    def test_batch_matches_scalar_deposits_on_vulnerable_row(self):
        scalar = make_engine()
        batched = make_engine()
        cells = [VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)]
        inject_cells(scalar, 0, 5, cells)
        inject_cells(batched, 0, 5, cells)
        scalar_flips = []
        for _ in range(7):
            scalar_flips.extend(scalar.deposit(0, 5, 3.0, 0, 42))
        batched_flips = batched.deposit_batch(0, 5, 3.0, 7, 0, 42)
        assert scalar_flips == batched_flips
        assert len(batched_flips) == 1  # fired on the 12.0 crossing
        assert scalar.accumulated(0, 5, 0) == batched.accumulated(0, 5, 0)
        assert scalar.total_deposits == batched.total_deposits == 7

    def test_batch_fires_exactly_at_threshold(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        flips = engine.deposit_batch(0, 5, 2.5, 4, epoch=0, now_ns=0)
        assert len(flips) == 1  # 2.5 * 4 reaches 10.0 exactly

    def test_batch_skips_scan_for_invulnerable_row(self):
        engine = make_engine()
        key = inject_cells(engine, 0, 5, [])
        assert not engine.is_vulnerable(0, 5)
        assert engine.deposit_batch(0, 5, 2.0, 5, epoch=0, now_ns=0) == []
        assert engine.accumulated(0, 5, 0) == 10.0
        assert engine.total_deposits == 5
        assert key not in engine._vulnerable

    @pytest.mark.parametrize("units,count", [(0.0, 5), (-1.0, 5),
                                             (1.0, 0), (1.0, -2)])
    def test_batch_rejects_degenerate_inputs(self, units,
                                             count):
        engine = make_engine()
        assert engine.deposit_batch(0, 5, units, count, 0, 0) == []
        assert engine.total_deposits == 0

    def test_batch_out_of_range_row_is_ignored(self):
        engine = make_engine()
        assert engine.deposit_batch(0, -1, 1.0, 3, 0, 0) == []
        assert engine.deposit_batch(0, 64, 1.0, 3, 0, 0) == []
        assert engine.total_deposits == 0


class TestStaleEpochBucket:
    """Vulnerability is a static property of the cell map, never of the
    accumulator's current epoch tag.

    Regression guard for the fused-add shortcut in
    :meth:`DisturbanceEngine.deposit_batch`: a shortcut keyed on the
    *accumulator's* epoch (e.g. "bucket is from another epoch, so fuse")
    would silently skip the per-deposit crossing scan for a vulnerable
    row whose bucket still carries a stale tag — dropping flips the
    scalar path produces.  These tests pin the correct behaviour.
    """

    CELLS = [VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)]

    def test_vulnerable_row_with_stale_tag_still_flips(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, self.CELLS)
        # Touch the row in epoch 0 so its accumulator exists, tagged 0.
        assert engine.deposit(0, 5, 3.0, epoch=0, now_ns=0) == []
        assert engine.accumulated(0, 5, 0) == 3.0
        # Batch into epoch 1: the tag is stale, but the row is
        # vulnerable, so the exact path must run — and flip.
        flips = engine.deposit_batch(0, 5, 2.5, 4, epoch=1, now_ns=7)
        assert len(flips) == 1
        assert flips[0].at_ns == 7
        assert engine.accumulated(0, 5, 1) == 10.0
        assert engine.accumulated(0, 5, 0) == 0.0  # epoch-0 sum is gone

    def test_stale_tag_batch_matches_scalar_exactly(self):
        reference = make_engine()
        batched = make_engine()
        for engine in (reference, batched):
            inject_cells(engine, 0, 5, self.CELLS)
            engine.deposit(0, 5, 9.5, epoch=3, now_ns=1)  # below threshold
        scalar_flips = []
        for _ in range(6):
            scalar_flips.extend(reference.deposit(0, 5, 2.0, 8, 99))
        batched_flips = batched.deposit_batch(0, 5, 2.0, 6, 8, 99)
        assert batched_flips == scalar_flips
        assert len(batched_flips) == 1
        assert (reference.accumulated(0, 5, 8)
                == batched.accumulated(0, 5, 8))
        assert reference.total_deposits == batched.total_deposits

    def test_invulnerable_row_with_stale_tag_takes_fused_path(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [])
        engine.deposit(0, 5, 7.0, epoch=0, now_ns=0)
        assert engine.deposit_batch(0, 5, 2.0, 5, epoch=2, now_ns=1) == []
        # The fused add landed in the new epoch; the stale sum is gone.
        assert engine.accumulated(0, 5, 2) == 10.0
        assert engine.accumulated(0, 5, 0) == 0.0
        assert engine.total_deposits == 6

    def test_vulnerability_is_not_a_function_of_epochs(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, self.CELLS)
        assert engine.is_vulnerable(0, 5)
        for epoch in (0, 4, 1):
            engine.deposit_batch(0, 5, 1.0, 2, epoch, 0)
            assert engine.is_vulnerable(0, 5)
        assert not engine.is_vulnerable(0, 6)
