"""Regression tests pinning the deposit threshold-crossing boundary.

The fault model's crossing predicate is ``before < threshold <= after``
(:func:`repro.dram.disturbance.crosses`): a cell fires on the deposit
that first *reaches* its threshold — ``after == threshold`` flips — and
never re-fires while the accumulator sits at or above the threshold —
``before == threshold`` is not a crossing.  An off-by-one here either
double-fires cells (every deposit past the threshold would flip again)
or delays every flip by one deposit, so the exact semantics are pinned
down to the boundary values, for the scalar :meth:`deposit` and for the
batched kernels behind :meth:`DramModule.hammer_batch`, which must
agree bit for bit.
"""

from repro.dram.disturbance import (
    DisturbanceEngine,
    DisturbanceParams,
    VulnerableCell,
    crosses,
)
from repro.dram.geometry import DramGeometry
from repro.machine import Machine


def make_engine(vuln_probability=0.0):
    geometry = DramGeometry(num_banks=4, rows_per_bank=64, row_bytes=4096)
    params = DisturbanceParams(
        base_flip_threshold=1000.0,
        row_vuln_probability=vuln_probability,
        seed=3,
    )
    return DisturbanceEngine(geometry, params)


def inject_cells(engine, bank, row, cells):
    """Install a hand-built cell map for one row of this engine only."""
    engine.set_cells(bank, row, cells)


def scalar_hammer(engine, aggressor, count, items, epoch, now_ns):
    """``items`` activations of ``count`` ACTs of (0, aggressor), one
    :meth:`on_activate` each, 1 ns per ACT."""
    flips = []
    for i in range(items):
        flips.extend(engine.on_activate(
            0, aggressor, count, epoch, now_ns + i * count))
    return flips


def batch_hammer(engine, aggressor, count, items, epoch, now_ns):
    """The same stream through the batched kernel that
    :meth:`DramModule.hammer_batch` drives."""
    flips, *_ = engine.hammer_kernel(
        [((0, aggressor), count)] * items, epoch=epoch, now_ns=now_ns,
        per_act_ns=1, window=1 << 40, origin="data", trr_on=None,
        recent=[])
    return flips


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
    """Victim row 5, aggressor row 4: one ACT deposits exactly 1 unit."""

    def test_batch_matches_scalar_deposits_on_vulnerable_row(self):
        scalar = make_engine()
        batched = make_engine()
        cells = [VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)]
        inject_cells(scalar, 0, 5, cells)
        inject_cells(batched, 0, 5, cells)
        scalar_flips = scalar_hammer(scalar, 4, 3, 7, 0, 42)
        batched_flips = batch_hammer(batched, 4, 3, 7, 0, 42)
        assert scalar_flips == batched_flips
        assert len(batched_flips) == 1  # fired on the 12.0 crossing
        assert batched_flips[0].at_ns == 42 + 3 * 3
        assert scalar.accumulated(0, 5, 0) == batched.accumulated(0, 5, 0)
        assert scalar.total_deposits == batched.total_deposits

    def test_batch_fires_exactly_at_threshold(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        flips = batch_hammer(engine, 4, 5, 2, epoch=0, now_ns=0)
        assert len(flips) == 1  # 5.0 + 5.0 reaches 10.0 exactly
        assert flips[0].at_ns == 5
        assert batch_hammer(engine, 4, 5, 2, epoch=0, now_ns=10) == []

    def test_batch_skips_scan_for_invulnerable_row(self):
        engine = make_engine()
        inject_cells(engine, 0, 5, [])
        assert not engine.is_vulnerable(0, 5)
        assert batch_hammer(engine, 4, 2, 5, epoch=0, now_ns=0) == []
        assert engine.accumulated(0, 5, 0) == 10.0  # the fused add
        assert engine.total_deposits == 5 * len(engine.victim_plan(0, 4))
        assert not engine.is_vulnerable(0, 5)

    def test_batch_out_of_range_row_is_ignored(self):
        engine = make_engine()
        for edge in (0, 63):
            assert batch_hammer(engine, edge, 1, 3, 0, 0) == []
        # Only the six in-bank neighbours of each edge row take deposits.
        assert engine.total_deposits == 2 * 3 * 6
        assert engine.accumulated(0, -1, 0) == 0.0
        assert engine.accumulated(0, 64, 0) == 0.0


VICTIM = (0, 20)


def module_with_cells(cells):
    """A tiny machine's DRAM with ``cells`` as the victim row's map."""
    dram = Machine(machine="tiny").dram
    dram.engine.set_cells(*VICTIM, cells)
    return dram


def stale_streams(dram, stale_acts):
    """Deposit ``stale_acts`` units into the victim in epoch 0, roll
    the clock into epoch 1 — the victim's tag is now stale — and return
    one 80-ACT double-sided stream in two shapes: periodic (the
    closed-form kernel) and one burst per aggressor (the generic one)."""
    bank, row = VICTIM
    left, right = (dram.mapping.dram_to_phys(bank, row + d, 0)
                   for d in (-1, 1))
    dram.hammer(left, stale_acts)
    assert dram.engine.accumulated(bank, row, 0) == float(stale_acts)
    dram.clock.advance(dram.timings.refresh_window_ns - dram.clock.now_ns)
    return {"periodic": [(left, 1), (right, 1)] * 40,
            "bursts": [(left, 40), (right, 40)]}


def victim_flips(dram):
    return [f for f in dram.flip_log if (f.bank, f.row) == VICTIM]


class TestStaleEpochBucket:
    """Vulnerability is a static property of the cell map, never of the
    accumulator's current epoch tag.

    Regression guard for the batched kernels' fused add: a shortcut
    keyed on the *accumulator's* epoch (e.g. "bucket is from another
    epoch, so fuse") would silently skip the crossing scan for a
    vulnerable victim whose bucket still carries a stale tag — dropping
    flips the scalar path produces.  Pinned on the live path:
    :meth:`DramModule.hammer_batch` against the scalar ``hammer`` loop.
    """

    CELLS = [VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)]

    def test_vulnerable_row_with_stale_tag_still_flips(self):
        for shape in ("periodic", "bursts"):
            dram = module_with_cells(self.CELLS)
            dram.hammer_batch(stale_streams(dram, 3)[shape])
            assert len(victim_flips(dram)) == 1, shape
            assert dram.engine.accumulated(*VICTIM, 1) == 80.0
            assert dram.engine.accumulated(*VICTIM, 0) == 0.0  # sum gone

    def test_stale_tag_batch_matches_scalar_exactly(self):
        for shape in ("periodic", "bursts"):
            results = {}
            for batched in (True, False):
                dram = module_with_cells(self.CELLS)
                items = stale_streams(dram, 9)[shape]  # 9.0: below 10.0
                if batched:
                    dram.hammer_batch(items)
                else:
                    for paddr, count in items:
                        dram.hammer(paddr, count)
                results[batched] = (
                    tuple(dram.flip_log), dram.clock.now_ns,
                    dram.total_activations, dram.engine.total_deposits,
                    dram.engine.accumulated(*VICTIM, 1))
            assert results[True] == results[False], shape
            assert len(victim_flips(dram)) == 1

    def test_invulnerable_row_with_stale_tag_takes_fused_path(self):
        for shape in ("periodic", "bursts"):
            dram = module_with_cells([])
            dram.hammer_batch(stale_streams(dram, 7)[shape])
            # The fused add landed in the new epoch; the stale sum is
            # gone and nothing flipped.
            assert dram.engine.accumulated(*VICTIM, 1) == 80.0
            assert dram.engine.accumulated(*VICTIM, 0) == 0.0
            assert victim_flips(dram) == []
            assert not dram.engine.is_vulnerable(*VICTIM)

    def test_vulnerability_is_not_a_function_of_epochs(self):
        dram = module_with_cells(self.CELLS)
        bank, row = VICTIM
        items = [(dram.mapping.dram_to_phys(bank, row + d, 0), 1)
                 for d in (-1, 1)] * 40
        window = dram.timings.refresh_window_ns
        for epoch in (0, 1, 4):
            dram.clock.advance(epoch * window - dram.clock.now_ns)
            dram.hammer_batch(items)
            assert dram.engine.is_vulnerable(*VICTIM)
        # The lazy auto-refresh re-arms the cell in every epoch.
        assert len(victim_flips(dram)) == 3
