"""Epoch-rollover and ``heal()`` edge cases at a bank's boundary rows.

Row 0 and row ``rows_per_bank - 1`` are where the victim neighbourhood
is clipped (no rows beyond the bank edge) and where an off-by-one in
the engine's flat per-bank indexing would read or write a neighbouring
bank's slab.  Both are exercised directly at the engine level and
through :meth:`DramModule.hammer_batch` on a real machine.
"""

import pytest

from repro.dram.disturbance import (
    DisturbanceEngine,
    DisturbanceParams,
    VulnerableCell,
)
from repro.dram.geometry import DramGeometry
from repro.machine import Machine

ROWS = 64
LAST = ROWS - 1
EDGE_ROWS = [0, LAST]


def make_engine():
    geometry = DramGeometry(num_banks=4, rows_per_bank=ROWS,
                            row_bytes=4096)
    params = DisturbanceParams(base_flip_threshold=1000.0,
                               row_vuln_probability=0.0, seed=3)
    return DisturbanceEngine(geometry, params)


def inject_cells(engine, bank, row, cells):
    engine.set_cells(bank, row, cells)


class TestEdgeRowActivation:
    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_on_activate_clips_the_neighbourhood(self, row):
        engine = make_engine()
        assert engine.on_activate(0, row, 3, epoch=0, now_ns=0) == []
        distance_max = engine.params.max_distance
        for distance in range(1, distance_max + 1):
            inside = row + distance if row == 0 else row - distance
            expected = engine.params.weight(distance) * 3
            assert engine.accumulated(0, inside, 0) == expected
        # Nothing spilled past the edge: out-of-range reads stay 0 and
        # never raise (the engine must not index a neighbour bank).
        for distance in range(1, distance_max + 1):
            outside = row - distance if row == 0 else row + distance
            assert engine.accumulated(0, outside, 0) == 0.0
        assert engine.vulnerable_accumulated(0) == {}

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_own_row_heal_at_the_edge(self, row):
        engine = make_engine()
        engine.deposit(0, row, 50.0, epoch=0, now_ns=0)
        assert engine.accumulated(0, row, 0) == 50.0
        # Activating the edge row heals it and disturbs inward only.
        engine.on_activate(0, row, 1, epoch=0, now_ns=1)
        assert engine.accumulated(0, row, 0) == 0.0

    def test_heal_out_of_range_is_a_silent_noop(self):
        engine = make_engine()
        engine.deposit(0, 0, 5.0, epoch=0, now_ns=0)
        engine.heal(0, -1)
        engine.heal(0, ROWS)
        engine.heal(-1, 0)
        engine.heal(99, 0)
        assert engine.accumulated(0, 0, 0) == 5.0

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_heal_before_any_deposit(self, row):
        engine = make_engine()
        engine.heal(0, row)  # no accumulator exists yet
        assert engine.accumulated(0, row, 0) == 0.0
        engine.deposit(0, row, 4.0, epoch=0, now_ns=0)
        assert engine.accumulated(0, row, 0) == 4.0

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_heal_preserves_the_epoch_semantics(self, row):
        # Heal zeroes the value but must not re-tag the accumulator:
        # a healed row reads 0 in every epoch, and the next deposit in
        # a *newer* epoch starts from the lazy auto-refresh as usual.
        engine = make_engine()
        engine.deposit(0, row, 30.0, epoch=1, now_ns=0)
        engine.heal(0, row)
        assert engine.accumulated(0, row, 0) == 0.0
        assert engine.accumulated(0, row, 1) == 0.0
        assert engine.accumulated(0, row, 2) == 0.0
        engine.deposit(0, row, 7.0, epoch=2, now_ns=1)
        assert engine.accumulated(0, row, 2) == 7.0
        assert engine.accumulated(0, row, 1) == 0.0


class TestEdgeRowEpochRollover:
    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_rollover_rearms_edge_cells(self, row):
        engine = make_engine()
        inject_cells(engine, 0, row, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        assert len(engine.deposit(0, row, 10.0, epoch=0, now_ns=0)) == 1
        # The lazy auto-refresh re-arms the cell next epoch — exactly at
        # the threshold again (crosses() boundary at the edge row).
        assert len(engine.deposit(0, row, 10.0, epoch=5, now_ns=1)) == 1
        assert engine.deposit(0, row, 1.0, epoch=5, now_ns=2) == []

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_rollover_discards_the_old_sum(self, row):
        engine = make_engine()
        inject_cells(engine, 0, row, [
            VulnerableCell(bit_offset=0, threshold=10.0, from_value=0)])
        assert engine.deposit(0, row, 9.0, epoch=0, now_ns=0) == []
        # 9.0 from epoch 0 must not count towards epoch 1's crossing.
        assert engine.deposit(0, row, 9.0, epoch=1, now_ns=1) == []
        flips = engine.deposit(0, row, 1.0, epoch=1, now_ns=2)
        assert len(flips) == 1

    @pytest.mark.parametrize("row", EDGE_ROWS)
    def test_batch_deposit_at_edge_matches_scalar(self, row):
        # Five 3-ACT activations of the edge row's only neighbour, one
        # on_activate each vs the batched kernel behind hammer_batch.
        reference = make_engine()
        batched = make_engine()
        cells = [VulnerableCell(bit_offset=2, threshold=9.0, from_value=1)]
        for engine in (reference, batched):
            inject_cells(engine, 0, row, cells)
        aggressor = 1 if row == 0 else LAST - 1
        scalar_flips = []
        for i in range(5):
            scalar_flips.extend(
                reference.on_activate(0, aggressor, 3, 2, 11 + 3 * i))
        batched_flips, *_ = batched.hammer_kernel(
            [((0, aggressor), 3)] * 5, epoch=2, now_ns=11, per_act_ns=1,
            window=1 << 40, origin="data", trr_on=None, recent=[])
        assert batched_flips == scalar_flips
        assert len(batched_flips) == 1  # 9.0 reached on the 3rd ACT
        assert (reference.accumulated(0, row, 2)
                == batched.accumulated(0, row, 2))


def replay(dram, items, *, extra_ns, batched):
    """One ``hammer_batch`` call, or the scalar loop it stands for."""
    if batched:
        dram.hammer_batch(items, extra_ns=extra_ns)
        return
    for paddr, count in items:
        dram.hammer(paddr, count)
        dram.clock.advance(count * extra_ns)


class TestModuleEdgeHammer:
    """Whole-module equivalence when hammering the boundary rows."""

    @pytest.mark.parametrize("row", [0, None])  # None = last row
    def test_one_location_at_the_edge_is_core_invariant(self, row):
        # The periodic kernel and the scalar per-ACT path must agree.
        results = {}
        for batched in (True, False):
            m = Machine(machine="tiny")
            dram = m.dram
            edge = row if row is not None else (
                dram.geometry.rows_per_bank - 1)
            paddr = dram.mapping.dram_to_phys(0, edge, 0)
            items = [(paddr, 7)] * 600
            replay(dram, items, extra_ns=15, batched=batched)
            results[batched] = (
                tuple(dram.flip_log), m.clock.now_ns,
                dram.total_activations,
                dram.engine.total_deposits,
                dram.engine.vulnerable_accumulated(dram._epoch()))
        assert results[True] == results[False]

    def test_double_sided_pinning_both_edges(self):
        # Aggressors at both bank edges at once: the periodic kernel
        # sees two clipped neighbourhoods in one cycle.
        results = {}
        for batched in (True, False):
            m = Machine(machine="tiny")
            dram = m.dram
            last = dram.geometry.rows_per_bank - 1
            items = [(dram.mapping.dram_to_phys(0, 0, 0), 5),
                     (dram.mapping.dram_to_phys(0, last, 0), 5)] * 400
            replay(dram, items, extra_ns=0, batched=batched)
            results[batched] = (tuple(dram.flip_log), m.clock.now_ns,
                                dram.total_activations,
                                dram.engine.total_deposits)
        assert results[True] == results[False]

