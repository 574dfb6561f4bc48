"""Tests for the rowhammer disturbance fault model."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.disturbance import (
    DisturbanceEngine,
    DisturbanceParams,
    VulnerableCell,
)
from repro.dram.geometry import DramGeometry
from repro.dram.remap import FoldedRemap, IdentityRemap
from repro.errors import ConfigError, DramError
from repro.machine import Machine

from .reference import reference_cells, reference_on_activate


def geo() -> DramGeometry:
    return DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192)


def engine(**overrides) -> DisturbanceEngine:
    params = dict(
        base_flip_threshold=1000.0,
        threshold_max_factor=2.0,
        max_distance=6,
        distance_decay=0.5,
        row_vuln_probability=1.0,  # every row vulnerable: deterministic tests
        max_vuln_cells_per_row=2,
        seed=99,
    )
    params.update(overrides)
    return DisturbanceEngine(geo(), DisturbanceParams(**params))


class TestParams:
    def test_weight_decay(self):
        p = DisturbanceParams(distance_decay=0.5, max_distance=6)
        assert p.weight(1) == 1.0
        assert p.weight(2) == 0.5
        assert p.weight(3) == 0.25
        assert p.weight(6) == 0.5 ** 5

    def test_weight_out_of_range(self):
        p = DisturbanceParams(max_distance=6)
        assert p.weight(0) == 0.0
        assert p.weight(7) == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(base_flip_threshold=0),
        dict(threshold_max_factor=0.5),
        dict(max_distance=0),
        dict(max_distance=17),
        dict(distance_decay=0.0),
        dict(distance_decay=1.5),
        dict(row_vuln_probability=-0.1),
        dict(row_vuln_probability=1.1),
        dict(max_vuln_cells_per_row=0),
    ])
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigError):
            DisturbanceParams(**kwargs)

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_seed_must_be_an_int(self, seed):
        # Each equals (or stringifies like) another seed yet would
        # derive its own flip map, aliasing in the shared-map cache.
        with pytest.raises(ConfigError, match="seed must be an int"):
            DisturbanceParams(seed=seed)


class TestCellMap:
    def test_deterministic(self):
        e1, e2 = engine(), engine()
        assert e1.vulnerable_cells(3, 17) == e2.vulnerable_cells(3, 17)

    def test_different_rows_differ(self):
        e = engine()
        all_same = all(
            e.vulnerable_cells(0, r) == e.vulnerable_cells(0, r + 1)
            for r in range(10)
        )
        assert not all_same

    def test_cells_sorted_by_threshold(self):
        e = engine()
        for row in range(20):
            cells = e.vulnerable_cells(0, row)
            thresholds = [c.threshold for c in cells]
            assert thresholds == sorted(thresholds)

    def test_probability_zero_means_no_cells(self):
        e = engine(row_vuln_probability=0.0)
        assert all(not e.is_vulnerable(0, r) for r in range(64))

    def test_min_threshold(self):
        e = engine()
        row = next(r for r in range(64) if e.is_vulnerable(0, r))
        cells = e.vulnerable_cells(0, row)
        assert e.min_threshold(0, row) == cells[0].threshold

    def test_min_threshold_none_when_safe(self):
        e = engine(row_vuln_probability=0.0)
        assert e.min_threshold(0, 0) is None

    def test_thresholds_at_least_base(self):
        e = engine()
        for row in range(64):
            for cell in e.vulnerable_cells(0, row):
                assert cell.threshold >= 1000.0
                assert cell.threshold <= 2000.0
                assert cell.from_value in (0, 1)
                assert 0 <= cell.bit_offset < 8192 * 8

    @given(
        seed=st.integers(0, 5),
        probability=st.floats(0.0, 1.0),
        max_cells=st.integers(1, 4),
        row_bytes=st.sampled_from([1024, 8192]),
        queries=st.lists(st.tuples(
            st.integers(0, 1),
            st.sampled_from(["cells", "vulnerable", "min", "plan"]),
            st.integers(0, 7), st.integers(0, 63)),
            min_size=1, max_size=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_shared_map_matches_reference(self, seed, probability,
                                          max_cells, row_bytes, queries):
        """Two engines of one profile, queried in any interleaving,
        answer as the memo-free derivation in ``reference.py`` does."""
        params = DisturbanceParams(row_vuln_probability=probability,
                                   max_vuln_cells_per_row=max_cells,
                                   seed=seed)
        geometry = DramGeometry(num_banks=8, rows_per_bank=64,
                                row_bytes=row_bytes)
        engines = [DisturbanceEngine(geometry, params) for _ in range(2)]
        assert engines[0]._cell_map is engines[1]._cell_map
        for which, query, bank, row in queries:
            e = engines[which]
            expected = reference_cells(params, row_bytes, bank, row)
            if query == "cells":
                assert e.vulnerable_cells(bank, row) == expected
            elif query == "vulnerable":
                assert e.is_vulnerable(bank, row) == bool(expected)
            elif query == "min":
                assert e.min_threshold(bank, row) == (
                    expected[0].threshold if expected else None)
            else:
                for victim, _weight, cells in e.victim_plan(bank, row):
                    assert cells == reference_cells(params, row_bytes,
                                                    bank, victim)


def tiny_engine():
    return Machine(machine="tiny").dram.engine


def vulnerable_row(e, bank=0):
    """The first row of ``bank`` with cells, two rows clear of the edge."""
    return next(r for r in range(2, e.geometry.rows_per_bank - 2)
                if e.is_vulnerable(bank, r))


class TestSharedCellMap:
    """One cell map per profile and process; set_cells stays private."""

    PINNED = [VulnerableCell(bit_offset=9, threshold=7.0, from_value=1)]

    def test_machines_of_one_profile_share_one_map(self):
        first, second = tiny_engine(), tiny_engine()
        assert first._cell_map is second._cell_map
        assert first._cell_map.shared
        other_seed = Machine(machine="tiny", seed=2).dram.engine
        assert other_seed._cell_map is not first._cell_map
        narrow = DramGeometry(num_banks=first.geometry.num_banks,
                              rows_per_bank=first.geometry.rows_per_bank,
                              row_bytes=first.geometry.row_bytes // 2)
        other_width = DisturbanceEngine(narrow, first.params)
        assert other_width._cell_map is not first._cell_map

    def test_set_cells_leaves_other_engines_alone(self):
        patched, twin = tiny_engine(), tiny_engine()
        row = vulnerable_row(patched)
        before = twin.vulnerable_cells(0, row)
        shared = patched._cell_map
        patched.set_cells(0, row, self.PINNED)
        assert patched.vulnerable_cells(0, row) == tuple(self.PINNED)
        assert patched._cell_map is not shared
        assert not patched._cell_map.shared
        assert twin.vulnerable_cells(0, row) == before
        later = tiny_engine()
        assert later._cell_map is shared
        assert later.vulnerable_cells(0, row) == before
        assert later.vulnerable_cells(0, row) == reference_cells(
            later.params, later.geometry.row_bytes, 0, row)

    def test_set_cells_sorts_by_threshold(self):
        e = engine()
        cells = [VulnerableCell(bit_offset=1, threshold=9.0, from_value=0),
                 VulnerableCell(bit_offset=2, threshold=3.0, from_value=1)]
        e.set_cells(1, 4, cells)
        assert e.vulnerable_cells(1, 4) == (cells[1], cells[0])
        assert e.min_threshold(1, 4) == 3.0

    def test_empty_set_cells_clears_a_vulnerable_row(self):
        e = tiny_engine()
        row = vulnerable_row(e)
        aggressor = row - 1
        plan = e.victim_plan(0, aggressor)
        assert any(victim == row and cells for victim, _w, cells in plan)
        e.set_cells(0, row, [])
        assert not e.is_vulnerable(0, row)
        assert e.vulnerable_cells(0, row) == ()
        assert e.min_threshold(0, row) is None
        rebuilt = e.victim_plan(0, aggressor)
        assert [v for v, _w, _c in rebuilt] == [v for v, _w, _c in plan]
        assert all(cells == () for victim, _w, cells in rebuilt
                   if victim == row)
        # Nothing left to flip: hammering the flank far past the old
        # threshold fires no cell of the cleared row, though its
        # accumulator fills like any other row's.
        flips = e.on_activate(0, aggressor, 10 ** 6, epoch=0, now_ns=0)
        assert all(f.row != row for f in flips)
        weight = next(w for victim, w, _c in rebuilt if victim == row)
        assert e.accumulated_rows(0)[(0, row)] == weight * 10 ** 6

    def test_deepcopy_shares_a_shared_map_and_copies_a_private_one(self):
        e = tiny_engine()
        row = vulnerable_row(e)
        assert copy.deepcopy(e)._cell_map is e._cell_map
        e.set_cells(0, row, self.PINNED)
        clone = copy.deepcopy(e)
        assert clone._cell_map is not e._cell_map
        assert clone.vulnerable_cells(0, row) == tuple(self.PINNED)
        e.set_cells(0, row, [])
        assert clone.vulnerable_cells(0, row) == tuple(self.PINNED)
        assert clone.is_vulnerable(0, row)
        clone.set_cells(0, row + 1, self.PINNED)
        assert e.vulnerable_cells(0, row + 1) == reference_cells(
            e.params, e.geometry.row_bytes, 0, row + 1)

    def test_snapshot_before_set_cells_restores_the_old_cells(self):
        machine = Machine(machine="tiny")
        engine = machine.dram.engine
        row = vulnerable_row(engine)
        before = engine.vulnerable_cells(0, row)
        assert before == reference_cells(engine.params,
                                         engine.geometry.row_bytes, 0, row)
        snap = machine.snapshot()
        engine.set_cells(0, row, [])
        assert not machine.dram.engine.is_vulnerable(0, row)
        machine.restore(snap)
        restored = machine.dram.engine
        assert restored is not engine
        assert restored.vulnerable_cells(0, row) == before
        assert restored.is_vulnerable(0, row)
        assert restored._cell_map is tiny_engine()._cell_map


class TestAccumulation:
    def test_deposit_accumulates(self):
        e = engine()
        e.deposit(0, 10, 100.0, epoch=0, now_ns=0)
        e.deposit(0, 10, 50.0, epoch=0, now_ns=10)
        assert e.accumulated(0, 10, epoch=0) == pytest.approx(150.0)

    def test_epoch_rollover_heals(self):
        e = engine()
        e.deposit(0, 10, 500.0, epoch=0, now_ns=0)
        assert e.accumulated(0, 10, epoch=1) == 0.0
        e.deposit(0, 10, 10.0, epoch=1, now_ns=0)
        assert e.accumulated(0, 10, epoch=1) == pytest.approx(10.0)

    def test_heal_resets(self):
        e = engine()
        e.deposit(0, 10, 500.0, epoch=0, now_ns=0)
        e.heal(0, 10)
        assert e.accumulated(0, 10, epoch=0) == 0.0

    def test_out_of_range_row_ignored(self):
        e = engine()
        assert e.deposit(0, -1, 100.0, epoch=0, now_ns=0) == []
        assert e.deposit(0, 64, 100.0, epoch=0, now_ns=0) == []

    def test_zero_or_negative_units_noop(self):
        e = engine()
        assert e.deposit(0, 5, 0.0, epoch=0, now_ns=0) == []
        assert e.accumulated(0, 5, epoch=0) == 0.0


class TestActivation:
    def test_activation_recharges_self(self):
        e = engine()
        e.deposit(0, 10, 900.0, epoch=0, now_ns=0)
        e.on_activate(0, 10, count=1, epoch=0, now_ns=0)
        assert e.accumulated(0, 10, epoch=0) == 0.0

    def test_activation_disturbs_neighbors_with_decay(self):
        e = engine(row_vuln_probability=0.0)
        e.on_activate(0, 10, count=100, epoch=0, now_ns=0)
        assert e.accumulated(0, 9, epoch=0) == pytest.approx(100.0)
        assert e.accumulated(0, 11, epoch=0) == pytest.approx(100.0)
        assert e.accumulated(0, 8, epoch=0) == pytest.approx(50.0)
        assert e.accumulated(0, 12, epoch=0) == pytest.approx(50.0)
        assert e.accumulated(0, 16, epoch=0) == pytest.approx(100 * 0.5 ** 5)
        assert e.accumulated(0, 17, epoch=0) == 0.0  # beyond max distance

    def test_flip_fires_on_threshold_crossing(self):
        e = engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = e.min_threshold(0, row)
        flips = e.on_activate(0, row - 1, count=int(threshold) + 1,
                              epoch=0, now_ns=123)
        mine = [f for f in flips if f.row == row]
        assert mine, "crossing the easiest cell's threshold must flip"
        assert mine[0].at_ns == 123
        assert mine[0].bank == 0

    def test_flip_fires_only_once_per_crossing(self):
        e = engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = int(e.min_threshold(0, row))
        e.on_activate(0, row - 1, count=threshold + 1, epoch=0, now_ns=0)
        # Further hammering must not re-emit the same cell's flip.
        flips = e.on_activate(0, row - 1, count=10, epoch=0, now_ns=1)
        offsets = {f.bit_offset for f in flips if f.row == row}
        first_cell = e.vulnerable_cells(0, row)[0]
        assert first_cell.bit_offset not in offsets

    def test_double_sided_twice_as_fast(self):
        e = engine(row_vuln_probability=0.0)
        e.on_activate(0, 9, count=100, epoch=0, now_ns=0)
        e.on_activate(0, 11, count=100, epoch=0, now_ns=0)
        assert e.accumulated(0, 10, epoch=0) == pytest.approx(200.0)

    def test_refresh_window_bounds_hammering(self):
        # Hammering split across two epochs never flips if each half is
        # below threshold — the core reason the 64 ms refresh matters.
        e = engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = int(e.min_threshold(0, row))
        half = threshold // 2 + 1
        flips_a = e.on_activate(0, row - 1, count=half, epoch=0, now_ns=0)
        flips_b = e.on_activate(0, row - 1, count=half, epoch=1, now_ns=0)
        assert not [f for f in flips_a if f.row == row]
        assert not [f for f in flips_b if f.row == row]

    def test_victim_refresh_mid_hammer_prevents_flip(self):
        # This is SoftTRR's whole mechanism in miniature.
        e = engine()
        row = next(r for r in range(2, 62) if e.is_vulnerable(0, r))
        threshold = int(e.min_threshold(0, row))
        half = threshold // 2 + 1
        e.on_activate(0, row - 1, count=half, epoch=0, now_ns=0)
        e.heal(0, row)  # the software refresh
        flips = e.on_activate(0, row - 1, count=half, epoch=0, now_ns=0)
        assert not [f for f in flips if f.row == row]

    @given(count=st.integers(min_value=1, max_value=500),
           distance=st.integers(min_value=1, max_value=6))
    @settings(max_examples=60)
    def test_accumulation_matches_weight_formula(self, count, distance):
        e = engine(row_vuln_probability=0.0)
        e.on_activate(0, 30, count=count, epoch=0, now_ns=0)
        expected = count * (0.5 ** (distance - 1))
        assert e.accumulated(0, 30 + distance, epoch=0) == pytest.approx(expected)
        assert e.accumulated(0, 30 - distance, epoch=0) == pytest.approx(expected)


#: Rows per bank for the plan-walk property: small, so that bursts,
#: seeded victims and the bank edges keep landing in one another's
#: neighbourhoods.
WALK_ROWS = 16


def store(e):
    """Every bank's accumulators and epoch tags (None = untouched)."""
    return [None if values is None else (list(values), list(tags))
            for values, tags in zip(e._values, e._epochs)]


@st.composite
def activation_runs(draw):
    """Engine parameters, a remap, accumulators seeded just under a
    cell's threshold, and a run of bursts with rolling epochs."""
    params = DisturbanceParams(
        base_flip_threshold=draw(st.sampled_from([40.0, 150.0, 600.0])),
        threshold_max_factor=draw(st.sampled_from([1.0, 2.0, 8.0])),
        max_distance=draw(st.integers(1, 6)),
        distance_decay=draw(st.sampled_from([0.5, 0.6, 1.0])),
        row_vuln_probability=draw(st.sampled_from([0.25, 0.5, 1.0])),
        max_vuln_cells_per_row=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 1 << 16)),
    )
    remap = draw(st.sampled_from([IdentityRemap, FoldedRemap]))(WALK_ROWS)
    rows = st.one_of(
        st.sampled_from([0, 1, WALK_ROWS - 2, WALK_ROWS - 1]),
        st.integers(0, WALK_ROWS - 1))
    banks = st.integers(0, 1)
    # (bank, row, cell index, gap below that cell's threshold); a zero
    # gap leaves the accumulator sitting exactly at the threshold.
    seeds = draw(st.lists(st.tuples(
        banks, rows, st.integers(0, 2),
        st.sampled_from([0.0, 1e-9, 0.25, 1.0, 3.0])), max_size=6))
    # (bank, aggressor row, count, epoch roll before the burst); small
    # counts land a seeded accumulator exactly on its threshold.
    counts = st.one_of(st.integers(1, 4), st.integers(1, 200))
    bursts = draw(st.lists(st.tuples(
        banks, rows, counts, st.integers(0, 1)),
        min_size=1, max_size=12))
    return params, remap, seeds, bursts


class TestPlanWalk:
    @given(activation_runs())
    @settings(max_examples=200, deadline=None)
    def test_on_activate_matches_reference(self, run):
        """The plan walk against the specification it replaced
        (``tests/dram/reference.py``): same flips, same accumulators and
        epoch tags, same counters, burst after burst."""
        params, remap, seeds, bursts = run
        geometry = DramGeometry(num_banks=2, rows_per_bank=WALK_ROWS,
                                row_bytes=8192)
        walk = DisturbanceEngine(geometry, params, remap=remap)
        ref = DisturbanceEngine(geometry, params, remap=remap)
        for e in (walk, ref):
            for bank, row, index, gap in seeds:
                cells = e.vulnerable_cells(bank, row)
                if cells:
                    threshold = cells[min(index, len(cells) - 1)].threshold
                    e.deposit(bank, row, threshold - gap, epoch=0, now_ns=0)
        epoch = 0
        for at, (bank, row, count, roll) in enumerate(bursts, start=1):
            epoch += roll
            assert (walk.on_activate(bank, row, count, epoch, at)
                    == reference_on_activate(ref, bank, row, count,
                                             epoch, at))
            assert store(walk) == store(ref)
        assert walk.total_deposits == ref.total_deposits
        assert walk.total_flip_events == ref.total_flip_events



class TestOutOfGeometry:
    """Coordinates outside the 8 x 64 geometry raise a ``DramError``
    naming the value, before any accumulator, tag, counter or plan
    moves (a negative bank used to index bank 7's lists, a row past
    the bank deposited into its last rows, a bank past the end raised
    a bare ``IndexError``)."""

    CASES = {
        "negative_bank": (lambda e: e.on_activate(-1, 30, 5, 0, 0),
                          r"bank -1\b"),
        "deposit_negative_bank": (lambda e: e.deposit(-1, 30, 5.0, 0, 0),
                                  r"bank -1\b"),
        "row_past_end": (lambda e: e.on_activate(0, 66, 5, 0, 0),
                         r"row 66\b"),
        "bank_past_end": (lambda e: e.on_activate(8, 30, 5, 0, 0),
                          r"bank 8\b"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_nothing_moves(self, case):
        call, message = self.CASES[case]
        e = engine()
        # Live state in the first and the last bank, near the rows the
        # bad coordinates would reach.
        e.on_activate(0, 61, 3, epoch=0, now_ns=0)
        e.on_activate(7, 30, 3, epoch=0, now_ns=0)
        e.deposit(7, 31, 50.0, epoch=0, now_ns=0)
        before = (store(e), e.total_deposits, e.total_flip_events,
                  dict(e._plans))
        with pytest.raises(DramError, match=message):
            call(e)
        assert (store(e), e.total_deposits, e.total_flip_events,
                dict(e._plans)) == before

    def test_victim_plan_checks_coordinates(self):
        e = engine()
        with pytest.raises(DramError, match=r"row 64\b"):
            e.victim_plan(0, 64)
        assert e._plans == {}

    def test_plan_carries_first_cell_thresholds(self):
        e = engine(row_vuln_probability=0.5)
        e.set_cells(0, 31, [])
        plan = e._plan(0, 30)
        assert any(victim == 31 for victim, _w, _first, _c in plan)
        for victim, weight, first, cells in plan:
            assert cells == e.vulnerable_cells(0, victim)
            assert first == (cells[0].threshold if cells else float("inf"))
        assert e.victim_plan(0, 30) == tuple(
            (victim, weight, cells) for victim, weight, _f, cells in plan)
