"""Rowhammer charge-disturbance fault model.

The model follows the experimental picture of Kim et al. [26], which the
paper's design explicitly targets (Section III-A):

* Activating (opening) a row deposits *disturbance* into nearby victim
  rows.  Victims can be up to ``max_distance`` (6) rows away; the deposit
  per activation falls off geometrically with distance,
  ``w(d) = distance_decay ** (d - 1)``.
* A small, fixed subset of cells is *vulnerable* (real DIMMs flip in the
  same cells reproducibly — that is what makes flip *templating* work).
  A vulnerable cell flips when its row's accumulated disturbance crosses
  the cell's threshold.  The most vulnerable cells flip after
  ``base_flip_threshold`` weighted activations — calibrated to the
  paper's #ACT ~= 20 K figure (Section IV-E), which together with an
  activation period >= tRC + controller overhead puts the minimum
  time-to-first-flip just above SoftTRR's 1 ms protection window.
* Activating or refreshing the victim row itself recharges its cells and
  zeroes the accumulator — this is precisely the mechanism SoftTRR's Row
  Refresher relies on ("a read-access to a row can automatically recharge
  the row", Section IV-D).
* Auto-refresh heals every row once per refresh window.  The engine
  implements this lazily with epoch tags instead of touching every row.
* Flips are one-directional per cell (true-cell 1->0 vs anti-cell 0->1),
  so a flip only corrupts data whose current bit value matches the
  cell's charged state.

All randomness (which rows have vulnerable cells, where, and how hard
they are) is a pure function of ``(seed, bank, row)``, so every machine
profile has a stable, reproducible flip map — the property templating
and the security evaluation depend on.  Being pure, the map is derived
once per process: every engine of one ``(DisturbanceParams, row_bytes)``
profile reads the same :class:`CellMap` (see :func:`shared_cell_map`),
and :meth:`DisturbanceEngine.set_cells` is the one way to override a
row, on a private copy.

:class:`DisturbanceEngine` keeps the accumulators in two flat per-bank
arrays indexed by row:

* ``array('d')`` — accumulated disturbance units, and
* ``array('q')`` — the refresh epoch the row was last deposited into
  (``-1`` = never touched).

A row's value is only meaningful when its epoch tag matches the current
refresh epoch; a deposit into a stale-tagged row first rolls the tag and
zeroes the value; :meth:`~DisturbanceEngine.heal` zeroes the value but
never touches the tag, so a healed row still reads 0 in every epoch.

Two paths write the store: the plan walk (:meth:`on_activate`, one
pass over the cached :meth:`victim_plan`; scalar activations and every
:meth:`~repro.dram.module.DramModule.hammer_batch` stream the periodic
kernel does not take, item by item) and :meth:`hammer_periodic`, the
closed-form kernel for the periodic streams hammer loops emit.
The reference both are proven bit-identical to — per distance
``remap.neighbors_at``, then :meth:`deposit` per victim — lives in
``tests/dram/reference.py``; ``tests/dram/test_disturbance.py`` and
``tests/perf/test_generative_differential.py`` compare against it.
Per refresh-epoch segment the periodic kernel classifies each victim
row once and replays whole cycles at C speed:

* invulnerable non-aggressor rows take one fused add for the whole span
  (the sanctioned last-ULP relaxation — such rows can never flip; this
  kernel is the only place it is taken);
* vulnerable non-aggressor rows get the exact sequential float cumsum
  of their per-cycle deposit pattern (``numpy.cumsum`` for spans of at
  least ``_NUMPY_MIN`` adds, ``itertools.accumulate`` for shorter ones —
  both bit-identical to the scalar ``+=`` walk) and per-cell crossings
  located by binary search;
* aggressor-self rows (healed mid-cycle by their own activation) are
  simulated exactly for two cycles, after which every later cycle is a
  bit-identical replica (the post-heal end value is independent of the
  cycle's carry-in), so its flips are replicated instead of recomputed;
* cycle fragments at segment edges are replayed item-by-item.

Every flip keeps the scalar stream's exact ``(item, plan-entry, cell)``
order and its exact integer timestamp, recomputed per flip from the
item's global index — never incrementally accumulated.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigError
from ..rng import derive_rng
from .geometry import DramGeometry
from .remap import IdentityRemap, RowRemap

#: Minimum tiled-add count before the numpy cumsum pays for itself.
_NUMPY_MIN = 192


def _exact_cumsum(carry: float, adds: List[float], reps: int):
    """``[carry, carry+a0, carry+a0+a1, ...]`` over ``adds`` tiled
    ``reps`` times — bit-identical to a sequential float ``+=`` walk.

    Returns any indexable supporting ``bisect_left``-style search; entry
    ``i`` is the accumulator value after ``i`` deposits.
    """
    total = len(adds) * reps
    if total >= _NUMPY_MIN:
        arr = np.empty(total + 1)
        arr[0] = carry
        if len(adds) == 1:
            arr[1:] = adds[0]
        else:
            arr[1:] = np.tile(np.asarray(adds), reps)
        np.cumsum(arr, out=arr)
        return arr
    return list(accumulate(adds * reps, initial=carry))


def _first_reaching(cum, threshold: float) -> int:
    """Index of the first entry ``>= threshold`` (entries non-decreasing)."""
    if isinstance(cum, list):
        return bisect_left(cum, threshold)
    return int(np.searchsorted(cum, threshold, side="left"))


def crosses(before: float, threshold: float, after: float) -> bool:
    """Whether an accumulator step ``before -> after`` fires a cell.

    The intended boundary semantics, pinned by the regression tests in
    ``tests/dram/test_deposit_boundary.py``: a cell fires on the deposit
    that first *reaches* its threshold (``after == threshold`` flips) and
    never re-fires while the accumulator sits at or above it
    (``before == threshold`` does not flip again) — i.e. exactly
    ``before < threshold <= after``.
    """
    return before < threshold <= after


@dataclass(frozen=True)
class VulnerableCell:
    """One flippable cell in a DRAM row.

    ``bit_offset`` indexes the bit within the row (0-based from the row's
    first byte's LSB).  ``from_value`` is the charged value the cell loses
    when it flips: a flip turns ``from_value`` into ``1 - from_value`` and
    only applies if the stored bit currently equals ``from_value``.
    """

    bit_offset: int
    threshold: float
    from_value: int


@dataclass(frozen=True)
class FlipEvent:
    """A bit flip the disturbance engine just produced."""

    bank: int
    row: int
    bit_offset: int
    from_value: int
    at_ns: int


@dataclass(frozen=True)
class DisturbanceParams:
    """Knobs of the fault model.

    ``base_flip_threshold`` is in *weighted activation units*: a single
    activation of an adjacent (distance-1) row deposits exactly 1 unit.
    """

    base_flip_threshold: float = 20_000.0
    threshold_max_factor: float = 8.0
    max_distance: int = 6
    distance_decay: float = 0.6
    row_vuln_probability: float = 0.25
    max_vuln_cells_per_row: int = 3
    seed: int = 1

    def __post_init__(self) -> None:
        if self.base_flip_threshold <= 0:
            raise ConfigError("flip threshold must be positive")
        if self.threshold_max_factor < 1.0:
            raise ConfigError("threshold_max_factor must be >= 1")
        if not 1 <= self.max_distance <= 16:
            raise ConfigError("max_distance must be in [1, 16]")
        if not 0.0 < self.distance_decay <= 1.0:
            raise ConfigError("distance_decay must be in (0, 1]")
        if not 0.0 <= self.row_vuln_probability <= 1.0:
            raise ConfigError("row_vuln_probability must be a probability")
        if self.max_vuln_cells_per_row < 1:
            raise ConfigError("need at least one cell per vulnerable row")
        # The seed is stringified into the cell streams, so 1, True and
        # 1.0 — equal and equally hashed — would give three flip maps.
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError(
                f"disturbance seed must be an int, got {self.seed!r}")

    def weight(self, distance: int) -> float:
        """Disturbance deposited per activation at ``distance`` rows away."""
        if distance < 1 or distance > self.max_distance:
            return 0.0
        return self.distance_decay ** (distance - 1)


class CellMap:
    """The vulnerable cells of one ``(DisturbanceParams, row_bytes)`` profile.

    A row's cells are a pure function of the profile and ``(bank, row)``,
    so they are derived on first query and memoised, along with the set
    of rows that have any.  :func:`shared_cell_map` hands every engine of
    a profile one instance, which only derivation ever writes;
    :meth:`DisturbanceEngine.set_cells` swaps in a private copy before it
    overrides a row.  A deep copy keeps a shared map by identity and
    copies a private one, so a machine snapshot never copies the memo.
    """

    def __init__(self, params: DisturbanceParams, row_bytes: int,
                 shared: bool = False) -> None:
        self.params = params
        self.row_bytes = row_bytes
        self.shared = shared
        #: (bank, row) -> the row's cells, sorted by threshold.
        self.cells: Dict[Tuple[int, int], Tuple[VulnerableCell, ...]] = {}
        #: Keys of memoised rows with at least one cell.
        self.vulnerable: Set[Tuple[int, int]] = set()

    def __deepcopy__(self, memo) -> "CellMap":
        return self if self.shared else self.private_copy()

    def private_copy(self) -> "CellMap":
        """An unshared map holding this one's memo (cells are immutable)."""
        copy = CellMap(self.params, self.row_bytes)
        copy.cells = dict(self.cells)
        copy.vulnerable = set(self.vulnerable)
        return copy

    def put(self, bank: int, row: int,
            cells: Tuple[VulnerableCell, ...]) -> None:
        """Set the cells of (bank, row) and its vulnerable-set entry."""
        key = (bank, row)
        self.cells[key] = cells
        if cells:
            self.vulnerable.add(key)
        else:
            self.vulnerable.discard(key)

    def derive(self, bank: int, row: int) -> Tuple[VulnerableCell, ...]:
        """Derive, memoise and return the cells of (bank, row)."""
        params = self.params
        rng = derive_rng("cells", params.seed, bank, row)
        cells: List[VulnerableCell] = []
        if rng.random() < params.row_vuln_probability:
            count = rng.randint(1, params.max_vuln_cells_per_row)
            row_bits_total = self.row_bytes * 8
            for _ in range(count):
                # Square the uniform draw so thresholds skew toward the
                # base: most vulnerable rows have at least one "easy" cell,
                # as the HC_first distributions in [26] show.
                spread = (params.threshold_max_factor - 1.0) * rng.random() ** 2
                cells.append(
                    VulnerableCell(
                        bit_offset=rng.randrange(row_bits_total),
                        threshold=params.base_flip_threshold * (1.0 + spread),
                        from_value=rng.randint(0, 1),
                    )
                )
            cells.sort(key=lambda c: c.threshold)
        result = tuple(cells)
        self.put(bank, row, result)
        return result


@lru_cache(maxsize=32)
def shared_cell_map(params: DisturbanceParams, row_bytes: int) -> CellMap:
    """The process-wide :class:`CellMap` of one profile.

    Cached per ``(params, row_bytes)`` *value*, like the address tables
    of :func:`repro.dram.address._build_tables`: every engine of a
    profile reads one memo, and nothing is built at import.  The bound
    only stops test sweeps over random params from growing the cache;
    an evicted map stays valid for the engines that hold it.
    """
    return CellMap(params, row_bytes, shared=True)


class DisturbanceEngine:
    """The disturbance model over flat per-bank row arrays.

    Reads its profile's shared vulnerable-cell map, and owns the cached
    per-aggressor victim plans, the accumulator store and the two
    counters the telemetry layer samples.  The engine is deliberately
    clock-free: callers pass the current refresh epoch and timestamp so
    it can be unit-tested in isolation.
    """

    def __init__(self, geometry: DramGeometry, params: DisturbanceParams,
                 remap: Optional[RowRemap] = None) -> None:
        self.geometry = geometry
        self.params = params
        #: In-DRAM row remapping: disturbance follows *physical*
        #: adjacency, so victims of an activation are the logical rows
        #: whose physical positions flank the activated row.
        self.remap = remap or IdentityRemap(geometry.rows_per_bank)
        # The profile's shared cell map, until set_cells() makes it ours.
        self._cell_map = shared_cell_map(params, geometry.row_bytes)
        # (bank, row) -> cached victim plan (see victim_plan()).  Plans
        # are per engine: they hang off this engine's remap.
        self._plans: Dict[
            Tuple[int, int],
            Tuple[Tuple[int, float, Tuple[VulnerableCell, ...]], ...],
        ] = {}
        banks = geometry.num_banks
        #: Per-bank accumulated units, lazily allocated on first touch.
        self._values: List[Optional[array]] = [None] * banks
        #: Per-bank epoch tags (-1 = never deposited into).
        self._epochs: List[Optional[array]] = [None] * banks
        self.total_deposits = 0
        self.total_flip_events = 0

    # --------------------------------------------------------- cell map
    def vulnerable_cells(self, bank: int, row: int) -> Tuple[VulnerableCell, ...]:
        """The (deterministic) vulnerable cells of a row."""
        cell_map = self._cell_map
        cached = cell_map.cells.get((bank, row))
        if cached is not None:
            return cached
        return cell_map.derive(bank, row)

    def is_vulnerable(self, bank: int, row: int) -> bool:
        """Whether the row has any flippable cell."""
        cell_map = self._cell_map
        key = (bank, row)
        if key in cell_map.vulnerable:
            return True
        if key in cell_map.cells:
            return False
        return bool(cell_map.derive(bank, row))

    def set_cells(self, bank: int, row: int,
                  cells: Iterable[VulnerableCell]) -> None:
        """Override the vulnerable cells of (bank, row) on this engine.

        The one way to hand-build a row's cells.  The first call swaps
        the profile's shared map for a private copy, so no other engine,
        and no machine built later, sees the override.  Victim plans
        embed cell tuples, so this engine's cached plans are dropped.
        """
        if self._cell_map.shared:
            self._cell_map = self._cell_map.private_copy()
        self._cell_map.put(
            bank, row, tuple(sorted(cells, key=lambda c: c.threshold)))
        self._plans.clear()

    def min_threshold(self, bank: int, row: int) -> Optional[float]:
        """Threshold of the row's easiest cell, or ``None``."""
        cells = self.vulnerable_cells(bank, row)
        return cells[0].threshold if cells else None

    def victim_plan(
        self, bank: int, row: int
    ) -> Tuple[Tuple[int, float, Tuple[VulnerableCell, ...]], ...]:
        """The victims one activation of (bank, row) disturbs, in the
        exact order :meth:`on_activate` deposits into them.

        Each entry is ``(victim_row, weight, cells)``.  The plan is a
        pure function of the geometry/remap/seed, so it is cached; both
        activation paths iterate it instead of re-walking
        ``neighbors_at`` per activation.
        """
        key = (bank, row)
        plan = self._plans.get(key)
        if plan is None:
            entries: List[Tuple[int, float, Tuple[VulnerableCell, ...]]] = []
            for distance in range(1, self.params.max_distance + 1):
                weight = self.params.weight(distance)
                for victim in self.remap.neighbors_at(row, distance):
                    entries.append(
                        (victim, weight, self.vulnerable_cells(bank, victim))
                    )
            plan = tuple(entries)
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------ activation
    def on_activate(
        self, bank: int, row: int, count: int, epoch: int, now_ns: int
    ) -> List[FlipEvent]:
        """Record ``count`` activations of (bank, row).

        Opening a row recharges it (its own accumulator resets) and
        disturbs every victim within ``max_distance`` rows on both sides.
        Returns all flips produced anywhere.

        This is the plan walk, the engine's first path: one pass over
        the cached :meth:`victim_plan` with :meth:`deposit`'s arithmetic
        inlined.  Scalar activations take it, and so does every item of
        a :meth:`~repro.dram.module.DramModule.hammer_batch` stream that
        :meth:`hammer_periodic` does not take.  The specification it is
        held to — ``remap.neighbors_at`` per distance, then
        :meth:`deposit` per victim — lives in ``tests/dram/reference.py``.
        """
        if count <= 0:
            return []
        self.heal(bank, row)
        plan = self.victim_plan(bank, row)
        values, epochs = self._bank_arrays(bank)
        flips: List[FlipEvent] = []
        for victim, weight, cells in plan:
            if epochs[victim] != epoch:
                epochs[victim] = epoch
                before = 0.0
            else:
                before = values[victim]
            after = before + weight * count
            values[victim] = after
            if cells and after >= cells[0].threshold:
                for cell in cells:
                    if before < cell.threshold <= after:
                        flips.append(FlipEvent(
                            bank=bank,
                            row=victim,
                            bit_offset=cell.bit_offset,
                            from_value=cell.from_value,
                            at_ns=now_ns,
                        ))
        self.total_deposits += len(plan)
        self.total_flip_events += len(flips)
        return flips

    # ------------------------------------------------------ accumulation
    def _bank_arrays(self, bank: int) -> Tuple[array, array]:
        values = self._values[bank]
        if values is None:
            rows = self.geometry.rows_per_bank
            values = array("d", bytes(8 * rows))
            self._values[bank] = values
            self._epochs[bank] = array("q", [-1]) * rows
        return values, self._epochs[bank]

    def deposit(
        self, bank: int, row: int, units: float, epoch: int, now_ns: int
    ) -> List[FlipEvent]:
        """Add ``units`` of disturbance to (bank, row); return new flips."""
        if units <= 0:
            return []
        if row < 0 or row >= self.geometry.rows_per_bank:
            return []
        values, epochs = self._bank_arrays(bank)
        if epochs[row] != epoch:
            # Lazy auto-refresh: the window rolled over since this row's
            # accumulator was last touched, so the charge was restored.
            epochs[row] = epoch
            before = 0.0
        else:
            before = values[row]
        after = before + units
        values[row] = after
        self.total_deposits += 1
        flips: List[FlipEvent] = []
        for cell in self.vulnerable_cells(bank, row):
            if before < cell.threshold <= after:
                flips.append(
                    FlipEvent(
                        bank=bank,
                        row=row,
                        bit_offset=cell.bit_offset,
                        from_value=cell.from_value,
                        at_ns=now_ns,
                    )
                )
        self.total_flip_events += len(flips)
        return flips

    def heal(self, bank: int, row: int) -> None:
        """Refresh (recharge) a row: accumulated disturbance is cleared.

        Zeroes the value but leaves the epoch tag alone: a row never
        deposited into stays "never touched", and a healed row reads 0
        in its current epoch and in every later one.
        """
        if not 0 <= bank < len(self._values):
            return
        values = self._values[bank]
        if values is not None and 0 <= row < len(values):
            values[row] = 0.0

    def accumulated(self, bank: int, row: int, epoch: int) -> float:
        """Disturbance units accumulated by (bank, row) in ``epoch``."""
        if not 0 <= bank < len(self._values):
            return 0.0
        values = self._values[bank]
        if values is None or not 0 <= row < len(values):
            return 0.0
        if self._epochs[bank][row] != epoch:
            return 0.0
        return values[row]

    def vulnerable_accumulated(self, epoch: int) -> Dict[Tuple[int, int], float]:
        """Nonzero ``epoch`` accumulators of rows that can actually flip.

        The canonical scalar-vs-batched fingerprint: accumulators of
        rows with no vulnerable cells are subject to the fused-add ULP
        relaxation, so equivalence is asserted over vulnerable rows only
        (they always take exact sequential float arithmetic).
        """
        result: Dict[Tuple[int, int], float] = {}
        for bank, values in enumerate(self._values):
            if values is None:
                continue
            epochs = self._epochs[bank]
            for row, value in enumerate(values):
                if (value != 0.0 and epochs[row] == epoch
                        and self.is_vulnerable(bank, row)):
                    result[(bank, row)] = value
        return result

    # --------------------------------------------------- periodic kernel
    def hammer_periodic(self, cycle, n_items: int, *, now_ns: int,
                        per_act_ns: int, window: int, origin: str,
                        recent):
        """Closed-form replay of a periodic aggressor stream.

        ``cycle`` is the resolved period — ``((bank, row), count)`` with
        every count positive — and the full stream is ``cycle`` repeated
        to ``n_items`` items (the last repetition may be partial).  Each
        item deposits at its own start time, ``now_ns`` plus
        ``per_act_ns`` per earlier ACT, in the refresh epoch
        ``start // window``.  Requires ``per_act_ns > 0`` and no tracker
        on the activation feed (the module gates this).  Appends the
        stream's ``(bank, row, origin)`` entries to ``recent`` and
        returns ``(flips, acts, now_end, bank_totals, bank_last)``.
        Every flip, counter and vulnerable row's accumulator is
        bit-identical to one :meth:`on_activate` per item; invulnerable
        rows take the fused add.
        """
        p = len(cycle)
        prefix = [0] * (p + 1)
        for s, (_key, count) in enumerate(cycle):
            prefix[s + 1] = prefix[s] + count
        cycle_acts = prefix[p]

        # Per-victim schedules: (bank, vrow) -> (adds, heal_positions)
        # where adds is [(pos, e_idx, add_units, cells)] in deposit order.
        sched: Dict[Tuple[int, int], Tuple[list, list]] = {}
        plan_sizes = []
        for s, ((bank, row), count) in enumerate(cycle):
            self._bank_arrays(bank)
            rec = sched.get((bank, row))
            if rec is None:
                rec = sched[(bank, row)] = ([], [])
            rec[1].append(s)
            plan = self.victim_plan(bank, row)
            plan_sizes.append(len(plan))
            for e_idx, (victim, weight, cells) in enumerate(plan):
                vkey = (bank, victim)
                vrec = sched.get(vkey)
                if vrec is None:
                    vrec = sched[vkey] = ([], [])
                vrec[0].append((s, e_idx, weight * count, cells))

        full_cycles, rem = divmod(n_items, p)
        total_acts = full_cycles * cycle_acts + prefix[rem]

        def item_time(j: int) -> int:
            q, s = divmod(j, p)
            return now_ns + (q * cycle_acts + prefix[s]) * per_act_ns

        # keyed flips: (item_index, e_idx, cell_idx, FlipEvent)
        out: list = []
        j = 0
        while j < n_items:
            seg_epoch = item_time(j) // window
            boundary = (seg_epoch + 1) * window
            if item_time(n_items - 1) < boundary:
                j_end = n_items
            else:
                lo, hi = j + 1, n_items - 1
                while lo < hi:
                    mid = (lo + hi) // 2
                    if item_time(mid) >= boundary:
                        hi = mid
                    else:
                        lo = mid + 1
                j_end = lo
            self._periodic_segment(cycle, sched, j, j_end, seg_epoch,
                                   now_ns, per_act_ns, prefix,
                                   cycle_acts, out)
            j = j_end

        out.sort(key=lambda rec: (rec[0], rec[1], rec[2]))
        flips = [rec[3] for rec in out]

        # Deposit count is a pure function of the stream shape: one
        # deposit per victim-plan entry per item, epochs and flips aside.
        cycle_deposits = sum(plan_sizes)
        self.total_deposits += (full_cycles * cycle_deposits
                                + sum(plan_sizes[:rem]))
        self.total_flip_events += len(flips)

        bank_totals: Dict[int, int] = {}
        for s, ((bank, _row), count) in enumerate(cycle):
            per_cycle = full_cycles + (1 if s < rem else 0)
            if per_cycle:
                bank_totals[bank] = (bank_totals.get(bank, 0)
                                     + count * per_cycle)
        bank_last: Dict[int, int] = {}
        for back in range(1, min(p, n_items) + 1):
            bank, row = cycle[(n_items - back) % p][0]
            if bank not in bank_last:
                bank_last[bank] = row

        tail = min(n_items, getattr(recent, "maxlen", None) or n_items)
        tuples = [(bank, row, origin) for (bank, row), _count in cycle]
        recent.extend(tuples[j % p] for j in range(n_items - tail, n_items))

        now_end = now_ns + total_acts * per_act_ns
        return flips, total_acts, now_end, bank_totals, bank_last

    def _periodic_segment(self, cycle, sched, j_start: int, j_end: int,
                          epoch: int, now_ns: int, per_act_ns: int,
                          prefix, cycle_acts: int, out: list) -> None:
        """Replay items ``[j_start, j_end)`` — all in ``epoch``."""
        p = len(cycle)
        head_end = -(-j_start // p) * p  # first whole-cycle start
        if head_end > j_end:
            head_end = j_end
        span_cycles = (j_end - head_end) // p
        if span_cycles < 2:
            # Too short to amortise: plain per-item replay.
            self._replay_items(cycle, j_start, j_end, epoch, now_ns,
                               per_act_ns, prefix, cycle_acts, out)
            return
        tail_start = head_end + span_cycles * p
        self._replay_items(cycle, j_start, head_end, epoch, now_ns,
                           per_act_ns, prefix, cycle_acts, out)
        self._replay_span(cycle, sched, head_end // p, span_cycles, epoch,
                          now_ns, per_act_ns, prefix, cycle_acts, out)
        self._replay_items(cycle, tail_start, j_end, epoch, now_ns,
                           per_act_ns, prefix, cycle_acts, out)

    def _replay_items(self, cycle, j_start: int, j_end: int, epoch: int,
                      now_ns: int, per_act_ns: int, prefix,
                      cycle_acts: int, out: list) -> None:
        """Exact item-by-item replay (cycle fragments at segment edges)."""
        p = len(cycle)
        for j in range(j_start, j_end):
            q, s = divmod(j, p)
            (bank, row), count = cycle[s]
            values, epochs = self._bank_arrays(bank)
            values[row] = 0.0  # own heal
            at = now_ns + (q * cycle_acts + prefix[s]) * per_act_ns
            for e_idx, (victim, weight, cells) in enumerate(
                    self.victim_plan(bank, row)):
                if epochs[victim] != epoch:
                    epochs[victim] = epoch
                    before = 0.0
                else:
                    before = values[victim]
                after = before + weight * count
                values[victim] = after
                if cells and after >= cells[0].threshold:
                    for c_idx, cell in enumerate(cells):
                        if before < cell.threshold <= after:
                            out.append((j, e_idx, c_idx, FlipEvent(
                                bank=bank,
                                row=victim,
                                bit_offset=cell.bit_offset,
                                from_value=cell.from_value,
                                at_ns=at,
                            )))

    def _replay_span(self, cycle, sched, first_cycle: int, reps: int,
                     epoch: int, now_ns: int, per_act_ns: int, prefix,
                     cycle_acts: int, out: list) -> None:
        """Vectorized replay of ``reps`` whole cycles in one epoch."""
        p = len(cycle)
        for (bank, vrow), (adds, heals) in sched.items():
            values, epochs = self._bank_arrays(bank)
            if heals:
                if not adds:
                    # Heal-only row: idempotent zero, tag untouched.
                    values[vrow] = 0.0
                    continue
                self._replay_cyclic(bank, vrow, adds, heals, first_cycle,
                                    reps, epoch, now_ns, per_act_ns,
                                    prefix, cycle_acts, p, out)
                continue
            if epochs[vrow] != epoch:
                epochs[vrow] = epoch
                carry = 0.0
            else:
                carry = values[vrow]
            cells = adds[0][3]
            if not cells:
                # Invulnerable victim: fused add (sanctioned relaxation).
                values[vrow] = carry + sum(a for _s, _e, a, _c in adds) * reps
                continue
            # Vulnerable victim, no mid-cycle heal: the accumulator is a
            # strict cumsum of the tiled per-cycle deposit pattern.
            k = len(adds)
            cum = _exact_cumsum(carry, [a for _s, _e, a, _c in adds], reps)
            end_value = cum[len(cum) - 1]
            for c_idx, cell in enumerate(cells):
                threshold = cell.threshold
                if not carry < threshold <= end_value:
                    continue
                idx = _first_reaching(cum, threshold) - 1  # deposit index
                m, r = divmod(idx, k)
                s, e_idx = adds[r][0], adds[r][1]
                cyc = first_cycle + m
                out.append((cyc * p + s, e_idx, c_idx, FlipEvent(
                    bank=bank,
                    row=vrow,
                    bit_offset=cell.bit_offset,
                    from_value=cell.from_value,
                    at_ns=now_ns + (cyc * cycle_acts + prefix[s])
                    * per_act_ns,
                )))
            values[vrow] = float(end_value)

    def _replay_cyclic(self, bank: int, vrow: int, adds, heals,
                       first_cycle: int, reps: int, epoch: int,
                       now_ns: int, per_act_ns: int, prefix,
                       cycle_acts: int, p: int, out: list) -> None:
        """Aggressor-self victim: healed by its own activation(s) each
        cycle, possibly fed by other aggressors.

        The cycle's end value is the post-heal tail sum — independent of
        its carry-in — so after simulating cycles 1 and 2 exactly, every
        later cycle is a bit-identical replica of cycle 2 and only its
        flips (if any) need re-emitting at shifted items/timestamps.
        """
        values, epochs = self._bank_arrays(bank)
        # Per-cycle op list: heals (before that item's deposits) merged
        # with adds in scalar order.
        ops = sorted(
            [(s, -1, 0.0, None) for s in heals] + list(adds),
            key=lambda op: (op[0], op[1]))
        if epochs[vrow] != epoch:
            epochs[vrow] = epoch
            value = 0.0
        else:
            value = values[vrow]

        def run_cycle(value: float):
            fired = []  # (pos, e_idx, c_idx, cell)
            for s, e_idx, add, cells in ops:
                if e_idx < 0:
                    value = 0.0
                    continue
                before = value
                value += add
                if cells and value >= cells[0].threshold:
                    for c_idx, cell in enumerate(cells):
                        if before < cell.threshold <= value:
                            fired.append((s, e_idx, c_idx, cell))
            return value, fired

        def emit(cyc: int, fired) -> None:
            for s, e_idx, c_idx, cell in fired:
                out.append((cyc * p + s, e_idx, c_idx, FlipEvent(
                    bank=bank,
                    row=vrow,
                    bit_offset=cell.bit_offset,
                    from_value=cell.from_value,
                    at_ns=now_ns + (cyc * cycle_acts + prefix[s])
                    * per_act_ns,
                )))

        value, fired = run_cycle(value)
        emit(first_cycle, fired)
        if reps >= 2:
            steady = value
            value, fired = run_cycle(value)
            emit(first_cycle + 1, fired)
            if value == steady:
                # Replicate: identical carry-in -> identical cycle.
                if fired:
                    for m in range(2, reps):
                        emit(first_cycle + m, fired)
            else:  # pragma: no cover - defensive; heals pin the end value
                for m in range(2, reps):
                    value, fired = run_cycle(value)
                    emit(first_cycle + m, fired)
        values[vrow] = value
