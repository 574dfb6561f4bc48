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

:class:`DisturbanceEngine` keeps the accumulators in two plain per-bank
lists indexed by row, allocated on a bank's first touch:

* floats — accumulated disturbance units, and
* ints — the refresh epoch the row was last deposited into (``-1`` =
  never touched).

A row's value is only meaningful when its epoch tag matches the current
refresh epoch; a deposit into a stale-tagged row first rolls the tag and
zeroes the value; :meth:`~DisturbanceEngine.heal` zeroes the value but
never touches the tag, so a healed row still reads 0 in every epoch.

One path writes the store: the plan walk (:meth:`on_activate`, one
pass over the aggressor's cached plan with :meth:`deposit`'s
arithmetic inlined).  The engine caches one plan per activated
``(bank, row)``; each entry carries its victim's first-cell threshold
(``inf`` for a victim with no cell), so the walk decides with one
compare per victim whether any cell can have fired.  Coordinates are
checked where a plan is built, so a ``(bank, row)`` outside the
geometry raises :class:`~repro.errors.DramError` before anything moves
and the walk over a cached plan checks nothing.  Scalar activations
take the walk, and so does every item of a
:meth:`~repro.dram.module.DramModule.hammer_batch` stream.
The reference it is proven bit-identical to — per distance
``remap.neighbors_at``, then :meth:`deposit` per victim — lives in
``tests/dram/reference.py``; ``tests/dram/test_disturbance.py`` and
``tests/perf/test_generative_differential.py`` compare against it.
Every accumulator takes exact sequential float arithmetic, so the
fingerprint those suites compare, :meth:`accumulated_rows`, covers
every row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..errors import ConfigError, DramError
from ..rng import derive_rng
from .geometry import DramGeometry
from .remap import IdentityRemap, RowRemap


#: The first-cell threshold a plan entry carries for a victim with no
#: cell: no accumulator reaches it.
_NO_CELL = float("inf")

#: A cached plan: per victim, (row, weight, first-cell threshold, cells).
_Plan = Tuple[Tuple[int, float, float, Tuple["VulnerableCell", ...]], ...]


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
        # (bank, row) -> cached plan (see _plan()).  Plans are per
        # engine: they hang off this engine's remap.
        self._plans: Dict[Tuple[int, int], _Plan] = {}
        banks = geometry.num_banks
        #: Per-bank accumulated units, lazily allocated on first touch.
        self._values: List[Optional[List[float]]] = [None] * banks
        #: Per-bank epoch tags (-1 = never deposited into).
        self._epochs: List[Optional[List[int]]] = [None] * banks
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

        Each entry is ``(victim_row, weight, cells)``: the cached plan
        the walk iterates, less the first-cell thresholds it carries.
        A ``(bank, row)`` outside the geometry raises
        :class:`~repro.errors.DramError`.
        """
        plan = self._plans.get((bank, row))
        if plan is None:
            plan = self._plan(bank, row)
        return tuple((victim, weight, cells)
                     for victim, weight, _first, cells in plan)

    def _plan(self, bank: int, row: int) -> _Plan:
        """Build and cache the plan of a new aggressor (bank, row).

        Each entry is ``(victim_row, weight, first_threshold, cells)``,
        ``first_threshold`` being the victim's easiest cell's threshold
        (``inf`` for a victim with no cell).  The plan is a pure
        function of the geometry/remap/seed.  This is where coordinates
        are checked, once per aggressor: a bank or row outside the
        geometry raises :class:`~repro.errors.DramError`.
        """
        geometry = self.geometry
        if not 0 <= bank < geometry.num_banks:
            raise DramError(f"bank {bank} outside the {geometry.num_banks}"
                            f"-bank geometry")
        if not 0 <= row < geometry.rows_per_bank:
            raise DramError(f"row {row} outside the "
                            f"{geometry.rows_per_bank}-row bank")
        entries = []
        for distance in range(1, self.params.max_distance + 1):
            weight = self.params.weight(distance)
            for victim in self.remap.neighbors_at(row, distance):
                cells = self.vulnerable_cells(bank, victim)
                entries.append((victim, weight,
                                cells[0].threshold if cells else _NO_CELL,
                                cells))
        plan = self._plans[(bank, row)] = tuple(entries)
        return plan

    # ------------------------------------------------------ activation
    def on_activate(
        self, bank: int, row: int, count: int, epoch: int, now_ns: int
    ) -> List[FlipEvent]:
        """Record ``count`` activations of (bank, row).

        Opening a row recharges it (its own accumulator resets) and
        disturbs every victim within ``max_distance`` rows on both sides.
        Returns all flips produced anywhere.

        This is the plan walk, the engine's one write path: one pass
        over the aggressor's cached plan with :meth:`deposit`'s
        arithmetic inlined, scanning a victim's cells only once its
        accumulator reaches the first-cell threshold the plan carries.
        Scalar activations take it, and so does every item of a
        :meth:`~repro.dram.module.DramModule.hammer_batch` stream.  The
        specification it is held to — ``remap.neighbors_at`` per
        distance, then :meth:`deposit` per victim — lives in
        ``tests/dram/reference.py``.  The plan and the bank's lists are
        built on first use; building the plan checks the coordinates
        (:class:`~repro.errors.DramError` outside the geometry, with
        nothing moved), so the activated row is healed in place.
        """
        if count <= 0:
            return []
        plan = self._plans.get((bank, row))
        if plan is None:
            plan = self._plan(bank, row)
        values = self._values[bank]
        if values is None:
            values, epochs = self._bank_lists(bank)
        else:
            epochs = self._epochs[bank]
            values[row] = 0.0
        flips: List[FlipEvent] = []
        for victim, weight, first, cells in plan:
            if epochs[victim] != epoch:
                epochs[victim] = epoch
                before = 0.0
            else:
                before = values[victim]
            after = before + weight * count
            values[victim] = after
            if after >= first:
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
    def _bank_lists(self, bank: int) -> Tuple[List[float], List[int]]:
        values = self._values[bank]
        if values is None:
            rows = self.geometry.rows_per_bank
            values = self._values[bank] = [0.0] * rows
            self._epochs[bank] = [-1] * rows
        return values, self._epochs[bank]

    def deposit(
        self, bank: int, row: int, units: float, epoch: int, now_ns: int
    ) -> List[FlipEvent]:
        """Add ``units`` of disturbance to (bank, row); return new flips.

        The primitive of the reference oracle in
        ``tests/dram/reference.py``; :meth:`on_activate` inlines its
        arithmetic.  A row outside the bank takes nothing (the oracle
        deposits into clipped neighbourhoods); a bank outside the
        geometry raises :class:`~repro.errors.DramError`.
        """
        if not 0 <= bank < self.geometry.num_banks:
            raise DramError(f"bank {bank} outside the "
                            f"{self.geometry.num_banks}-bank geometry")
        if units <= 0:
            return []
        if row < 0 or row >= self.geometry.rows_per_bank:
            return []
        values, epochs = self._bank_lists(bank)
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

    def accumulated_rows(self, epoch: int) -> Dict[Tuple[int, int], float]:
        """Every nonzero ``epoch`` accumulator, keyed by ``(bank, row)``:
        the accumulator fingerprint the differential suites compare."""
        result: Dict[Tuple[int, int], float] = {}
        for bank, values in enumerate(self._values):
            if values is None:
                continue
            epochs = self._epochs[bank]
            for row, value in enumerate(values):
                if value != 0.0 and epochs[row] == epoch:
                    result[(bank, row)] = value
        return result
