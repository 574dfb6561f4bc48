"""The activation feed: observation and actuation seams for trackers.

The defense stack is layered in three (DESIGN.md "Defense
architecture"):

* **observation** — :class:`ActivationFeed`, the single choke point
  :class:`~repro.dram.module.DramModule` publishes every row activation
  through.  Any tracker can subscribe; the module's hot paths pay one
  ``feed.active`` test when no tracker is installed.
* **tracking policy** — :class:`Tracker` implementations (ChipTRR in
  :mod:`repro.dram.chiptrr`, the zoo in
  :mod:`repro.defenses.trackers`) that watch the feed and decide which
  rows to refresh.  The base class owns what the policies share: the
  per-bank counter table, the Misra-Gries count step and the
  neighbour walk.  Trackers never touch ``DramModule`` or
  ``BankState`` internals — the flow rule RPR013 enforces that the
  feed is their only window into the DRAM.
* **actuation** — :class:`RefreshActuator`, the shared refresh engine.
  ChipTRR, every zoo tracker and the module's own ``refresh_row`` path
  (which SoftTRR's row refresher drives) all issue refreshes through
  the same actuator, so refresh accounting has one home.

Determinism contract: ``publish`` runs trackers in subscription order
and actuates each tracker's drained refreshes immediately, so a batched
replay that publishes the same ``(bank, row, count, epoch, now_ns)``
sequence as the scalar loop heals rows at exactly the same points in
the deposit stream — the generative differential harness holds every
tracker to that bar, bit for bit.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, get_type_hints

from ..errors import ConfigError

__all__ = ["ActivationFeed", "RefreshActuator", "Tracker", "check_knobs"]


def check_knobs(params, *names: str) -> None:
    """Raise a :class:`ConfigError` naming the first of the tracker
    params' fields ``names`` whose value does not fit its declared type
    (a bool fits neither; an int fits ``float``), before any range
    check compares it."""
    declared = get_type_hints(type(params))
    for name in names:
        value = getattr(params, name)
        number = declared[name] is float
        if isinstance(value, bool) or not isinstance(
                value, (int, float) if number else int):
            raise ConfigError(
                f"{type(params).__name__}.{name} must be "
                f"{'a number' if number else 'an int'}, got {value!r}")


class Tracker:
    """One tracking policy riding the activation feed, plus the parts
    every policy shares.

    Subclasses implement :meth:`observe` and keep only their policy in
    it; the base owns the rest:

    * a per-bank counter table (:meth:`_table`), emptied lazily when the
      auto-refresh epoch changes, exactly like the disturbance
      accumulators;
    * the Misra-Gries count step (:meth:`_count`) over that table;
    * :meth:`queue_neighbors`, the victim walk through the module's row
      remap; and
    * the drain machinery the feed actuates from.

    All randomness must come from :func:`repro.rng.derive_rng` streams
    held on the tracker (RPR010), and all state must deepcopy cleanly —
    ``Machine.snapshot`` copies trackers with the DRAM they watch.
    """

    #: Registry-style short name (also the telemetry namespace).
    name = "abstract"

    def __init__(self, remap=None) -> None:
        self._pending: List[Tuple[int, int]] = []
        #: Trackers refresh the rows *physically* flanking an aggressor,
        #: translated through the module's row remap when one exists.
        self.remap = remap
        # bank -> [epoch, {row: count}]
        self._tables: Dict[int, List] = {}
        self.evictions = 0

    # ------------------------------------------------------ observation
    def observe(self, bank: int, row: int, count: int, epoch: int,
                now_ns: int) -> None:
        """Feed ``count`` ACTs of ``(bank, row)`` through the policy.

        ``epoch`` is the auto-refresh epoch of ``now_ns``; trackers with
        windowed state reset lazily on epoch change, exactly like the
        disturbance accumulators.
        """
        raise NotImplementedError

    # --------------------------------------------------- counter table
    def _table(self, bank: int, epoch: int) -> Dict[int, int]:
        """``bank``'s counter table, emptied when ``epoch`` moves on."""
        state = self._tables.get(bank)
        if state is None or state[0] != epoch:
            state = self._tables[bank] = [epoch, {}]
            self._refill(bank)
        return state[1]

    def _refill(self, bank: int) -> None:
        """Hook: ``bank``'s table was just (re)created empty."""

    def _count(self, table: Dict[int, int], row: int, count: int,
               slots: int) -> bool:
        """The Misra-Gries count step; whether ``row`` is now tracked.

        A tracked row's counter grows by ``count``; an untracked row
        takes a free slot.  With no slot free the arrival spills
        instead: every counter drops by ``count``, rows that reach zero
        lose their slot, and one eviction is counted.
        """
        if row in table:
            table[row] += count
        elif len(table) < slots:
            table[row] = count
        else:
            self.evictions += 1
            dead = []
            for tracked, value in table.items():
                value -= count
                if value <= 0:
                    dead.append(tracked)
                else:
                    table[tracked] = value
            for tracked in dead:
                del table[tracked]
            return False
        return True

    def tracked_rows(self, bank: int, epoch: int) -> Dict[int, int]:
        """Snapshot of ``bank``'s table for tests/diagnostics."""
        return dict(self._table(bank, epoch))

    # -------------------------------------------------------- actuation
    def queue_refresh(self, bank: int, row: int) -> None:
        """Queue one victim row for refresh at the next drain."""
        self._pending.append((bank, row))

    def queue_neighbors(self, bank: int, row: int, distance: int) -> None:
        """Queue every physical neighbour of ``row`` out to ``distance``.

        Nearest rows first; at each distance the physically lower row
        comes first, as :meth:`~repro.dram.remap.RowRemap.neighbors_at`
        orders them.
        """
        remap = self.remap
        for step in range(1, distance + 1):
            if remap is not None:
                for victim in remap.neighbors_at(row, step):
                    self.queue_refresh(bank, victim)
            else:
                self.queue_refresh(bank, row - step)
                self.queue_refresh(bank, row + step)

    def drain_refreshes(self) -> List[Tuple[int, int]]:
        """Victim rows queued since the last drain (cleared on return)."""
        drained = self._pending
        self._pending = []
        return drained

    # -------------------------------------------------------- telemetry
    def counters(self) -> Dict[str, int]:
        """Behavioural counters, namespaced by the telemetry facade."""
        return {}

    def sram_bits(self) -> int:
        """Estimated per-bank tracker SRAM budget in bits.

        The comparative zoo report ranks defenses by protection rate x
        refresh overhead x this budget; pure-probabilistic trackers
        (PARA) return 0 — statelessness is their selling point.
        """
        return 0


class RefreshActuator:
    """The shared refresh engine (the actuation layer).

    Wraps the DRAM's heal callback: :meth:`refresh_row` recharges one
    row and counts it.  Trackers walk their victims' neighbourhoods
    themselves (:meth:`Tracker.queue_neighbors`); the feed hands every
    queued row to this one method.
    """

    def __init__(self, heal: Callable[[int, int], None]) -> None:
        self._heal = heal
        #: Individual row refreshes issued through this actuator.
        self.refreshes = 0

    def refresh_row(self, bank: int, row: int) -> None:
        """Recharge one row (out-of-range rows are silently clipped)."""
        self.refreshes += 1
        self._heal(bank, row)


class ActivationFeed:
    """The observation choke point every row activation flows through.

    ``DramModule`` publishes ``(bank, row, count, epoch, now_ns)`` for
    each activation burst; the feed runs subscribed trackers in order
    and actuates their drained refreshes immediately, preserving the
    deposit/heal interleaving the scalar replay produces.
    """

    def __init__(self, actuator: RefreshActuator) -> None:
        self.actuator = actuator
        self._trackers: List[Tracker] = []
        #: Whether any tracker is subscribed (the hot-path gate).
        self.active = False

    def trackers(self) -> Tuple[Tracker, ...]:
        """Subscribed trackers, in subscription order."""
        return tuple(self._trackers)

    def subscribe(self, tracker: Tracker) -> Tracker:
        """Attach a tracker to the feed; returns it for chaining."""
        self._trackers.append(tracker)
        self.active = True
        return tracker

    def unsubscribe(self, tracker: Tracker) -> None:
        """Detach a tracker previously subscribed (no-op if absent)."""
        try:
            self._trackers.remove(tracker)
        except ValueError:
            pass
        self.active = bool(self._trackers)

    def publish(self, bank: int, row: int, count: int, epoch: int,
                now_ns: int) -> None:
        """One activation burst: observe, then actuate drained victims.

        A tracker is drained only when its observation queued a
        refresh, which most observations do not.
        """
        actuator = self.actuator
        for tracker in self._trackers:
            # Policy observation, not a metric mutation (RPR008's
            # ``.observe`` heuristic collides with the Tracker verb).
            tracker.observe(  # repro-lint: disable=RPR008
                bank, row, count, epoch, now_ns)
            if tracker._pending:
                for victim_bank, victim_row in tracker.drain_refreshes():
                    actuator.refresh_row(victim_bank, victim_row)
