"""In-DRAM target row refresh (ChipTRR) and its many-sided blind spot.

DDR4 modules ship a TRR engine that watches ACT commands with a small
per-bank tracker and refreshes the neighbours of rows it believes are
being hammered.  TRRespass [16] showed the tracker capacity is tiny
(a handful of rows), so *many-sided* patterns that cycle through more
aggressors than the tracker can hold are never counted and hammer
freely.  The paper names this limited tracking as ChipTRR's root cause
of failure and designs SoftTRR around it (Section I).

We model the tracker as a Misra-Gries heavy-hitter summary with
``tracker_slots`` counters per bank, which reproduces the observed
phenomenology exactly:

* **1- or 2-sided hammer** — every aggressor gets a slot, its counter
  climbs, and once it reaches ``trr_threshold`` the engine refreshes the
  aggressor's neighbourhood (out to ``refresh_distance`` rows).  Victims
  are recharged long before ``base_flip_threshold`` — no flips.
* **k-sided hammer with k > tracker_slots** — each untracked arrival
  decrements every counter (the Misra-Gries eviction step), so no
  counter ever approaches the threshold and no targeted refresh is
  issued.  The aggressors hammer as if TRR did not exist.

Counters reset at each auto-refresh epoch (lazy, like the disturbance
accumulators).

ChipTRR is one :class:`~repro.dram.feed.Tracker` riding the module's
:class:`~repro.dram.feed.ActivationFeed`: :meth:`ChipTrr.observe` runs
the base class's Misra-Gries count step and queues the neighbourhood of
a row that reaches the threshold, which the feed actuates through the
shared :class:`~repro.dram.feed.RefreshActuator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import ConfigError
from .feed import Tracker, check_knobs


@dataclass(frozen=True)
class TrrParams:
    """ChipTRR configuration for one module profile."""

    enabled: bool = False
    tracker_slots: int = 2
    trr_threshold: int = 4_000
    refresh_distance: int = 6

    def __post_init__(self) -> None:
        if self.enabled:
            check_knobs(self, "tracker_slots", "trr_threshold",
                        "refresh_distance")
            if self.tracker_slots < 1:
                raise ConfigError("TRR tracker needs at least one slot")
            if self.trr_threshold < 2:
                raise ConfigError("TRR threshold must be >= 2")
            if self.refresh_distance < 1:
                raise ConfigError("TRR refresh distance must be >= 1")


class ChipTrr(Tracker):
    """Per-bank Misra-Gries ACT tracker issuing targeted refreshes.

    The TRR engine is silicon: it refreshes the rows *physically*
    flanking the aggressor, through the module's row remap.  A row that
    reaches the threshold has its counter zeroed.
    """

    name = "chiptrr"

    def __init__(self, params: TrrParams, remap=None) -> None:
        super().__init__(remap)
        self.params = params
        self.targeted_refreshes = 0

    def observe(self, bank: int, row: int, count: int, epoch: int,
                now_ns: int) -> None:
        """Feed ``count`` ACTs of (bank, row) through the tracker."""
        params = self.params
        if not params.enabled or count <= 0:
            return
        table = self._table(bank, epoch)
        if (self._count(table, row, count, params.tracker_slots)
                and table[row] >= params.trr_threshold):
            table[row] = 0
            self.targeted_refreshes += 1
            self.queue_neighbors(bank, row, params.refresh_distance)

    # ------------------------------------------------------- telemetry
    def counters(self) -> Dict[str, int]:
        return {
            "targeted_refreshes": self.targeted_refreshes,
            "evictions": self.evictions,
        }

    def sram_bits(self) -> int:
        # Per-bank: one (row address, ACT counter) pair per slot; DDR4
        # row addresses are ~16 bits and the counter must hold the
        # threshold.
        counter_bits = max(2, self.params.trr_threshold.bit_length())
        return self.params.tracker_slots * (16 + counter_bits)
