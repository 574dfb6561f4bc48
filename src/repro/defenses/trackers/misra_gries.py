"""Graphene-style Misra-Gries heavy-hitter tracker (Park et al. [41]).

Same summary structure as the in-DRAM ChipTRR model, but sized and
managed the way Graphene proposes for a *provable* guarantee: enough
table entries that any row reaching the rowhammer threshold must be
tracked (Misra-Gries guarantees a row with true count ``c`` has counter
``>= c - A/(k+1)`` for A total ACTs and k entries), and mitigation
*subtracts* the threshold from the counter instead of zeroing it, so a
row that keeps hammering keeps getting mitigated at the right cadence
rather than restarting from scratch.

Counters reset lazily at each auto-refresh epoch, like every other
accumulator in the DRAM model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...errors import ConfigError
from ..base import TrackerDefense, register_defense
from ...dram.feed import Tracker, check_knobs


@dataclass(frozen=True)
class MisraGriesParams:
    """Graphene-style tracker configuration."""

    #: Counter table entries per bank (Graphene sizes this from the
    #: rowhammer threshold; default is deliberately generous vs ChipTRR).
    table_entries: int = 8
    #: ACT count at which a tracked row's neighbourhood is refreshed.
    threshold: int = 2_000
    #: How far out to refresh when triggered (rows each side).
    refresh_distance: int = 2

    def __post_init__(self) -> None:
        check_knobs(self, "table_entries", "threshold",
                    "refresh_distance")
        if self.table_entries < 1:
            raise ConfigError("Misra-Gries table needs at least one entry")
        if self.threshold < 2:
            raise ConfigError("Misra-Gries threshold must be >= 2")
        if self.refresh_distance < 1:
            raise ConfigError("Misra-Gries refresh distance must be >= 1")


class MisraGriesTracker(Tracker):
    """Per-bank Misra-Gries summary with subtract-on-mitigate."""

    name = "misra_gries"

    def __init__(self, params: MisraGriesParams, remap=None) -> None:
        super().__init__(remap)
        self.params = params
        self.mitigations = 0

    def observe(self, bank: int, row: int, count: int, epoch: int,
                now_ns: int) -> None:
        if count <= 0:
            return
        table = self._table(bank, epoch)
        if not self._count(table, row, count, self.params.table_entries):
            return
        # Graphene mitigation: subtract the threshold (possibly several
        # times for a large batch) so sustained hammering is mitigated
        # at threshold cadence, not restarted from zero.
        threshold = self.params.threshold
        while table[row] >= threshold:
            table[row] -= threshold
            self._mitigate(bank, row)

    def _mitigate(self, bank: int, row: int) -> None:
        """Refresh ``row``'s neighbourhood for one threshold crossing."""
        self.mitigations += 1
        self.queue_neighbors(bank, row, self.params.refresh_distance)

    def counters(self) -> Dict[str, int]:
        return {
            "mitigations": self.mitigations,
            "evictions": self.evictions,
        }

    def sram_bits(self) -> int:
        counter_bits = max(2, self.params.threshold.bit_length())
        return self.params.table_entries * (16 + counter_bits)


@register_defense
class MisraGriesDefense(TrackerDefense):
    """Graphene-style counting as a deployable defense configuration."""

    name = "misra_gries"
    summary = "Graphene-style Misra-Gries counters, subtract-on-mitigate"
    params_class = MisraGriesParams
    tracker_class = MisraGriesTracker
