"""DAPPER: mitigation under a per-epoch power budget (arXiv:2501.18857).

Low-power DRAM cannot issue unlimited extra refreshes — every targeted
refresh burns energy and blocks the bank.  DAPPER models the constraint
the LPDDR vendors actually face: a Misra-Gries tracker paired with a
hard cap on mitigations per auto-refresh epoch.  While the budget
lasts, behaviour matches the Graphene-style tracker; once it is spent,
further threshold crossings are *suppressed* — the counter still drops
by the threshold (the engine saw the row) but no refresh goes out, and
the suppression is counted so the comparative sweep can show exactly
when the budget, not the tracker, is the weak link.

The interesting regime for the zoo: many-sided patterns that stay under
ChipTRR's radar are caught here (bigger table), but a wide attack that
*triggers* often enough drains the budget and flips rows anyway.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...errors import ConfigError
from ..base import TrackerDefense, register_defense
from ...dram.feed import check_knobs
from .misra_gries import MisraGriesTracker


@dataclass(frozen=True)
class DapperParams:
    """DAPPER configuration."""

    #: Counter table entries per bank.
    table_entries: int = 8
    #: ACT count at which a tracked row's neighbourhood is refreshed.
    threshold: int = 2_000
    #: Targeted mitigations allowed per bank per auto-refresh epoch;
    #: crossings beyond the budget are suppressed (and counted).
    mitigation_budget: int = 4
    #: How far out to refresh when triggered (rows each side).
    refresh_distance: int = 2

    def __post_init__(self) -> None:
        check_knobs(self, "table_entries", "threshold",
                    "mitigation_budget", "refresh_distance")
        if self.table_entries < 1:
            raise ConfigError("DAPPER table needs at least one entry")
        if self.threshold < 2:
            raise ConfigError("DAPPER threshold must be >= 2")
        if self.mitigation_budget < 1:
            raise ConfigError("DAPPER mitigation budget must be >= 1")
        if self.refresh_distance < 1:
            raise ConfigError("DAPPER refresh distance must be >= 1")


class DapperTracker(MisraGriesTracker):
    """Misra-Gries tracking with budget-capped actuation."""

    name = "dapper"

    def __init__(self, params: DapperParams, remap=None) -> None:
        super().__init__(params, remap)
        # bank -> mitigations left, refilled whenever its table is.
        self._budget: Dict[int, int] = {}
        self.suppressed = 0

    def _refill(self, bank: int) -> None:
        self._budget[bank] = self.params.mitigation_budget

    def _mitigate(self, bank: int, row: int) -> None:
        if self._budget[bank] > 0:
            self._budget[bank] -= 1
            super()._mitigate(bank, row)
        else:
            # Budget spent: the engine saw the crossing but the refresh
            # never goes out.  The attacker wins this epoch.
            self.suppressed += 1

    def budget_left(self, bank: int, epoch: int) -> int:
        """Remaining mitigations this epoch (tests/diagnostics).

        Like :meth:`tracked_rows`, it first rolls the bank's table, and
        so its budget, to ``epoch``.
        """
        self._table(bank, epoch)
        return self._budget[bank]

    def counters(self) -> Dict[str, int]:
        return {
            "mitigations": self.mitigations,
            "suppressed": self.suppressed,
            "evictions": self.evictions,
        }

    def sram_bits(self) -> int:
        budget_bits = max(1, self.params.mitigation_budget.bit_length())
        return super().sram_bits() + budget_bits


@register_defense
class DapperDefense(TrackerDefense):
    """DAPPER as a deployable defense configuration."""

    name = "dapper"
    summary = "Misra-Gries tracking, budget-capped mitigation"
    params_class = DapperParams
    tracker_class = DapperTracker
