"""PTMP: probabilistic tracker management policies (arXiv:2404.16256).

Deterministic insertion/eviction policies (LRU, Misra-Gries) are what
TRRespass-style pattern engineering exploits: once the attacker knows
the policy, a pattern that deterministically evicts the aggressors is a
search problem.  PTMP randomises the *management* instead of the
sampling — an untracked arrival is inserted only with probability
``insert_probability``, and when the table is full the slot it takes is
chosen uniformly at random.  No activation pattern can guarantee an
aggressor stays untracked; the attacker can only lower the odds, and
sustained hammering keeps re-rolling them.

Mitigation itself stays deterministic: a tracked row crossing the
threshold gets its neighbourhood refreshed and its counter reset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ...errors import ConfigError
from ...rng import Random
from ..base import TrackerDefense, register_defense
from ...dram.feed import Tracker, check_knobs


@dataclass(frozen=True)
class PtmpParams:
    """PTMP configuration."""

    #: Counter table entries per bank.
    table_entries: int = 4
    #: ACT count at which a tracked row's neighbourhood is refreshed.
    threshold: int = 2_000
    #: Probability an untracked arrival is inserted (evicting a random
    #: victim when the table is full).
    insert_probability: float = 1 / 16
    #: How far out to refresh when triggered (rows each side).
    refresh_distance: int = 2
    #: Extra seed component (machine seed is always mixed in).
    seed: int = 0

    def __post_init__(self) -> None:
        check_knobs(self, "table_entries", "threshold",
                    "insert_probability", "refresh_distance", "seed")
        if self.table_entries < 1:
            raise ConfigError("PTMP table needs at least one entry")
        if self.threshold < 2:
            raise ConfigError("PTMP threshold must be >= 2")
        if not 0.0 < self.insert_probability <= 1.0:
            raise ConfigError("PTMP insert probability must be in (0, 1]")
        if self.refresh_distance < 1:
            raise ConfigError("PTMP refresh distance must be >= 1")


class PtmpTracker(Tracker):
    """Randomised insertion + random eviction, deterministic mitigation."""

    name = "ptmp"

    def __init__(self, params: PtmpParams, rng: Random, remap=None) -> None:
        super().__init__(remap)
        self.params = params
        self.rng = rng
        self.mitigations = 0
        self.insertions = 0
        self.rejected = 0

    def observe(self, bank: int, row: int, count: int, epoch: int,
                now_ns: int) -> None:
        if count <= 0:
            return
        table = self._table(bank, epoch)
        if row not in table:
            # Probabilistic insertion: one roll per arrival *burst* (the
            # burst models back-to-back ACTs of one aggressor, which the
            # policy samples once).
            if self.rng.random() >= self.params.insert_probability:
                self.rejected += 1
                return
            self.insertions += 1
            if len(table) >= self.params.table_entries:
                # Random eviction: the victim slot is drawn uniformly,
                # so no pattern can deterministically shield itself.
                victim = self.rng.choice(sorted(table))
                del table[victim]
            table[row] = 0
        table[row] += count
        if table[row] >= self.params.threshold:
            table[row] = 0
            self.mitigations += 1
            self.queue_neighbors(bank, row, self.params.refresh_distance)

    def counters(self) -> Dict[str, int]:
        return {
            "mitigations": self.mitigations,
            "insertions": self.insertions,
            "rejected": self.rejected,
        }

    def sram_bits(self) -> int:
        counter_bits = max(2, self.params.threshold.bit_length())
        return self.params.table_entries * (16 + counter_bits)


@register_defense
class PtmpDefense(TrackerDefense):
    """PTMP as a deployable defense configuration."""

    name = "ptmp"
    summary = "probabilistic insertion + random eviction tracker"
    params_class = PtmpParams
    tracker_class = PtmpTracker
