"""Reference copies of the five feed trackers, one self-contained class
each, for the property in ``test_trackers.py``.

The production trackers share the ``Tracker`` base class's counter
table, Misra-Gries count step and neighbour walk, and DAPPER
subclasses the Misra-Gries tracker.  These copies write each policy
out in full, with its own table and its own spill, so the property
compares the shared core against five independent implementations:
the drained refreshes in order, ``counters()``, ``tracked_rows``,
``sram_bits()``, DAPPER's ``budget_left`` and the RNG state of PARA
and PTMP.
"""

from typing import Dict, List, Tuple


class _Reference:
    """The drain machinery, the counters and the neighbour walk."""

    def __init__(self, params, remap=None) -> None:
        self.params = params
        self.remap = remap
        self._pending: List[Tuple[int, int]] = []

    def drain_refreshes(self) -> List[Tuple[int, int]]:
        drained = self._pending
        self._pending = []
        return drained

    def _queue_neighbors(self, bank: int, row: int, distance: int) -> None:
        for d in range(1, distance + 1):
            if self.remap is not None:
                for victim in self.remap.neighbors_at(row, d):
                    self._pending.append((bank, victim))
            else:
                self._pending.append((bank, row - d))
                self._pending.append((bank, row + d))


class ReferenceChipTrr(_Reference):
    def __init__(self, params, remap=None) -> None:
        super().__init__(params, remap)
        self._trackers: Dict[int, List] = {}
        self.targeted_refreshes = 0
        self.evictions = 0

    def _tracker(self, bank: int, epoch: int) -> Dict[int, int]:
        state = self._trackers.get(bank)
        if state is None:
            state = [epoch, {}]
            self._trackers[bank] = state
        elif state[0] != epoch:
            state[0] = epoch
            state[1] = {}
        return state[1]

    def observe(self, bank, row, count, epoch, now_ns) -> None:
        if not self.params.enabled or count <= 0:
            return
        counters = self._tracker(bank, epoch)
        if row in counters:
            counters[row] += count
        elif len(counters) < self.params.tracker_slots:
            counters[row] = count
        else:
            self.evictions += 1
            dead = []
            for tracked, value in counters.items():
                value -= count
                if value <= 0:
                    dead.append(tracked)
                else:
                    counters[tracked] = value
            for tracked in dead:
                del counters[tracked]
            return
        if counters[row] >= self.params.trr_threshold:
            counters[row] = 0
            self.targeted_refreshes += 1
            self._queue_neighbors(bank, row, self.params.refresh_distance)

    def tracked_rows(self, bank, epoch) -> Dict[int, int]:
        if not self.params.enabled:
            return {}
        return dict(self._tracker(bank, epoch))

    def counters(self) -> Dict[str, int]:
        return {"targeted_refreshes": self.targeted_refreshes,
                "evictions": self.evictions}

    def sram_bits(self) -> int:
        counter_bits = max(2, self.params.trr_threshold.bit_length())
        return self.params.tracker_slots * (16 + counter_bits)


class ReferenceMisraGries(_Reference):
    def __init__(self, params, remap=None) -> None:
        super().__init__(params, remap)
        self._tables: Dict[int, List] = {}
        self.mitigations = 0
        self.evictions = 0

    def _table(self, bank: int, epoch: int) -> Dict[int, int]:
        state = self._tables.get(bank)
        if state is None:
            state = [epoch, {}]
            self._tables[bank] = state
        elif state[0] != epoch:
            state[0] = epoch
            state[1] = {}
        return state[1]

    def observe(self, bank, row, count, epoch, now_ns) -> None:
        if count <= 0:
            return
        table = self._table(bank, epoch)
        if row in table:
            table[row] += count
        elif len(table) < self.params.table_entries:
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
            return
        while table[row] >= self.params.threshold:
            table[row] -= self.params.threshold
            self.mitigations += 1
            self._queue_neighbors(bank, row, self.params.refresh_distance)

    def tracked_rows(self, bank, epoch) -> Dict[int, int]:
        return dict(self._table(bank, epoch))

    def counters(self) -> Dict[str, int]:
        return {"mitigations": self.mitigations,
                "evictions": self.evictions}

    def sram_bits(self) -> int:
        counter_bits = max(2, self.params.threshold.bit_length())
        return self.params.table_entries * (16 + counter_bits)


class ReferenceDapper(_Reference):
    def __init__(self, params, remap=None) -> None:
        super().__init__(params, remap)
        # bank -> [epoch, {row: count}, budget_left]
        self._tables: Dict[int, List] = {}
        self.mitigations = 0
        self.suppressed = 0
        self.evictions = 0

    def _state(self, bank: int, epoch: int) -> List:
        state = self._tables.get(bank)
        if state is None:
            state = [epoch, {}, self.params.mitigation_budget]
            self._tables[bank] = state
        elif state[0] != epoch:
            state[0] = epoch
            state[1] = {}
            state[2] = self.params.mitigation_budget
        return state

    def observe(self, bank, row, count, epoch, now_ns) -> None:
        if count <= 0:
            return
        state = self._state(bank, epoch)
        table = state[1]
        if row in table:
            table[row] += count
        elif len(table) < self.params.table_entries:
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
            return
        while table[row] >= self.params.threshold:
            table[row] -= self.params.threshold
            if state[2] > 0:
                state[2] -= 1
                self.mitigations += 1
                self._queue_neighbors(bank, row,
                                      self.params.refresh_distance)
            else:
                self.suppressed += 1

    def tracked_rows(self, bank, epoch) -> Dict[int, int]:
        return dict(self._state(bank, epoch)[1])

    def budget_left(self, bank, epoch) -> int:
        return self._state(bank, epoch)[2]

    def counters(self) -> Dict[str, int]:
        return {"mitigations": self.mitigations,
                "suppressed": self.suppressed,
                "evictions": self.evictions}

    def sram_bits(self) -> int:
        counter_bits = max(2, self.params.threshold.bit_length())
        budget_bits = max(1, self.params.mitigation_budget.bit_length())
        return self.params.table_entries * (16 + counter_bits) + budget_bits


class ReferencePtmp(_Reference):
    def __init__(self, params, rng, remap=None) -> None:
        super().__init__(params, remap)
        self.rng = rng
        self._tables: Dict[int, List] = {}
        self.mitigations = 0
        self.insertions = 0
        self.rejected = 0

    def _table(self, bank: int, epoch: int) -> Dict[int, int]:
        state = self._tables.get(bank)
        if state is None:
            state = [epoch, {}]
            self._tables[bank] = state
        elif state[0] != epoch:
            state[0] = epoch
            state[1] = {}
        return state[1]

    def observe(self, bank, row, count, epoch, now_ns) -> None:
        if count <= 0:
            return
        table = self._table(bank, epoch)
        if row not in table:
            if self.rng.random() >= self.params.insert_probability:
                self.rejected += 1
                return
            self.insertions += 1
            if len(table) >= self.params.table_entries:
                victim = self.rng.choice(sorted(table))
                del table[victim]
            table[row] = 0
        table[row] += count
        if table[row] >= self.params.threshold:
            table[row] = 0
            self.mitigations += 1
            self._queue_neighbors(bank, row, self.params.refresh_distance)

    def tracked_rows(self, bank, epoch) -> Dict[int, int]:
        return dict(self._table(bank, epoch))

    def counters(self) -> Dict[str, int]:
        return {"mitigations": self.mitigations,
                "insertions": self.insertions,
                "rejected": self.rejected}

    def sram_bits(self) -> int:
        counter_bits = max(2, self.params.threshold.bit_length())
        return self.params.table_entries * (16 + counter_bits)


class ReferencePara(_Reference):
    def __init__(self, params, rng, remap=None) -> None:
        super().__init__(params, remap)
        self.rng = rng
        self.triggers = 0

    def observe(self, bank, row, count, epoch, now_ns) -> None:
        hits = 0
        for _ in range(count):
            if self.rng.random() < self.params.probability:
                hits += 1
        if not hits:
            return
        self.triggers += hits
        self._queue_neighbors(bank, row, self.params.refresh_distance)

    def counters(self) -> Dict[str, int]:
        return {"triggers": self.triggers}

    def sram_bits(self) -> int:
        return 0
