"""SoftTRR's bookkeeping structures (Table I) with slab accounting.

Three key-ordered maps (the paper's red-black trees) and their node
payloads:

* ``pt_rbtree``   — key: PPN of an L1PT page.
* ``adj_rbtree``  — key: PPN of a page adjacent to an L1PT page (a
  staging area: nodes are freed once the tracer has armed the page).
* ``pt_row_rbtree`` — key: DRAM row index; the value holds one
  ``bank_struct`` per bank in which that row hosts L1PT pages, each with
  ``pt_count`` (how many L1PT pages share the bank/row) and
  ``leak_count`` (the charge-leak counter of Section III-C).

Every node allocation goes through a :class:`~repro.kernel.slab.SlabCache`
so the Fig. 4 memory-consumption curves fall out of real allocator
state.  Node sizes are realistic for the kernel structs they model.

The paper reuses the kernel's red-black tree; :class:`SlabMap` keeps
what the simulation can observe of it (ascending key order, one slab
node per live key) on a dict.  SoftTRR is charged flat per-operation
costs, so the tree's shape never reaches a simulated quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..kernel.slab import SlabCache

#: Realistic sizes of the kernel structs (rb_node + payload).
PT_NODE_BYTES = 48
ADJ_NODE_BYTES = 48
PT_ROW_NODE_BYTES = 64
BANK_STRUCT_BYTES = 24


class SlabMap:
    """An int-keyed map that iterates in ascending key order and
    charges one slab node per live key through ``on_alloc``/``on_free``.
    """

    __slots__ = ("_values", "_handles", "_on_alloc", "_on_free")

    def __init__(self, on_alloc: Callable[[], Any],
                 on_free: Callable[[Any], None]) -> None:
        self._values: Dict[int, Any] = {}
        self._handles: Dict[int, Any] = {}
        self._on_alloc = on_alloc
        self._on_free = on_free

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, key: int) -> bool:
        return key in self._values

    def get(self, key: int, default: Any = None) -> Any:
        """Value stored under ``key``, or ``default``."""
        return self._values.get(key, default)

    def keys(self) -> List[int]:
        """The live keys, ascending (a fresh list)."""
        return sorted(self._values)

    def items(self) -> List[Tuple[int, Any]]:
        """``(key, value)`` pairs, ascending by key (a fresh list)."""
        return sorted(self._values.items())

    def insert(self, key: int, value: Any) -> bool:
        """Insert or update; returns True if a new node was allocated."""
        fresh = key not in self._values
        self._values[key] = value
        if fresh:
            self._handles[key] = self._on_alloc()
        return fresh

    def delete(self, key: int) -> bool:
        """Remove ``key`` and free its node; returns whether it existed."""
        if key not in self._values:
            return False
        del self._values[key]
        self._on_free(self._handles.pop(key))
        return True

    def pop(self, key: int, default: Any = None) -> Any:
        """Remove ``key`` and return its value (or ``default``)."""
        value = self._values.get(key, default)
        self.delete(key)
        return value


@dataclass
class BankStruct:
    """Per-(row, bank) L1PT bookkeeping (Table I)."""

    bank_index: int
    pt_count: int = 0
    leak_count: int = 0


class PtRowEntry:
    """Value of a ``pt_row_rbtree`` node: one or more bank structs."""

    __slots__ = ("banks",)

    def __init__(self) -> None:
        self.banks: Dict[int, BankStruct] = {}

    def bank(self, bank_index: int) -> Optional[BankStruct]:
        """The bank struct for ``bank_index``, or None."""
        return self.banks.get(bank_index)

    def ensure_bank(self, bank_index: int) -> BankStruct:
        """Get-or-create the bank struct for ``bank_index``."""
        entry = self.banks.get(bank_index)
        if entry is None:
            entry = BankStruct(bank_index=bank_index)
            self.banks[bank_index] = entry
        return entry


class SoftTrrStructures:
    """The three Table I maps plus their slab caches, as one unit.

    ``remap`` is the module's in-DRAM row remapping, consumed as offline
    domain knowledge (Section III-A): adjacency queries translate
    through it so "near" means *physically* near.  ``None`` falls back
    to identity arithmetic (logical == physical).
    """

    def __init__(self, remap=None) -> None:
        self.remap = remap
        self.pt_slab = SlabCache("softtrr_pt_node", PT_NODE_BYTES)
        self.adj_slab = SlabCache("softtrr_adj_node", ADJ_NODE_BYTES)
        self.row_slab = SlabCache("softtrr_row_node", PT_ROW_NODE_BYTES)
        self.bank_slab = SlabCache("softtrr_bank_struct", BANK_STRUCT_BYTES)
        self.pt_rbtree = SlabMap(self.pt_slab.alloc, self.pt_slab.free)
        self.adj_rbtree = SlabMap(self.adj_slab.alloc, self.adj_slab.free)
        self.pt_row_rbtree = SlabMap(self.row_slab.alloc,
                                     self.row_slab.free)
        #: bank-struct slab handles keyed by (row, bank).
        self._bank_handles: Dict[Tuple[int, int], int] = {}
        #: ``pt_row_rbtree``'s own dict: the adjacency scans look rows
        #: up in it without a method call per candidate.
        self._pt_rows: Dict[int, PtRowEntry] = self.pt_row_rbtree._values
        #: :meth:`near_rows` memo, keyed by ``(row, max_distance)``.
        self._near: Dict[Tuple[int, int], Tuple[int, ...]] = {}

    # --------------------------------------------------------- pt rows
    def add_pt_location(self, row: int, bank: int) -> BankStruct:
        """Record one L1PT page occupying (bank, row)."""
        entry = self.pt_row_rbtree.get(row)
        if entry is None:
            entry = PtRowEntry()
            self.pt_row_rbtree.insert(row, entry)
        bank_struct = entry.bank(bank)
        if bank_struct is None:
            bank_struct = entry.ensure_bank(bank)
            self._bank_handles[(row, bank)] = self.bank_slab.alloc()
        bank_struct.pt_count += 1
        return bank_struct

    def remove_pt_location(self, row: int, bank: int) -> None:
        """Drop one L1PT page from (bank, row); reap empty structures."""
        entry = self.pt_row_rbtree.get(row)
        if entry is None:
            return
        bank_struct = entry.bank(bank)
        if bank_struct is None:
            return
        bank_struct.pt_count -= 1
        if bank_struct.pt_count <= 0:
            del entry.banks[bank]
            handle = self._bank_handles.pop((row, bank), None)
            if handle is not None:
                self.bank_slab.free(handle)
        if not entry.banks:
            self.pt_row_rbtree.delete(row)

    def bank_struct(self, row: int, bank: int) -> Optional[BankStruct]:
        """The bank struct at (row, bank), or None."""
        entry = self.pt_row_rbtree.get(row)
        if entry is None:
            return None
        return entry.bank(bank)

    def neighbor_rows(self, row: int, distance: int) -> List[int]:
        """Rows physically exactly ``distance`` from ``row``."""
        if self.remap is not None:
            return self.remap.neighbors_at(row, distance)
        return [row - distance, row + distance]

    def near_rows(self, row: int, max_distance: int) -> Tuple[int, ...]:
        """Rows physically 1..``max_distance`` from ``row``, distance by
        distance in :meth:`neighbor_rows` order.

        A pure function of the remap, so it is computed once per
        ``(row, max_distance)`` asked about and kept: the memo grows
        only with the rows touched.
        """
        key = (row, max_distance)
        near = self._near.get(key)
        if near is None:
            near = self._near[key] = tuple(
                candidate for distance in range(1, max_distance + 1)
                for candidate in self.neighbor_rows(row, distance))
        return near

    def pt_rows_near(self, row: int, bank: int, max_distance: int
                     ) -> Iterator[Tuple[int, BankStruct]]:
        """(pt_row, bank_struct) pairs physically within ``max_distance``
        of ``row``.

        Distance 0 is excluded: an access to a row recharges that row,
        it does not disturb it.
        """
        pt_rows = self._pt_rows
        for candidate in self.near_rows(row, max_distance):
            entry = pt_rows.get(candidate)
            if entry is not None:
                bank_struct = entry.banks.get(bank)
                if bank_struct is not None:
                    yield candidate, bank_struct

    def has_pt_near(self, row: int, bank: int, max_distance: int) -> bool:
        """Whether any L1PT row lies within ``max_distance`` of ``row``:
        ``any(pt_rows_near(...))`` without building a pair."""
        pt_rows = self._pt_rows
        for candidate in self.near_rows(row, max_distance):
            entry = pt_rows.get(candidate)
            if entry is not None and bank in entry.banks:
                return True
        return False

    # ------------------------------------------------------------ memory
    def memory_bytes(self) -> int:
        """Slab footprint of the three maps (page-granular, like
        /proc/slabinfo; the ring buffer is counted by its owner)."""
        return (
            self.pt_slab.bytes_held()
            + self.adj_slab.bytes_held()
            + self.row_slab.bytes_held()
            + self.bank_slab.bytes_held()
        )

    def live_node_bytes(self) -> int:
        """Object-granular footprint (for finer-grained reporting)."""
        return (
            self.pt_slab.bytes_live()
            + self.adj_slab.bytes_live()
            + self.row_slab.bytes_live()
            + self.bank_slab.bytes_live()
        )
