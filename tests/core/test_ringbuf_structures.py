"""Tests for pte_ringbuf and the Table I structures."""

import pytest

from repro.core.ringbuf import (
    DEFAULT_CAPACITY,
    ENTRY_BYTES,
    PteRef,
    PteRingBuffer,
)
from repro.core.structures import SoftTrrStructures
from repro.errors import SoftTrrError


def ref(n: int) -> PteRef:
    return PteRef(pte_paddr=n * 8, vaddr=n << 12, pid=1, ppn=n)


class TestRingBuffer:
    def test_default_capacity_is_396_kib(self):
        ring = PteRingBuffer()
        assert ring.capacity_bytes() == DEFAULT_CAPACITY * ENTRY_BYTES
        # 396 KiB within one entry of rounding.
        assert abs(ring.capacity_bytes() - 396 * 1024) < ENTRY_BYTES

    def test_tiny_capacity_rejected(self):
        with pytest.raises(SoftTrrError):
            PteRingBuffer(capacity=4)

    def test_fifo_order(self):
        ring = PteRingBuffer(capacity=16)
        for i in range(5):
            ring.push(ref(i))
        assert [r.ppn for r in ring.drain()] == [0, 1, 2, 3, 4]
        assert ring.is_empty()

    def test_pop_empty_returns_none(self):
        ring = PteRingBuffer(capacity=16)
        assert ring.pop() is None

    def test_len(self):
        ring = PteRingBuffer(capacity=16)
        for i in range(3):
            ring.push(ref(i))
        assert len(ring) == 3
        ring.pop()
        assert len(ring) == 2

    def test_grows_at_80_percent(self):
        ring = PteRingBuffer(capacity=10)
        for i in range(8):
            ring.push(ref(i))
        assert ring.grow_events == 0  # fill below the watermark so far
        ring.push(ref(8))  # sees 8/10 = 80% => allocate the 4x buffer
        assert ring.grow_events == 1
        assert ring.capacity() == 10 + 40

    def test_old_ring_drains_first_then_freed(self):
        ring = PteRingBuffer(capacity=10)
        for i in range(12):
            ring.push(ref(i))
        order = [r.ppn for r in ring.drain()]
        assert order == list(range(12))  # old generation first
        assert ring.capacity() == 40  # old 10-slot ring was freed

    def test_wraparound(self):
        ring = PteRingBuffer(capacity=10)
        for round_ in range(5):
            for i in range(4):
                ring.push(ref(round_ * 4 + i))
            for _ in range(4):
                ring.pop()
        assert ring.is_empty()
        assert ring.total_pushed == 20
        assert ring.total_popped == 20

    def test_drain_limit(self):
        ring = PteRingBuffer(capacity=16)
        for i in range(6):
            ring.push(ref(i))
        assert len(list(ring.drain(limit=2))) == 2
        assert len(ring) == 4


class TestStructures:
    def test_pt_location_lifecycle(self):
        s = SoftTrrStructures()
        bank_struct = s.add_pt_location(row=10, bank=2)
        assert bank_struct.pt_count == 1
        s.add_pt_location(row=10, bank=2)
        assert s.bank_struct(10, 2).pt_count == 2
        s.remove_pt_location(10, 2)
        assert s.bank_struct(10, 2).pt_count == 1
        s.remove_pt_location(10, 2)
        assert s.bank_struct(10, 2) is None
        assert 10 not in s.pt_row_rbtree

    def test_multiple_banks_per_row(self):
        """A page can span banks => one row node, many bank structs."""
        s = SoftTrrStructures()
        s.add_pt_location(10, 2)
        s.add_pt_location(10, 3)
        entry = s.pt_row_rbtree.get(10)
        assert set(entry.banks) == {2, 3}
        s.remove_pt_location(10, 2)
        assert set(s.pt_row_rbtree.get(10).banks) == {3}

    def test_pt_rows_near(self):
        s = SoftTrrStructures()
        s.add_pt_location(10, 0)
        s.add_pt_location(14, 0)
        s.add_pt_location(12, 1)  # other bank: must not match
        near = [(row, b.bank_index) for row, b in s.pt_rows_near(12, 0, 2)]
        assert (10, 0) in near
        assert (14, 0) in near
        assert all(bank == 0 for _, bank in near)

    def test_pt_rows_near_excludes_distance_zero(self):
        s = SoftTrrStructures()
        s.add_pt_location(12, 0)
        assert list(s.pt_rows_near(12, 0, 6)) == []

    def test_has_pt_near(self):
        s = SoftTrrStructures()
        s.add_pt_location(10, 0)
        assert s.has_pt_near(11, 0, 1)
        assert not s.has_pt_near(12, 0, 1)
        assert s.has_pt_near(12, 0, 2)
        assert not s.has_pt_near(11, 1, 6)

    def test_memory_accounting_grows_and_shrinks(self):
        s = SoftTrrStructures()
        base = s.memory_bytes()
        for i in range(200):
            s.pt_rbtree.insert(i, None)
            s.add_pt_location(i, 0)
        grown = s.memory_bytes()
        assert grown > base
        assert s.live_node_bytes() == 200 * 48 + 200 * 64 + 200 * 24
        for i in range(200):
            s.pt_rbtree.delete(i)
            s.remove_pt_location(i, 0)
        assert s.live_node_bytes() == 0
