"""Tests for :class:`SlabMap`, the map behind SoftTRR's three Table I
trees (``pt_rbtree``, ``adj_rbtree``, ``pt_row_rbtree``): ascending key
order and one slab node per live key, checked against a dict model."""

import random

from hypothesis import given, settings, strategies as st

from repro.core import SlabMap
from repro.kernel.slab import SlabCache


def slab_map():
    slab = SlabCache("test_node", 48)
    return SlabMap(slab.alloc, slab.free), slab


class TestBasics:
    def test_empty(self):
        tree, _slab = slab_map()
        assert len(tree) == 0
        assert 5 not in tree
        assert tree.get(5) is None
        assert tree.get(5, "d") == "d"
        assert list(tree.items()) == []

    def test_insert_and_get(self):
        tree, _slab = slab_map()
        assert tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_insert_update(self):
        tree, _slab = slab_map()
        tree.insert(5, "a")
        assert not tree.insert(5, "b")  # update, not new node
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_delete(self):
        tree, _slab = slab_map()
        tree.insert(5, "a")
        assert tree.delete(5)
        assert 5 not in tree
        assert len(tree) == 0
        assert not tree.delete(5)

    def test_pop(self):
        tree, _slab = slab_map()
        tree.insert(1, "x")
        assert tree.pop(1) == "x"
        assert tree.pop(1, "gone") == "gone"

    def test_inorder_iteration(self):
        tree, _slab = slab_map()
        for key in [5, 3, 8, 1, 4, 9, 2]:
            tree.insert(key, key * 10)
        assert list(tree.keys()) == [1, 2, 3, 4, 5, 8, 9]
        assert list(tree.items())[0] == (1, 10)


class TestInvariants:
    def test_sequential_insert(self):
        tree, slab = slab_map()
        for key in range(200):
            tree.insert(key, key)
        assert list(tree.keys()) == list(range(200))
        assert slab.live_objects == 200

    def test_reverse_insert(self):
        tree, slab = slab_map()
        for key in reversed(range(200)):
            tree.insert(key, key)
        assert list(tree.keys()) == list(range(200))
        assert slab.live_objects == 200

    def test_random_insert_delete(self):
        rng = random.Random(42)
        tree, slab = slab_map()
        live = set()
        for _ in range(2000):
            key = rng.randrange(300)
            if key in live and rng.random() < 0.5:
                tree.delete(key)
                live.discard(key)
            else:
                tree.insert(key, key)
                live.add(key)
        assert sorted(live) == list(tree.keys())
        assert slab.live_objects == len(live)

    def test_delete_all(self):
        tree, slab = slab_map()
        keys = list(range(100))
        random.Random(7).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        random.Random(8).shuffle(keys)
        live = set(keys)
        for key in keys:
            assert tree.delete(key)
            live.discard(key)
            assert list(tree.keys()) == sorted(live)
        assert len(tree) == 0
        assert slab.live_objects == 0

    @given(st.lists(st.tuples(st.booleans(), st.integers(0, 63)),
                    min_size=1, max_size=120))
    @settings(max_examples=60)
    def test_model_based(self, ops):
        """The map behaves exactly like a dict with sorted keys, one
        live slab node per key."""
        tree, slab = slab_map()
        model = {}
        for insert, key in ops:
            if insert:
                tree.insert(key, key * 2)
                model[key] = key * 2
            else:
                assert tree.delete(key) == (key in model)
                model.pop(key, None)
            assert len(tree) == len(model)
            assert list(tree.keys()) == sorted(model)
            assert slab.live_objects == len(model)
        assert dict(tree.items()) == model


class TestSlabIntegration:
    def test_alloc_free_callbacks(self):
        allocs, frees = [], []
        counter = iter(range(1000))

        def on_alloc():
            h = next(counter)
            allocs.append(h)
            return h

        tree = SlabMap(on_alloc, frees.append)
        tree.insert(1, "a")
        tree.insert(2, "b")
        tree.insert(1, "c")  # update: no new allocation
        assert len(allocs) == 2
        tree.delete(1)
        assert frees == [allocs[0]]
        tree.delete(2)
        assert frees == [allocs[0], allocs[1]]
