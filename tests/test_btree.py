"""Unit tests for the disk-backed B+-tree."""

import random

import pytest

from repro.btree import BPlusTree
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager


def make_tree(order=6, capacity=16):
    buf = LRUBuffer(PageManager(), capacity=capacity)
    return BPlusTree(buf, order=order), buf


class TestBasics:
    def test_empty_tree(self):
        tree, _ = make_tree()
        assert len(tree) == 0
        assert tree.get(1) is None
        assert 1 not in tree
        assert list(tree.items()) == []

    def test_insert_and_get(self):
        tree, _ = make_tree()
        tree.insert(5, "five")
        assert tree.get(5) == "five"
        assert 5 in tree
        assert len(tree) == 1

    def test_overwrite_keeps_size(self):
        tree, _ = make_tree()
        tree.insert(5, "a")
        tree.insert(5, "b")
        assert tree.get(5) == "b"
        assert len(tree) == 1

    def test_get_default(self):
        tree, _ = make_tree()
        assert tree.get(9, default="d") == "d"

    def test_order_below_three_rejected(self):
        buf = LRUBuffer(PageManager(), capacity=4)
        with pytest.raises(ValueError):
            BPlusTree(buf, order=2)

    def test_default_order_from_page_size(self):
        buf = LRUBuffer(PageManager(), capacity=4)
        tree = BPlusTree(buf)
        assert tree.order >= 3


class TestSplitsAndOrder:
    def test_sequential_insert_grows_height(self):
        tree, _ = make_tree(order=4)
        for key in range(100):
            tree.insert(key, key)
        assert tree.height > 1
        tree.check_invariants()

    def test_random_insert_keeps_sorted_iteration(self):
        tree, _ = make_tree(order=5)
        keys = list(range(300))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, -key)
        assert list(tree.keys()) == sorted(keys)
        tree.check_invariants()

    def test_reverse_insert(self):
        tree, _ = make_tree(order=4)
        for key in reversed(range(120)):
            tree.insert(key, key)
        assert list(tree.keys()) == list(range(120))
        tree.check_invariants()

    def test_all_values_retrievable_after_splits(self):
        tree, _ = make_tree(order=4)
        keys = random.Random(7).sample(range(10_000), 500)
        for key in keys:
            tree.insert(key, key * 3)
        for key in keys:
            assert tree.get(key) == key * 3


class TestRangeScan:
    @pytest.fixture
    def populated(self):
        tree, buf = make_tree(order=5)
        for key in range(0, 100, 2):  # evens 0..98
            tree.insert(key, f"v{key}")
        return tree

    def test_full_scan(self, populated):
        assert [k for k, _ in populated.items()] == list(range(0, 100, 2))

    def test_bounded_scan(self, populated):
        assert [k for k, _ in populated.items(low=10, high=20)] == [
            10, 12, 14, 16, 18, 20,
        ]

    def test_low_bound_between_keys(self, populated):
        assert next(iter(populated.items(low=11)))[0] == 12

    def test_high_bound_exclusive_of_later(self, populated):
        keys = [k for k, _ in populated.items(high=5)]
        assert keys == [0, 2, 4]

    def test_empty_range(self, populated):
        assert list(populated.items(low=200)) == []


class TestDelete:
    def test_delete_present(self):
        tree, _ = make_tree()
        tree.insert(1, "a")
        assert tree.delete(1)
        assert 1 not in tree
        assert len(tree) == 0

    def test_delete_absent_returns_false(self):
        tree, _ = make_tree()
        assert not tree.delete(99)

    def test_delete_many_keeps_invariants(self):
        tree, _ = make_tree(order=4)
        for key in range(200):
            tree.insert(key, key)
        for key in range(0, 200, 2):
            assert tree.delete(key)
        assert list(tree.keys()) == list(range(1, 200, 2))
        tree.check_invariants()

    def test_reinsert_after_delete(self):
        tree, _ = make_tree(order=4)
        for key in range(50):
            tree.insert(key, key)
        tree.delete(25)
        tree.insert(25, "back")
        assert tree.get(25) == "back"
        tree.check_invariants()


class TestDiskBehaviour:
    def test_accesses_charge_buffer(self):
        tree, buf = make_tree(order=4, capacity=2)
        for key in range(100):
            tree.insert(key, key)
        before = buf.stats.page_faults
        for key in range(100):
            tree.get(key)
        assert buf.stats.page_faults > before  # tiny buffer must fault

    def test_drop_releases_pages(self):
        tree, buf = make_tree(order=4)
        for key in range(100):
            tree.insert(key, key)
        pages = tree.num_pages
        assert pages > 1
        tree.drop()
        assert len(buf.manager) == 0

    def test_num_pages_grows_with_data(self):
        small, _ = make_tree(order=4)
        big, _ = make_tree(order=4)
        for key in range(10):
            small.insert(key, key)
        for key in range(500):
            big.insert(key, key)
        assert big.num_pages > small.num_pages


class TestUpdate:
    @staticmethod
    def populated():
        tree, buf = make_tree(order=4, capacity=3)
        keys = list(range(0, 300, 3))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert(key, key)
        tree.get(42)
        return tree, buf

    @staticmethod
    def io_delta(buf, before):
        after = buf.stats
        return (
            after.logical_reads - before.logical_reads,
            after.logical_writes - before.logical_writes,
            after.page_faults - before.page_faults,
            after.buffer_hits - before.buffer_hits,
        )

    @pytest.mark.parametrize("key", [0, 3, 150, 297])
    def test_present_key_matches_insert_io_and_recency(self, key):
        via_insert, insert_buf = self.populated()
        via_update, update_buf = self.populated()
        before_insert = insert_buf.stats.snapshot()
        before_update = update_buf.stats.snapshot()
        via_insert.insert(key, "new")
        via_update.update(key, "new")
        delta = self.io_delta(update_buf, before_update)
        assert delta == self.io_delta(insert_buf, before_insert)
        assert delta[1] == 1  # one leaf write
        assert list(update_buf._frames) == list(insert_buf._frames)
        assert via_update.get(key) == "new"
        assert len(via_update) == len(via_insert)
        via_update.check_invariants()

    def test_absent_key_raises(self):
        tree, _ = self.populated()
        size = len(tree)
        with pytest.raises(KeyError):
            tree.update(1, "x")
        assert len(tree) == size
        assert tree.get(1) is None
        tree.check_invariants()

    def test_absent_key_on_empty_tree_raises(self):
        tree, _ = make_tree()
        with pytest.raises(KeyError):
            tree.update(7, "x")
        assert len(tree) == 0
