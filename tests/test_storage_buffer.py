"""Unit tests for the LRU buffer pools."""

import random

import pytest

from repro.storage.buffer import BufferPool, LRUBuffer
from repro.storage.pages import PageManager


def make_buffer(capacity=3):
    mgr = PageManager()
    return mgr, LRUBuffer(mgr, capacity=capacity)


class TestLRUBasics:
    def test_first_read_is_fault(self):
        mgr, buf = make_buffer()
        page_id = mgr.allocate()
        buf.get(page_id)
        assert buf.stats.page_faults == 1
        assert buf.stats.buffer_hits == 0

    def test_second_read_is_hit(self):
        mgr, buf = make_buffer()
        page_id = mgr.allocate()
        buf.get(page_id)
        buf.get(page_id)
        assert buf.stats.page_faults == 1
        assert buf.stats.buffer_hits == 1

    def test_lru_eviction_order(self):
        mgr, buf = make_buffer(capacity=2)
        a, b, c = (mgr.allocate() for _ in range(3))
        buf.get(a)
        buf.get(b)
        buf.get(c)  # evicts a
        assert a not in buf
        assert b in buf and c in buf

    def test_access_refreshes_recency(self):
        mgr, buf = make_buffer(capacity=2)
        a, b, c = (mgr.allocate() for _ in range(3))
        buf.get(a)
        buf.get(b)
        buf.get(a)  # a is now most recent
        buf.get(c)  # evicts b
        assert b not in buf
        assert a in buf

    def test_dirty_page_written_back_on_eviction(self):
        mgr, buf = make_buffer(capacity=1)
        a, b = mgr.allocate(payload=[]), mgr.allocate()
        page = buf.get(a)
        page.payload.append("x")
        buf.put(page)
        buf.get(b)  # evicts a, must flush
        assert mgr.read_page(a).payload == ["x"]
        assert not mgr.read_page(a).dirty

    def test_put_marks_dirty_and_counts_write(self):
        mgr, buf = make_buffer()
        page = buf.get(mgr.allocate())
        buf.put(page)
        assert page.dirty
        assert buf.stats.logical_writes == 1

    def test_zero_capacity_disables_caching(self):
        mgr, buf = make_buffer(capacity=0)
        page_id = mgr.allocate()
        buf.get(page_id)
        buf.get(page_id)
        assert buf.stats.page_faults == 2
        assert buf.stats.buffer_hits == 0

    def test_negative_capacity_rejected(self):
        mgr = PageManager()
        with pytest.raises(ValueError):
            LRUBuffer(mgr, capacity=-1)

    def test_new_page_is_resident_and_dirty(self):
        mgr, buf = make_buffer()
        page = buf.new_page(payload="p")
        assert page.page_id in buf
        assert page.dirty

    def test_free_page_removes_everywhere(self):
        mgr, buf = make_buffer()
        page = buf.new_page()
        buf.free_page(page.page_id)
        assert page.page_id not in buf
        assert page.page_id not in mgr

    def test_invalidate_keeps_disk_copy(self):
        mgr, buf = make_buffer()
        page = buf.new_page()
        buf.invalidate(page.page_id)
        assert page.page_id not in buf
        assert page.page_id in mgr

    def test_flush_writes_dirty_frames(self):
        mgr, buf = make_buffer()
        page = buf.new_page(payload=[1])
        buf.flush()
        assert not mgr.read_page(page.page_id).dirty

    def test_resize_shrink_evicts(self):
        mgr, buf = make_buffer(capacity=4)
        ids = [mgr.allocate() for _ in range(4)]
        for page_id in ids:
            buf.get(page_id)
        buf.resize(1)
        assert len(buf) == 1
        assert ids[-1] in buf

    def test_hit_ratio(self):
        mgr, buf = make_buffer()
        page_id = mgr.allocate()
        buf.get(page_id)
        buf.get(page_id)
        buf.get(page_id)
        assert buf.stats.hit_ratio == pytest.approx(2 / 3)


class TestBufferPool:
    def test_sizing_rule_applies_fractions(self):
        pool = BufferPool()
        pool.size_for(index_pages=1000, dataset_pages=10_000)
        assert pool.index_buffer.capacity == 100
        assert pool.aux_buffer.capacity == 2000

    def test_sizing_rule_floors(self):
        pool = BufferPool()
        pool.size_for(index_pages=10, dataset_pages=20)
        assert pool.index_buffer.capacity == BufferPool.MIN_INDEX_FRAMES
        assert pool.aux_buffer.capacity == BufferPool.MIN_AUX_FRAMES

    def test_combined_io_merges_both(self):
        pool = BufferPool()
        a = pool.index_manager.allocate()
        b = pool.aux_manager.allocate()
        pool.index_buffer.get(a)
        pool.aux_buffer.get(b)
        assert pool.combined_io().page_faults == 2
        assert pool.combined_io().logical_reads == 2

    def test_reset_stats(self):
        pool = BufferPool()
        pool.index_buffer.get(pool.index_manager.allocate())
        pool.reset_stats()
        assert pool.combined_io().page_faults == 0

    def test_clear_empties_buffers(self):
        pool = BufferPool()
        page = pool.aux_buffer.new_page()
        pool.clear()
        assert page.page_id not in pool.aux_buffer


class TestThreadLocalAttribution:
    def test_local_stats_alias_global_single_threaded(self):
        mgr, buf = make_buffer()
        buf.get(mgr.allocate())
        assert buf.local_stats() is buf.stats

    def test_local_stats_partition_global_across_threads(self):
        import threading

        mgr, buf = make_buffer(capacity=8)
        buf.make_thread_safe()
        pages = [mgr.allocate() for _ in range(6)]
        per_thread = {}

        def worker(tag, my_pages, repeats):
            before = buf.local_stats().snapshot()
            for _ in range(repeats):
                for page_id in my_pages:
                    buf.get(page_id)
            per_thread[tag] = buf.local_stats().delta_since(before)

        threads = [
            threading.Thread(target=worker, args=("x", pages[:3], 2)),
            threading.Thread(target=worker, args=("y", pages[3:], 3)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        # each thread is charged exactly its own accesses...
        assert per_thread["x"].logical_reads == 6
        assert per_thread["y"].logical_reads == 9
        # ...and fault/hit attribution partitions the global counters
        # exactly (each access increments both views once).
        total = buf.stats
        assert (
            per_thread["x"].page_faults + per_thread["y"].page_faults
            == total.page_faults
        )
        assert (
            per_thread["x"].buffer_hits + per_thread["y"].buffer_hits
            == total.buffer_hits
        )
        assert total.logical_reads == 15

    def test_pool_local_io_merges_thread_views(self):
        pool = BufferPool()
        pool.make_thread_safe()
        pool.index_buffer.get(pool.index_manager.allocate())
        pool.aux_buffer.get(pool.aux_manager.allocate())
        local = pool.local_io()
        assert local.page_faults == 2
        assert local.logical_reads == 2


def _script(seed, steps=400):
    """A seeded mix of page operations over a small page set."""
    rng = random.Random(seed)
    ops = [("new_page", None) for _ in range(4)]
    for _ in range(steps):
        kind = rng.choices(
            ["get", "put", "new_page", "invalidate", "resize"],
            weights=[50, 25, 8, 10, 7],
        )[0]
        if kind == "resize":
            ops.append((kind, rng.choice([0, 1, 2, 3, 5])))
        elif kind == "new_page":
            ops.append((kind, None))
        else:
            ops.append((kind, rng.random()))
    return ops


def _replay(buf, ops):
    """Run ``ops``; returns the per-step faults and final frame order."""
    pages = {}
    faults = []
    for kind, arg in ops:
        if kind == "new_page":
            page = buf.new_page(payload=len(pages))
            pages[page.page_id] = page
        elif kind == "resize":
            buf.resize(arg)
        else:
            page_id = sorted(pages)[int(arg * len(pages))]
            if kind == "get":
                pages[page_id] = buf.get(page_id)
            elif kind == "put":
                buf.put(pages[page_id])
            else:
                buf.invalidate(page_id)
        faults.append(buf.stats.page_faults)
    return faults, list(buf._frames)


class TestBufferModeEquivalence:
    """The lock-free single-threaded path counts like the locked one."""

    @pytest.mark.parametrize("capacity", [0, 1, 3])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_plain_and_thread_safe_buffers_agree(self, seed, capacity):
        ops = _script(seed)
        plain_mgr, plain = make_buffer(capacity)
        safe_mgr, safe = make_buffer(capacity)
        safe.make_thread_safe()
        plain_faults, plain_frames = _replay(plain, ops)
        safe_faults, safe_frames = _replay(safe, ops)
        assert plain_faults == safe_faults
        assert plain_frames == safe_frames
        assert plain.stats == safe.stats
        assert plain.local_stats() == safe.local_stats() == safe.stats
        assert plain.local_stats() is plain.stats
        assert safe.local_stats() is not safe.stats
        assert plain_mgr.stats == safe_mgr.stats
        assert plain.stats.page_faults > 0
        assert plain.stats.buffer_hits > 0
