"""LRU buffer pools.

The paper (Sections 4.1 and 5) places an LRU buffer in front of every
access method: one sized at 10 % of the M-tree and a second, shared by
the remaining structures, sized at 20 % of the data set.  Page requests
that hit the buffer are free; misses are page faults charged 8 ms each.

:class:`LRUBuffer` implements the classic pin-free LRU policy over a
:class:`~repro.storage.pages.PageManager`; :class:`BufferPool` bundles
the two buffers the paper uses and offers sizing helpers.
"""

from __future__ import annotations

import contextlib
import threading
from collections import OrderedDict
from typing import Any, ContextManager, Optional

from repro.faults.retry import call_with_retry
from repro.storage.pages import Page, PageError, PageManager
from repro.storage.stats import IOStats

#: shared no-op lock used until :meth:`LRUBuffer.make_thread_safe` is
#: called — ``nullcontext`` is stateless, so one instance serves all
#: buffers without contention or allocation per access.
_UNLOCKED: ContextManager[None] = contextlib.nullcontext()


class LRUBuffer:
    """A least-recently-used page cache over a :class:`PageManager`.

    ``capacity`` is the number of page frames.  A capacity of zero
    disables caching — every access is a fault — which the ablation
    benchmarks use to quantify the buffer's contribution.

    Single-threaded by default.  The recency list is an ``OrderedDict``
    mutated on *every* access (hits ``move_to_end``, misses evict), so
    concurrent readers corrupt it; the serving layer calls
    :meth:`make_thread_safe` to serialize page operations.  Until then
    :meth:`get`, :meth:`put` and :meth:`new_page` take a lock-free path
    that charges ``stats`` directly; both paths count identically.

    Thread-safe mode also mirrors every accounting increment into a
    **per-thread** :class:`IOStats`: a query runs entirely on one
    worker thread, so deltas of :meth:`local_stats` attribute page
    faults to exactly the query that incurred them, where deltas of
    the shared ``stats`` would absorb concurrent neighbours' faults.
    """

    def __init__(
        self,
        manager: PageManager,
        capacity: int,
        name: str = "lru",
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.manager = manager
        self.capacity = capacity
        self.name = name
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self.stats = IOStats()
        self._lock: ContextManager[None] = _UNLOCKED
        self._local: Optional[threading.local] = None

    def make_thread_safe(self) -> None:
        """Serialize page operations behind a reentrant lock (idempotent).

        Also switches :meth:`local_stats` to per-thread counters for
        exact per-query attribution.
        """
        if self._lock is _UNLOCKED:
            self._lock = threading.RLock()
            self._local = threading.local()

    def local_stats(self) -> IOStats:
        """The calling thread's own counters (live object, not a copy).

        Falls back to the global ``stats`` in single-threaded mode
        (where the two are identical).  Per-thread counters only ever
        grow — callers diff snapshots, as with ``stats``.
        """
        if self._local is None:
            return self.stats
        stats = getattr(self._local, "stats", None)
        if stats is None:
            stats = self._local.stats = IOStats()
        return stats

    def _sinks(self) -> "tuple[IOStats, IOStats]":
        """The stats objects a thread-safe access is charged to."""
        return (self.stats, self.local_stats())

    # ------------------------------------------------------------------
    # page interface used by access methods
    # ------------------------------------------------------------------
    def get(self, page_id: int) -> Page:
        """Read a page through the buffer (logical read)."""
        if self._local is None:
            # single-threaded: charge ``stats`` directly, no lock.
            stats = self.stats
            stats.logical_reads += 1
            page = self._frames.get(page_id)
            if page is not None:
                self._frames.move_to_end(page_id)
                stats.buffer_hits += 1
                return page
            page = self._physical_read(page_id)
            stats.page_faults += 1
            self._admit(page)
            return page
        with self._lock:
            sinks = self._sinks()
            for stats in sinks:
                stats.logical_reads += 1
            page = self._frames.get(page_id)
            if page is not None:
                self._frames.move_to_end(page_id)
                for stats in sinks:
                    stats.buffer_hits += 1
                return page
            page = self._physical_read(page_id)
            for stats in sinks:
                stats.page_faults += 1
            self._admit(page)
            return page

    def _physical_read(self, page_id: int) -> Page:
        """One physical read, retrying transient injected faults.

        With a fault injector attached to the manager, transient read
        faults are retried under the injector's policy (capped
        exponential backoff, deterministic jitter); permanent faults
        and checksum corruption propagate typed.  Without an injector
        this is a plain read.
        """
        injector = self.manager.injector
        if injector is None:
            return self.manager.read_page(page_id)
        return call_with_retry(
            lambda: self.manager.read_page(page_id),
            policy=injector.retry_policy,
            rng=injector.retry_rng,
            sleep=injector.sleep,
            on_retry=lambda _exc, _attempt, _delay: injector.note_retry(
                "storage", f"{self.manager.name}:{page_id}"
            ),
        )

    def put(self, page: Page) -> None:
        """Write a page through the buffer (logical write).

        Writes mark the frame dirty; the frame is flushed (without extra
        fault accounting — the paper charges faults, not write-backs)
        when evicted or when :meth:`flush` is called.
        """
        if self._local is None:
            stats = self.stats
            stats.logical_writes += 1
            page.dirty = True
            if page.page_id in self._frames:
                self._frames.move_to_end(page.page_id)
                self._frames[page.page_id] = page
                stats.buffer_hits += 1
                return
            stats.page_faults += 1
            self._admit(page)
            return
        with self._lock:
            sinks = self._sinks()
            for stats in sinks:
                stats.logical_writes += 1
            page.dirty = True
            if page.page_id in self._frames:
                self._frames.move_to_end(page.page_id)
                self._frames[page.page_id] = page
                for stats in sinks:
                    stats.buffer_hits += 1
                return
            for stats in sinks:
                stats.page_faults += 1
            self._admit(page)

    def new_page(self, payload: Any = None) -> Page:
        """Allocate a page and install it into the buffer dirty.

        A freshly allocated page is born resident — the access counts
        as a (write) hit, keeping the identity ``logical_accesses ==
        buffer_hits + page_faults`` exact.
        """
        if self._local is None:
            page = self.manager.allocate_page(payload)
            page.dirty = True
            self.stats.logical_writes += 1
            self.stats.buffer_hits += 1
            self._admit(page)
            return page
        with self._lock:
            page = self.manager.allocate_page(payload)
            page.dirty = True
            for stats in self._sinks():
                stats.logical_writes += 1
                stats.buffer_hits += 1
            self._admit(page)
            return page

    def free_page(self, page_id: int) -> None:
        """Drop a page from the buffer and the underlying manager."""
        with self._lock:
            self._frames.pop(page_id, None)
            self.manager.free(page_id)

    def invalidate(self, page_id: int) -> None:
        """Drop a page from the buffer without freeing it on disk."""
        with self._lock:
            self._frames.pop(page_id, None)

    def flush(self) -> None:
        """Write back every dirty frame (no fault accounting)."""
        with self._lock:
            for page in self._frames.values():
                if page.dirty:
                    self.manager.write_page(page)

    def clear(self) -> None:
        """Flush and empty the buffer (used between benchmark runs)."""
        with self._lock:
            self.flush()
            self._frames.clear()

    def resize(self, capacity: int) -> None:
        """Change the frame count, evicting LRU frames if shrinking."""
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        with self._lock:
            self.capacity = capacity
            while len(self._frames) > self.capacity:
                self._evict_one()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _admit(self, page: Page) -> None:
        if self.capacity == 0:
            if page.dirty:
                self.manager.write_page(page)
            return
        while len(self._frames) >= self.capacity:
            self._evict_one()
        self._frames[page.page_id] = page
        self._frames.move_to_end(page.page_id)

    def _evict_one(self) -> None:
        try:
            _pid, victim = self._frames.popitem(last=False)
        except KeyError:  # pragma: no cover - defensive
            raise PageError("evicting from an empty buffer")
        if victim.dirty:
            self.manager.write_page(victim)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    def snapshot(self) -> dict:
        """Capacity, residency and global I/O counters as plain types."""
        with self._lock:
            stats = self.stats
            return {
                "name": self.name,
                "capacity": self.capacity,
                "resident": len(self._frames),
                "hit_ratio": stats.hit_ratio,
                "logical_reads": stats.logical_reads,
                "logical_writes": stats.logical_writes,
                "page_faults": stats.page_faults,
                "buffer_hits": stats.buffer_hits,
                "pages_allocated": stats.pages_allocated,
            }


class BufferPool:
    """The two-buffer configuration of the paper's experiments.

    * ``index_buffer`` — in front of the M-tree, sized at 10 % of the
      M-tree's pages;
    * ``aux_buffer`` — in front of every other structure (the
      ``AuxB+``-tree and temporary state), sized at 20 % of the data
      set's pages.

    The pool is created with provisional capacities and re-sized once
    the index has been bulk-loaded and the data-set footprint is known
    (:meth:`size_for`).
    """

    INDEX_FRACTION = 0.10
    AUX_FRACTION = 0.20
    #: floors keeping scaled-down runs qualitatively faithful: at the
    #: paper's cardinalities (~10^6 objects) 20 % of the data set is
    #: thousands of pages, comfortably holding the AuxB+-tree working
    #: set.  A strictly proportional buffer at n ~ 10^3 would be a
    #: handful of pages and thrash, inverting the paper's I/O ordering.
    MIN_INDEX_FRAMES = 4
    MIN_AUX_FRAMES = 128

    def __init__(
        self,
        index_manager: Optional[PageManager] = None,
        aux_manager: Optional[PageManager] = None,
        index_capacity: int = 64,
        aux_capacity: int = 64,
    ) -> None:
        self.index_manager = index_manager or PageManager(name="mtree-disk")
        self.aux_manager = aux_manager or PageManager(name="aux-disk")
        self.index_buffer = LRUBuffer(
            self.index_manager, index_capacity, name="mtree-buffer"
        )
        self.aux_buffer = LRUBuffer(
            self.aux_manager, aux_capacity, name="aux-buffer"
        )

    def make_thread_safe(self) -> None:
        """Serialize page operations on both buffers (idempotent)."""
        self.index_buffer.make_thread_safe()
        self.aux_buffer.make_thread_safe()

    def size_for(self, index_pages: int, dataset_pages: int) -> None:
        """Apply the paper's sizing rule to both buffers."""
        self.index_buffer.resize(
            max(self.MIN_INDEX_FRAMES, int(index_pages * self.INDEX_FRACTION))
        )
        self.aux_buffer.resize(
            max(self.MIN_AUX_FRAMES, int(dataset_pages * self.AUX_FRACTION))
        )

    def combined_io(self) -> IOStats:
        """Aggregate I/O counters across both buffers."""
        total = IOStats()
        total.merge(self.index_buffer.stats)
        total.merge(self.aux_buffer.stats)
        return total

    def local_io(self) -> IOStats:
        """Aggregate the calling thread's counters across both buffers.

        In thread-safe mode this reflects only pages this thread
        touched, so deltas attribute I/O to a single query exactly
        even while neighbours fault pages concurrently; single-threaded
        it equals :meth:`combined_io`.
        """
        total = IOStats()
        total.merge(self.index_buffer.local_stats())
        total.merge(self.aux_buffer.local_stats())
        return total

    def reset_stats(self) -> None:
        """Zero both buffers' counters (between benchmark repetitions)."""
        self.index_buffer.stats.reset()
        self.aux_buffer.stats.reset()

    def snapshot(self) -> dict:
        """Both buffers plus the combined counters, as plain types."""
        combined = self.combined_io()
        return {
            "index": self.index_buffer.snapshot(),
            "aux": self.aux_buffer.snapshot(),
            "combined": {
                "hit_ratio": combined.hit_ratio,
                "logical_reads": combined.logical_reads,
                "logical_writes": combined.logical_writes,
                "page_faults": combined.page_faults,
                "buffer_hits": combined.buffer_hits,
                "pages_allocated": combined.pages_allocated,
            },
        }

    def clear(self) -> None:
        """Empty both buffers (cold-cache benchmark runs)."""
        self.index_buffer.clear()
        self.aux_buffer.clear()
