"""In-memory span recorder, call wrappers and self-time arithmetic.

A span is one timed call: ``(name, start_ns, end_ns, parent, op)``.
Spans are appended to per-thread columnar arrays (32 bytes a span), so
a traced pass of a few million calls stays in memory and is written out
once, when the run ends.

Parents come from a :class:`contextvars.ContextVar`, which gives one
parent stack per thread *and* per asyncio task: two client coroutines
interleaving on one event-loop thread never adopt each other's spans.
Work handed to a thread pool inherits its parent only when the caller
copies its context into the worker (see :class:`ContextCopyingPool`).

A layer's self time is its span time minus the part of that interval
covered by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import threading
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

NO_SPAN = -1
_THREAD_SHIFT = 40  # span id = thread slot << 40 | index in that slot


class _ThreadBuffer:
    __slots__ = ("base", "name", "start", "end", "parent", "op")

    def __init__(self, slot: int) -> None:
        self.base = slot << _THREAD_SHIFT
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("i")


class Recorder:
    """Collects spans from any number of threads."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._buffers: List[_ThreadBuffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=NO_SPAN
        )
        self._op: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_op", default=NO_SPAN
        )
        #: named tallies fed by wrapper hooks (e.g. pairwise batch sizes),
        #: counted inside ops only
        self.tallies: Dict[str, int] = {}

    def name_id(self, name: str) -> int:
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _ThreadBuffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def begin(self, name_id: int, op: Optional[int] = None):
        """Open a span; returns the frame :meth:`finish` needs."""
        buf = self._buffer()
        index = len(buf.start)
        buf.name.append(name_id)
        buf.parent.append(self._current.get())
        op_token = None
        if op is not None:
            op_token = self._op.set(op)
        buf.op.append(self._op.get())
        buf.end.append(0)
        token = self._current.set(buf.base + index)
        buf.start.append(time.perf_counter_ns())
        return buf, index, token, op_token

    def finish(self, frame) -> None:
        now = time.perf_counter_ns()
        buf, index, token, op_token = frame
        buf.end[index] = now
        self._current.reset(token)
        if op_token is not None:
            self._op.reset(op_token)

    def tally(self, key: str, amount: int) -> None:
        if self._op.get() != NO_SPAN:
            self.tallies[key] = self.tallies.get(key, 0) + amount

    def table(self) -> Dict[str, np.ndarray]:
        """All spans as parallel numpy columns (``id`` is the span id)."""
        cols: Dict[str, List[np.ndarray]] = {
            k: [] for k in ("id", "name", "start", "end", "parent", "op")
        }
        for buf in self._buffers:
            n = len(buf.start)
            cols["id"].append(buf.base + np.arange(n, dtype=np.int64))
            cols["name"].append(np.frombuffer(buf.name, dtype=np.int32)[:n])
            cols["start"].append(np.frombuffer(buf.start, dtype=np.int64)[:n])
            cols["end"].append(np.frombuffer(buf.end, dtype=np.int64)[:n])
            cols["parent"].append(np.frombuffer(buf.parent, dtype=np.int64)[:n])
            cols["op"].append(np.frombuffer(buf.op, dtype=np.int32)[:n])
        return {
            k: (np.concatenate(v) if v else np.empty(0, dtype=np.int64))
            for k, v in cols.items()
        }


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def self_times(
    ids: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    parent: np.ndarray,
) -> np.ndarray:
    """Each span's duration minus the time its children cover.

    Children are clipped to their parent's interval; overlapping
    children (possible only across threads) count their union once.
    Integer nanoseconds, so the arithmetic is exact.
    """
    ids = np.asarray(ids, dtype=np.int64)
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    n = len(ids)
    out = end - start
    if n == 0:
        return out
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    has_parent = parent != NO_SPAN
    child = np.nonzero(has_parent)[0]
    if len(child) == 0:
        return out
    pos = np.searchsorted(sorted_ids, parent[child])
    found = (pos < n) & (sorted_ids[np.minimum(pos, n - 1)] == parent[child])
    if not found.all():
        raise ValueError("span parent not among the recorded spans")
    prow = order[pos]  # row of each child's parent
    c_start = np.maximum(start[child], start[prow])
    c_end = np.minimum(end[child], end[prow])
    c_len = np.maximum(c_end - c_start, 0)
    # sort children by (parent row, clipped start) and look for overlap
    # between neighbours; without overlap the union is the plain sum.
    by = np.lexsort((c_start, prow))
    p_sorted = prow[by]
    s_sorted = c_start[by]
    e_sorted = c_end[by]
    same = p_sorted[1:] == p_sorted[:-1]
    overlapping = same & (s_sorted[1:] < e_sorted[:-1])
    covered = np.bincount(prow, weights=c_len, minlength=n).astype(np.int64)
    for row in np.unique(p_sorted[1:][overlapping]):
        mask = p_sorted == row
        covered[row] = _union_length(s_sorted[mask], e_sorted[mask])
    return out - covered


def _union_length(starts: Sequence[int], ends: Sequence[int]) -> int:
    total = 0
    cur_s = cur_e = None
    for s, e in sorted(zip(starts, ends)):
        if e <= s:
            continue
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return int(total)


def conservation_errors(
    table: Dict[str, np.ndarray], self_ns: np.ndarray, root_name: int
) -> Dict[int, int]:
    """Per op, (sum of self times) - (root span duration); ideally 0.

    Self times telescope to the root's duration exactly when every
    child lies inside its parent and siblings never overlap, so any
    non-zero entry is time counted twice or lost.
    """
    op = table["op"]
    roots = np.nonzero((table["name"] == root_name) & (op != NO_SPAN))[0]
    sums = {}
    if len(op):
        keys, inverse = np.unique(op, return_inverse=True)
        totals = np.bincount(inverse, weights=self_ns)
        sums = {int(k): int(round(t)) for k, t in zip(keys, totals)}
    errors = {}
    for row in roots:
        key = int(op[row])
        duration = int(table["end"][row] - table["start"][row])
        diff = sums.get(key, 0) - duration
        if diff:
            errors[key] = diff
    return errors


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
WRAPPED_MARK = "__perfbench_wrapped__"
#: tally suffix counting calls of a generator function (its spans are steps)
CALLS = "#calls"


def wrap_callable(
    fn: Callable,
    recorder: Recorder,
    name: str,
    count: Optional[Callable] = None,
) -> Callable:
    """Time every call of ``fn`` as a span named ``name``.

    Generator functions get one span per step (``next``) and a call
    tally under ``name + CALLS``; coroutine
    functions one span from call to completion.  ``count(args,
    kwargs, result)`` optionally feeds :meth:`Recorder.tally`.
    """
    nid = recorder.name_id(name)
    begin, finish = recorder.begin, recorder.finish

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            recorder.tally(name + CALLS, 1)
            gen = fn(*args, **kwargs)
            while True:
                frame = begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    finish(frame)
                if count is not None:
                    recorder.tally(name, count(args, kwargs, item))
                yield item

        wrapper = gen_wrapper
    elif inspect.iscoroutinefunction(fn):

        @functools.wraps(fn)
        async def async_wrapper(*args, **kwargs):
            frame = begin(nid)
            try:
                return await fn(*args, **kwargs)
            finally:
                finish(frame)

        wrapper = async_wrapper
    else:

        @functools.wraps(fn)
        def sync_wrapper(*args, **kwargs):
            frame = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(frame)
            if count is not None:
                recorder.tally(name, count(args, kwargs, result))
            return result

        wrapper = sync_wrapper
    setattr(wrapper, WRAPPED_MARK, True)
    return wrapper


class ContextCopyingPool:
    """Executor proxy that runs each task in a copy of the submitter's
    context, so spans opened in a worker find their parent span."""

    def __init__(self, pool) -> None:
        self._pool = pool

    def submit(self, fn, *args, **kwargs):
        ctx = contextvars.copy_context()
        return self._pool.submit(ctx.run, fn, *args, **kwargs)

    def shutdown(self, *args, **kwargs):
        return self._pool.shutdown(*args, **kwargs)
