"""Dominance over dynamic distance vectors.

Definitions 3 and 4 of the paper: with query set ``Q = {q1..qm}``, the
*distance vector* of object ``p`` is ``(d(p,q1), ..., d(p,qm))``;
``p`` dominates ``r`` iff ``p``'s vector is coordinate-wise <= ``r``'s
with at least one strict coordinate; two objects are *equivalent* when
their vectors are identical.  ``dom(p)`` counts the objects ``p``
dominates.

The :class:`DistanceVectorSource` caches distance vectors per object so
each algorithm pays for a vector at most once per query execution —
mirroring how the C++ implementations memoize query-object distances in
the ``AuxB+``-tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, overload

import numpy as np

from repro.metric.base import MetricSpace


def dominates_vectors(
    a: Sequence[float],
    b: Sequence[float],
) -> bool:
    """True iff distance vector ``a`` dominates ``b`` (Definition 3).

    ``<=`` on every coordinate and ``<`` on at least one, so a NaN
    coordinate (comparing false both ways) never yields dominance —
    the same answer as the vectorized tests in :class:`DominatorSet`
    and :class:`DominanceMatrix`.
    """
    strict = False
    for da, db in zip(a, b):
        if not da <= db:
            return False
        if da < db:
            strict = True
    return strict


def equivalent_vectors(a: Sequence[float], b: Sequence[float]) -> bool:
    """True iff the two vectors are identical (Definition 4)."""
    return all(da == db for da, db in zip(a, b))


class DistanceVectorSource:
    """Caches each object's distance vector with respect to ``Q``.

    Parameters
    ----------
    space:
        The metric space (its metric is typically a
        :class:`~repro.metric.counting.CountingMetric`, so the first
        computation of every coordinate is counted, and repeats are
        free).
    query_ids:
        The ids of the query objects ``q1..qm``.
    """

    def __init__(self, space: MetricSpace, query_ids: Sequence[int]) -> None:
        self.space = space
        self.query_ids = list(query_ids)
        self._cache: Dict[int, Tuple[float, ...]] = {}

    @property
    def m(self) -> int:
        return len(self.query_ids)

    def vector(self, object_id: int) -> Tuple[float, ...]:
        """The (cached) distance vector of one object.

        A cache miss evaluates the ``m`` coordinates ``d(q, object)``
        per pair, query first as in :meth:`fill`: one
        object's batch is only ``m`` wide (2-8 in every paper
        workload), too narrow to amortise the batched kernel's dispatch
        cost.  Callers that need many vectors at once call
        :meth:`fill` first.
        """
        vec = self._cache.get(object_id)
        if vec is None:
            vec = tuple(
                self.space.distance(q, object_id) for q in self.query_ids
            )
            self._cache[object_id] = vec
        return vec

    def fill(self, object_ids: Iterable[int]) -> None:
        """Compute every missing vector among ``object_ids`` in one batch.

        Through :meth:`MetricSpace.distance_rows`: one ``pairwise``
        batch per query object over the missing ids in first-appearance
        order, each call ``d(q, object)`` as in :meth:`vector`, so a
        shortest-path metric answers from the ``m`` query rows instead
        of starting a row per object.  Cached and repeated ids cost
        nothing, so distances, counts and the cache match per-id
        :meth:`vector` calls bit for bit.
        """
        cache = self._cache
        missing = list(
            dict.fromkeys(obj for obj in object_ids if obj not in cache)
        )
        if not missing:
            return
        rows = self.space.distance_rows(missing, self.query_ids)
        for obj, row in zip(missing, rows):
            cache[obj] = tuple(row)

    def put(self, object_id: int, vector: Tuple[float, ...]) -> None:
        """Install a vector computed elsewhere (e.g. by a NN cursor)."""
        self._cache[object_id] = vector

    def known(self, object_id: int) -> bool:
        """True if the vector is already cached (no computation needed)."""
        return object_id in self._cache

    def dominates(self, a: int, b: int) -> bool:
        """True iff object ``a`` dominates object ``b``."""
        if a == b:
            return False
        return dominates_vectors(self.vector(a), self.vector(b))

    def equivalent(self, a: int, b: int) -> bool:
        """True iff objects ``a`` and ``b`` are equivalent w.r.t. Q."""
        if a == b:
            return True
        return equivalent_vectors(self.vector(a), self.vector(b))

    def aggregate_distance(self, object_id: int) -> float:
        """Sum-aggregate distance ``adist(p, Q)`` (Definition 2)."""
        return sum(self.vector(object_id))

    def domination_score(
        self, object_id: int, universe: Iterable[int]
    ) -> int:
        """``dom(object_id)`` over the given universe of ids."""
        vec = self.vector(object_id)
        score = 0
        for other in universe:
            if other == object_id:
                continue
            if dominates_vectors(vec, self.vector(other)):
                score += 1
        return score


class DominatorSet:
    """A grow-only set of dominator vectors with a vectorized test.

    PBA's discard heuristics and the skyline cursor repeatedly ask
    "does *any* already-collected vector dominate this one?" against a
    set that only ever grows.  Most answers are yes, and the row that
    answered last usually answers the next one too (the skyline's
    first point decides most of them), so :meth:`dominates` first
    probes that row with the scalar predicate.  Otherwise, while the
    set is small, the scan runs as a plain Python loop (numpy's fixed
    per-call overhead dwarfs a handful of tuple comparisons); past
    ``_VECTORIZE_FROM`` rows the vectors are packed into a contiguous
    row matrix and the scan becomes three numpy comparisons.  Every
    path implements Definition 3 per row (``<=`` everywhere, ``<``
    somewhere), so a NaN coordinate never yields dominance on any of
    them.

    Rows are stored in an amortised-doubling buffer so ``add`` is O(m).
    """

    #: below this many rows a scalar scan beats numpy's call overhead
    #: (the break-even sits around a few dozen rows for m <= 8).
    _VECTORIZE_FROM = 32

    def __init__(self, m: int) -> None:
        self.m = m
        self._vectors: List[Tuple[float, ...]] = []
        self._rows: Optional[np.ndarray] = None
        #: the row that last dominated a probe (probed first next time)
        self._last: Optional[Tuple[float, ...]] = None

    def __len__(self) -> int:
        return len(self._vectors)

    def add(self, vector: Sequence[float]) -> None:
        """Insert one dominator vector."""
        count = len(self._vectors)
        self._vectors.append(tuple(vector))
        if self._rows is None:
            if count + 1 >= self._VECTORIZE_FROM:
                self._rows = np.empty(
                    (2 * (count + 1), self.m), dtype=float
                )
                self._rows[: count + 1] = self._vectors
            return
        if count == len(self._rows):
            grown = np.empty((2 * len(self._rows), self.m), dtype=float)
            grown[:count] = self._rows
            self._rows = grown
        self._rows[count] = vector

    def dominates(self, vector: Sequence[float]) -> bool:
        """True iff any stored vector dominates ``vector``.

        Equivalent to ``any(dominates_vectors(s, vector) for s in set)``
        (Definition 3 per row).  The last dominating row is tried
        first; only when it fails does the full scan run, scalar or
        vectorized, recording the row it finds.
        """
        last = self._last
        if last is not None and dominates_vectors(last, vector):
            return True
        if self._rows is None:
            for row in self._vectors:
                if dominates_vectors(row, vector):
                    self._last = row
                    return True
            return False
        count = len(self._vectors)
        rows = self._rows[:count]
        vec = np.asarray(vector, dtype=float)
        hits = (rows <= vec).all(axis=1)
        hits &= (rows < vec).any(axis=1)
        first = int(hits.argmax())
        if not hits[first]:
            return False
        self._last = self._vectors[first]
        return True

    def vectors(self) -> List[Tuple[float, ...]]:
        """The stored vectors, in insertion order (for introspection)."""
        return list(self._vectors)


class DominanceMatrix:
    """Vectorized domination-score evaluation over a fixed universe.

    SBA and ABA score candidates against the *whole* data set, round
    after round (Algorithm 1 lines 5-9, Algorithm 2 lines 10-17).  The
    semantics are plain pairwise comparisons; this helper evaluates
    them as numpy array operations over the universe's distance-vector
    matrix, which keeps the pure-Python reproduction tractable at
    benchmark cardinalities without changing any count the paper
    reports (distance computations happen in the
    :class:`DistanceVectorSource` exactly as before).

    The universe is stored column-major (one row of ``n`` distances per
    query object), so a whole round's candidates are scored in one
    pass: ``m`` column comparisons build a candidates x ``n`` mask,
    in blocks of at most ``_BLOCK_CELLS`` cells to bound memory.

    Rows for removed objects can be masked out; scores over the masked
    universe equal scores over the full one for the paper's algorithms
    (reported objects are never dominated, see DESIGN.md).
    """

    #: mask cells per scoring block (bool, so bytes per temporary).
    _BLOCK_CELLS = 1 << 20

    def __init__(
        self,
        source: DistanceVectorSource,
        universe: Sequence[int],
    ) -> None:
        self.source = source
        self.ids = list(universe)
        self._row_of = {obj: i for i, obj in enumerate(self.ids)}
        source.fill(self.ids)
        rows = np.array(
            [source.vector(obj) for obj in self.ids], dtype=float
        ).reshape(len(self.ids), source.m)
        self._cols = np.ascontiguousarray(rows.T)
        self._active = np.ones(len(self.ids), dtype=bool)

    def deactivate(self, object_id: int) -> None:
        """Mask an object out of the universe (after it is reported)."""
        self._active[self._row_of[object_id]] = False

    @overload
    def score(self, object_ids: int) -> int: ...

    @overload
    def score(self, object_ids: Sequence[int]) -> np.ndarray: ...

    def score(self, object_ids):
        """``dom(p)`` over the active universe.

        Given one id, returns its score; given a sequence of ids,
        returns their scores as an integer array in the same order.
        Vectors are fetched from the source in that order.  Ids outside
        the universe are scored against it like any other.
        """
        if isinstance(object_ids, (int, np.integer)):
            return int(self.score([object_ids])[0])
        ids = list(object_ids)
        scores = np.zeros(len(ids), dtype=np.int64)
        self.source.fill(ids)
        vectors = np.array(
            [self.source.vector(obj) for obj in ids], dtype=float
        ).reshape(len(ids), self.source.m)
        cols = self._cols
        m, n = cols.shape
        if m == 0 or n == 0 or not ids:
            return scores
        own = np.array([self._row_of.get(obj, -1) for obj in ids])
        step = max(1, self._BLOCK_CELLS // n)
        for lo in range(0, len(ids), step):
            block = vectors[lo:lo + step].T[:, :, None]
            le = block[0] <= cols[0]
            lt = block[0] < cols[0]
            for j in range(1, m):
                le &= block[j] <= cols[j]
                lt |= block[j] < cols[j]
            le &= lt
            le &= self._active
            rows = own[lo:lo + step]
            inside = np.flatnonzero(rows >= 0)
            le[inside, rows[inside]] = False
            scores[lo:lo + step] = np.count_nonzero(le, axis=1)
        return scores


# ----------------------------------------------------------------------
# free-function conveniences over a space + query set
# ----------------------------------------------------------------------
def dominates(
    space: MetricSpace,
    query_ids: Sequence[int],
    a: int,
    b: int,
) -> bool:
    """One-shot dominance test ``a ≺ b`` (computes both vectors)."""
    return DistanceVectorSource(space, query_ids).dominates(a, b)


def equivalent(
    space: MetricSpace,
    query_ids: Sequence[int],
    a: int,
    b: int,
) -> bool:
    """One-shot equivalence test (computes both vectors)."""
    return DistanceVectorSource(space, query_ids).equivalent(a, b)


def domination_score(
    space: MetricSpace,
    query_ids: Sequence[int],
    object_id: int,
    universe: Iterable[int] | None = None,
) -> int:
    """One-shot ``dom(p)`` over ``universe`` (default: the whole space)."""
    source = DistanceVectorSource(space, query_ids)
    ids = universe if universe is not None else space.object_ids
    return source.domination_score(object_id, ids)
