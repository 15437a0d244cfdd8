"""MBM sum-aggregate nearest-neighbor search over the M-tree.

The Minimum Bounding Method (Papadias, Tao, Mouratidis, Hui — TODS
2005) answers aggregate NN queries by best-first index traversal using
a per-node lower bound of the aggregate distance.  The original works
on R-tree rectangles (``amindist``); the paper adapts it to M-tree
nodes, where for a node with router ``r`` and covering radius ``rad``

    ``amindist(node, Q) = sum_j max(0, d(qj, r) - rad)``

lower-bounds ``adist(o, Q)`` for every object ``o`` in the subtree.
The cursor yields objects in non-decreasing ``adist`` order, so
``ANN(Q, h)`` for any ``h`` is a prefix of the stream — the incremental
behaviour ABA needs.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.core.dominance import DistanceVectorSource
from repro.metric.safety import safe_lower_bound
from repro.mtree.node import MTreeNode, RoutingEntry
from repro.mtree.tree import MTree

_KIND_OBJECT = 0
_KIND_NODE = 1


class AggregateNNCursor:
    """Best-first incremental sum-aggregate NN cursor.

    Yields ``(object_id, adist)`` pairs in non-decreasing aggregate
    distance.  ``skip`` hides objects (ABA's removed results);
    ``vectors`` shares the distance-vector cache so coordinates
    computed here are reused by the dominance tests that follow.
    """

    def __init__(
        self,
        tree: MTree,
        query_ids: Sequence[int],
        vectors: Optional[DistanceVectorSource] = None,
        skip: Optional[Set[int]] = None,
    ) -> None:
        self.tree = tree
        self.query_ids = list(query_ids)
        self.vectors = vectors or DistanceVectorSource(
            tree.space, query_ids
        )
        self.skip = skip if skip is not None else set()
        self._counter = itertools.count()
        self._heap: List[tuple] = []
        self._push_node(tree.root_page_id)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return self

    def __next__(self) -> Tuple[int, float]:
        heap = self._heap
        while heap:
            key, kind, _tie, ident = heapq.heappop(heap)
            if kind == _KIND_OBJECT:
                if ident in self.skip:
                    continue
                return ident, key
            self._push_node(ident)
        raise StopIteration

    def _push_node(self, page_id: int) -> None:
        node: MTreeNode = self.tree.buffer.get(page_id).payload
        entries = [
            entry
            for entry in node.entries
            if isinstance(entry, RoutingEntry)
            or entry.object_id not in self.skip
        ]
        self.vectors.fill([entry.object_id for entry in entries])
        for entry in entries:
            vec = self.vectors.vector(entry.object_id)
            if isinstance(entry, RoutingEntry):
                amindist = sum(
                    safe_lower_bound(d - entry.covering_radius)
                    for d in vec
                )
                heapq.heappush(
                    self._heap,
                    (amindist, _KIND_NODE, next(self._counter),
                     entry.child_page_id),
                )
            else:
                heapq.heappush(
                    self._heap,
                    (sum(vec), _KIND_OBJECT, next(self._counter),
                     entry.object_id),
                )


def aggregate_nearest_neighbors(
    tree: MTree,
    query_ids: Sequence[int],
    h: int,
    vectors: Optional[DistanceVectorSource] = None,
    skip: Optional[Set[int]] = None,
) -> List[Tuple[int, float]]:
    """``ANN(Q, h)``: the ``h`` objects of minimum sum-aggregate
    distance, with their distances."""
    if h < 0:
        raise ValueError("h must be >= 0")
    cursor = AggregateNNCursor(tree, query_ids, vectors=vectors, skip=skip)
    return list(itertools.islice(cursor, h))
