"""Shortest-path metrics on weighted graphs.

The paper's CALIFORNIA data set is a road network whose distance
function is the shortest-path length between nodes.  Shortest-path
distance on an undirected, non-negatively weighted graph is a metric
(symmetry from undirectedness, triangle inequality because paths
compose).

:class:`Graph` is a minimal adjacency-list graph; :func:`dijkstra`
computes single-source distances; :class:`ShortestPathMetric` wraps the
two as a :class:`~repro.metric.base.Metric` whose payloads are node
ids.  Because one metric evaluation runs (bounded) Dijkstra, this
metric is *expensive* — exactly the regime where the paper argues that
the number of distance computations dominates total cost (Table 2, CAL
rows).

Both run one Dijkstra loop, :meth:`_Row.settle`, over a flat adjacency
snapshot (per-node ``(neighbor, weight)`` tuples in insertion order,
rebuilt after each mutation of the graph).  A :class:`_Row` is a
resumable single-source search: it settles nodes only until the one a
caller asks for is settled, and a later lookup resumes where the last
one stopped.  A node's settled distance does not depend on where a run
stops, so every value is bit-identical to a full run from the same
source.  A value can differ in its last bits between the two endpoints'
rows, so callers keep one orientation: distance vectors query first.
"""

from __future__ import annotations

import heapq
import threading
from collections import OrderedDict
from typing import Dict, Iterator, List, Optional, Tuple

_INF = float("inf")

#: per node, its ``(neighbor, weight)`` pairs in insertion order
Adjacency = Tuple[Tuple[Tuple[int, float], ...], ...]


class Graph:
    """An undirected graph with non-negative edge weights.

    Nodes are integers.  Parallel edges keep the smaller weight; self
    loops are ignored (they never shorten a path).  ``version`` counts
    the mutations that changed the graph; shortest-path rows computed
    at an older version are stale.
    """

    def __init__(self, num_nodes: int = 0) -> None:
        if num_nodes < 0:
            raise ValueError("num_nodes must be >= 0")
        self._adj: List[Dict[int, float]] = [{} for _ in range(num_nodes)]
        self.version = 0
        self._snapshot: Optional[Adjacency] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self) -> int:
        """Append a node and return its id."""
        self._adj.append({})
        self._mutated()
        return len(self._adj) - 1

    def add_edge(self, u: int, v: int, weight: float = 1.0) -> None:
        """Add an undirected edge (keeping the minimum weight)."""
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        if u == v:
            return
        self._check(u)
        self._check(v)
        current = self._adj[u].get(v)
        if current is None or weight < current:
            self._adj[u][v] = weight
            self._adj[v][u] = weight
            self._mutated()

    def _mutated(self) -> None:
        self.version += 1
        self._snapshot = None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj) // 2

    def neighbors(self, u: int) -> Iterator[Tuple[int, float]]:
        """Iterate ``(neighbor, weight)`` pairs of node ``u``."""
        self._check(u)
        return iter(self._adj[u].items())

    def degree(self, u: int) -> int:
        self._check(u)
        return len(self._adj[u])

    def average_degree(self) -> float:
        if not self._adj:
            return 0.0
        return 2.0 * self.num_edges / self.num_nodes

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate each undirected edge once as ``(u, v, weight)``."""
        for u, nbrs in enumerate(self._adj):
            for v, w in nbrs.items():
                if u < v:
                    yield (u, v, w)

    def _adjacency(self) -> Adjacency:
        """The adjacency snapshot of the current version."""
        if self._snapshot is None:
            self._snapshot = tuple(tuple(nbrs.items()) for nbrs in self._adj)
        return self._snapshot

    def _check(self, u: int) -> None:
        if not (0 <= u < len(self._adj)):
            raise IndexError(f"node {u} out of range")


class _Row:
    """A resumable single-source Dijkstra search.

    ``settled[v]`` is ``v``'s distance from the source once ``v`` is
    settled and ``None`` before; ``dist`` holds the tentative distances
    and ``heap`` the ``(distance, node)`` frontier.
    """

    __slots__ = ("settled", "dist", "heap")

    def __init__(self, adj: Adjacency, source: int) -> None:
        if not (0 <= source < len(adj)):
            raise IndexError(f"node {source} out of range")
        dist = [_INF] * len(adj)
        dist[source] = 0.0
        self.settled: List[Optional[float]] = [None] * len(adj)
        self.dist: Optional[List[float]] = dist
        self.heap = [(0.0, source)]

    def settle(self, adj: Adjacency, stop: Optional[int], limit: float = _INF) -> int:
        """Settle nodes in distance order until ``stop`` is settled, the
        next node lies beyond ``limit`` or the heap runs empty; return
        how many nodes were settled.

        Pushes happen only on a strict improvement and nodes pop in
        non-decreasing distance order, so an entry above its node's
        tentative distance is stale, and relaxing an edge into a settled
        node never improves it: neither needs a settled test.
        """
        settled = self.settled
        dist = self.dist
        heap = self.heap
        pop = heapq.heappop
        push = heapq.heappush
        count = 0
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            if d > limit:
                push(heap, (d, u))
                break
            settled[u] = d
            count += 1
            for v, w in adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    push(heap, (nd, v))
            if u == stop:
                break
        if not heap:
            self.dist = None  # complete: only the settled list is needed
        return count


def dijkstra(
    graph: Graph,
    source: int,
    target: Optional[int] = None,
    cutoff: Optional[float] = None,
) -> Dict[int, float]:
    """Single-source shortest-path distances.

    With ``target`` set, the search stops as soon as the target is
    settled (returning a partial distance map that is exact for every
    settled node).  ``cutoff`` bounds the explored radius: only nodes
    within it are settled (the source always is).
    """
    adj = graph._adjacency()
    row = _Row(adj, source)
    if cutoff is not None and cutoff < 0:
        return {source: 0.0}
    row.settle(adj, target, _INF if cutoff is None else cutoff)
    return {u: d for u, d in enumerate(row.settled) if d is not None}


class ShortestPathMetric:
    """Shortest-path distance between graph nodes as a metric.

    Payloads are node ids (``IndexError`` for an id outside the
    graph).  A call ``d(a, b)`` is answered from a
    resumable Dijkstra row: ``a``'s row if it is cached (it becomes the
    most recently used), else ``b``'s row if that is cached, else a new
    row from ``a``, which evicts the least recently used one when more
    than ``cache_sources`` rows are cached.  A row settles nodes only
    as far as its lookups need, so repeated evaluations from one source
    — the common pattern in our algorithms, where each of the ``m``
    query objects issues a long stream of distance evaluations — share
    one search.  Set ``cache_sources=0`` to disable caching (every call
    runs a fresh early-terminating Dijkstra), which the benchmarks use
    to model a truly expensive metric.  A mutation of the graph drops
    every row.

    Unreachable node pairs get ``disconnected_distance`` (default: a
    large finite sentinel so dominance comparisons stay well-defined).

    Counters: ``dijkstra_runs`` counts rows started (cache misses);
    ``nodes_settled`` counts the nodes those rows settled, the work
    done.
    """

    def __init__(
        self,
        graph: Graph,
        cache_sources: int = 64,
        disconnected_distance: float = float("inf"),
    ) -> None:
        self.graph = graph
        self.cache_sources = cache_sources
        self.disconnected_distance = disconnected_distance
        self.name = "shortest-path"
        self._cache: "OrderedDict[int, _Row]" = OrderedDict()
        self._version = graph.version
        # concurrent queries share the metric: starting and extending
        # rows must not interleave
        self._lock = threading.Lock()
        #: number of Dijkstra rows started (cache misses).
        self.dijkstra_runs = 0
        #: number of nodes settled by all rows.
        self.nodes_settled = 0

    def __call__(self, a: int, b: int) -> float:
        if a == b:
            return 0.0
        if self._version != self.graph.version:
            self.clear_cache()
        cache = self._cache
        row = cache.get(a)
        if row is None:
            row = cache.get(b)
            if row is None:
                row = self._new_row(a)
            else:
                # symmetric: reuse the cached row of the other endpoint.
                a, b = b, a
        else:
            cache.move_to_end(a)
        if b < 0:
            raise IndexError(f"node {b} out of range")
        value = row.settled[b]
        if value is None:
            return self._extend(row, b)
        return value

    def _new_row(self, source: int) -> _Row:
        with self._lock:
            row = self._cache.get(source)  # another thread may have won
            if row is None:
                row = _Row(self.graph._adjacency(), source)
                self.dijkstra_runs += 1
                if self.cache_sources > 0:
                    self._cache[source] = row
                    if len(self._cache) > self.cache_sources:
                        self._cache.popitem(last=False)
        return row

    def _extend(self, row: _Row, target: int) -> float:
        with self._lock:
            if row.settled[target] is None:
                self.nodes_settled += row.settle(self.graph._adjacency(), target)
        value = row.settled[target]
        return self.disconnected_distance if value is None else value

    def clear_cache(self) -> None:
        """Drop all cached distance rows."""
        self._cache.clear()
        self._version = self.graph.version

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShortestPathMetric(nodes={self.graph.num_nodes}, "
            f"edges={self.graph.num_edges})"
        )
