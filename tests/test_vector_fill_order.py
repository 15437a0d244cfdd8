"""Distance vectors are computed query first, ``d(q, o)``.

A metric without the ``pairwise`` hook may be order-sensitive: CAL's
shortest-path metric answers a call from a cached row of one endpoint,
or starts a new row from the first argument.  Every
:meth:`DistanceVectorSource.fill` call site must therefore make exactly
the calls ``[(q, o) for q in queries for o in missing]`` — query-major,
query first, objects in first-appearance order — and per-id
:meth:`DistanceVectorSource.vector` calls must be ``(q, o)`` too, so
both paths give the same floats.  Each test records the raw metric's
calls; a shortest-path run checks the values and the rows started.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.anns.mbm import AggregateNNCursor
from repro.api import open_engine
from repro.core.dominance import DistanceVectorSource, DominanceMatrix
from repro.datasets.roadnet import road_network
from repro.metric.base import MetricSpace
from repro.metric.counting import CountingMetric
from repro.metric.graph import ShortestPathMetric
from repro.mtree import MTree
from repro.pmtree import PMTree
from repro.skyline.b2ms2 import metric_skyline
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager

QUERIES = [4, 61, 90, 123]


class RecordingL1:
    """L1 over a point table, payloads are ids; records every call.

    Deliberately has no ``pairwise`` hook.
    """

    name = "recording-l1"

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        self.calls = []

    def __call__(self, a: int, b: int) -> float:
        self.calls.append((a, b))
        return float(np.abs(self.points[a] - self.points[b]).sum())


def _space(n: int = 160, seed: int = 3):
    points = np.random.default_rng(seed).random((n, 3))
    raw = RecordingL1(points)
    return MetricSpace(list(range(n)), CountingMetric(raw)), raw


def _one_at_a_time(self, object_ids):
    for object_id in object_ids:
        self.vector(object_id)


def _query_major(objects, queries):
    """The calls a query-first fill of ``objects`` makes (the identity
    pair is short-circuited uncounted)."""
    return [(q, o) for q in queries for o in objects if o != q]


def _record(run, monkeypatch, per_id: bool):
    """Run ``run`` and return ``(calls, fills, vectors)``: the raw
    calls, one ``(missing, calls)`` pair per ``fill`` that computed
    something, and every vector the query's sources cached."""
    fills = []
    sources = []
    original_fill = DistanceVectorSource.fill
    original_init = DistanceVectorSource.__init__

    def recording_fill(self, object_ids):
        object_ids = list(object_ids)
        missing = list(
            dict.fromkeys(o for o in object_ids if not self.known(o))
        )
        start = len(raw.calls)
        original_fill(self, object_ids)
        if missing:
            fills.append((missing, raw.calls[start:]))

    def recording_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        sources.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(
            DistanceVectorSource, "fill",
            _one_at_a_time if per_id else recording_fill,
        )
        patch.setattr(DistanceVectorSource, "__init__", recording_init)
        space, raw = _space()
        tree = run.build(space)
        raw.calls.clear()
        sources.clear()
        run.query(space, tree)
    vectors = {
        (tuple(source.query_ids), obj): vec
        for source in sources
        for obj, vec in source._cache.items()
    }
    return list(raw.calls), fills, vectors


def _objects(calls):
    """The objects whose vectors ``calls`` computed, in call order."""
    return list(dict.fromkeys(o for _q, o in calls))


class _Matrix:
    def build(self, space):
        return None

    def query(self, space, _tree):
        source = DistanceVectorSource(space, QUERIES)
        matrix = DominanceMatrix(source, list(range(0, 160, 3)))
        matrix.deactivate(3)
        matrix.score([7, 4, 8, 7, 150])


class _PMTreeSkyline:
    def build(self, space):
        buf = LRUBuffer(PageManager(), capacity=64)
        return PMTree.build(
            space, buf, node_capacity=8, rng=random.Random(5), num_pivots=3
        )

    def query(self, space, tree):
        source = DistanceVectorSource(space, QUERIES)
        first = metric_skyline(tree, QUERIES, vectors=source)
        # an SBA-style second round with the winner hidden
        metric_skyline(tree, QUERIES, vectors=source, skip={first[0]})


class _MTreeANN:
    def build(self, space):
        buf = LRUBuffer(PageManager(), capacity=64)
        return MTree.build(space, buf, node_capacity=8, rng=random.Random(5))

    def query(self, space, tree):
        cursor = AggregateNNCursor(tree, QUERIES, skip={9, 61, 100})
        list(itertools.islice(cursor, 40))


RUNS = pytest.mark.parametrize(
    "run", [_Matrix(), _PMTreeSkyline(), _MTreeANN()],
    ids=["dominance-matrix", "b2ms2-pmtree", "mbm"],
)


@RUNS
def test_fill_calls_are_query_major_query_first(run, monkeypatch):
    calls, fills, _vectors = _record(run, monkeypatch, per_id=False)
    assert fills, "the run filled no vectors"
    assert any(len(missing) > 1 for missing, _calls in fills)
    for missing, fill_calls in fills:
        assert fill_calls == _query_major(missing, QUERIES)
    # every other call is a per-id vector() miss, also query first
    assert all(q in QUERIES for q, _o in calls)


@RUNS
def test_vector_calls_are_query_first(run, monkeypatch):
    calls, _fills, _vectors = _record(run, monkeypatch, per_id=True)
    assert calls, "the run computed no distances"
    # one vector() miss after another: its m calls, query first
    assert calls == [
        call for o in _objects(calls) for call in _query_major([o], QUERIES)
    ]


@RUNS
def test_fill_vectors_equal_per_id_vectors(run, monkeypatch):
    _calls, _fills, batched = _record(run, monkeypatch, per_id=False)
    _calls, _fills, per_id = _record(run, monkeypatch, per_id=True)
    assert batched
    assert batched.keys() == per_id.keys()
    for obj, vec in batched.items():
        assert np.array_equal(
            np.array(vec).view(np.int64), np.array(per_id[obj]).view(np.int64)
        )


def test_matrix_universe_in_id_order(monkeypatch):
    _calls, fills, _vectors = _record(_Matrix(), monkeypatch, per_id=False)
    assert [missing for missing, _calls in fills] == [
        list(range(0, 160, 3)), [7, 4, 8],
    ]


def test_pmtree_pivot_vectors_come_first(monkeypatch):
    run = _PMTreeSkyline()
    calls, _fills, _vectors = _record(run, monkeypatch, per_id=False)
    space, _raw = _space()
    pivots = run.build(space).pivot_ids
    assert len(pivots) == 3
    expected = [call for p in pivots for call in _query_major([p], QUERIES)]
    assert calls[: len(expected)] == expected


# ----------------------------------------------------------------------
# CAL: query-first vectors come from the m query objects' rows
# ----------------------------------------------------------------------
N = 150
CAL_QUERIES = [7, 64, 131]


def _cal(cache_sources=16):
    _space_, graph = road_network(n=N, seed=4)
    metric = ShortestPathMetric(graph, cache_sources=cache_sources)
    return MetricSpace(list(range(N)), CountingMetric(metric)), metric


def test_cal_vectors_take_the_query_rows_values():
    # without a row cache each call runs from its first argument, so a
    # value is the query row's exactly when the call is query first
    space, metric = _cal(cache_sources=0)
    source = DistanceVectorSource(space, CAL_QUERIES)
    source.fill(range(N))
    per_id = DistanceVectorSource(space, CAL_QUERIES)
    flipped = 0
    for o in range(N):
        expected = tuple(metric(q, o) for q in CAL_QUERIES)
        assert source.vector(o) == expected
        assert per_id.vector(o) == expected
        flipped += expected != tuple(metric(o, q) for q in CAL_QUERIES)
    assert flipped, "no pair's value depends on the orientation"


def test_cal_matrix_starts_at_most_m_rows():
    space, metric = _cal()
    before = metric.dijkstra_runs
    DominanceMatrix(DistanceVectorSource(space, CAL_QUERIES), list(range(N)))
    assert metric.dijkstra_runs - before <= len(CAL_QUERIES)


@pytest.mark.parametrize("index", ["mtree", "pmtree"])
def test_cal_sba_starts_at_most_m_rows(index):
    _space_, graph = road_network(n=N, seed=4)
    metric = ShortestPathMetric(graph, cache_sources=16)
    engine = open_engine(
        MetricSpace(list(range(N)), metric), seed=4, index=index
    )
    before = metric.dijkstra_runs
    results, _stats = engine.top_k_dominating(CAL_QUERIES, 5, "sba")
    assert len(results) == 5
    # the skyline rounds fill through the same query rows
    assert metric.dijkstra_runs - before <= len(CAL_QUERIES)
