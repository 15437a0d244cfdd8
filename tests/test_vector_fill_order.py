"""Batched vector fills keep the per-pair call sequence of hook-less metrics.

A metric without the ``pairwise`` batch hook may be order-sensitive
(CAL's shortest-path metric keeps a per-source row cache), so every
:meth:`DistanceVectorSource.fill` call site must make exactly the
``(object, query)`` calls that fetching each vector one at a time in
the same order would.  Each test records the raw metric's calls twice:
once as shipped, once with ``fill`` replaced by a per-id ``vector()``
loop, and also checks the sequence is object-major with the object
first.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest

from repro.anns.mbm import AggregateNNCursor
from repro.core.dominance import DistanceVectorSource, DominanceMatrix
from repro.metric.base import MetricSpace
from repro.metric.counting import CountingMetric
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


def _object_major(calls, queries):
    """The calls one-at-a-time ``vector()`` fetches of their objects
    make, in first-appearance order."""
    objects = list(dict.fromkeys(a for a, _b in calls))
    return objects, [(o, q) for o in objects for q in queries if o != q]


def _record(run, monkeypatch, per_id: bool):
    with monkeypatch.context() as patch:
        if per_id:
            patch.setattr(DistanceVectorSource, "fill", _one_at_a_time)
        space, raw = _space()
        tree = run.build(space)
        raw.calls.clear()
        run.query(space, tree)
        return list(raw.calls)


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


@pytest.mark.parametrize(
    "run", [_Matrix(), _PMTreeSkyline(), _MTreeANN()],
    ids=["dominance-matrix", "b2ms2-pmtree", "mbm"],
)
def test_fill_keeps_per_pair_call_sequence(run, monkeypatch):
    batched = _record(run, monkeypatch, per_id=False)
    reference = _record(run, monkeypatch, per_id=True)
    assert batched, "the run computed no distances"
    assert batched == reference
    _objects, expected = _object_major(batched, QUERIES)
    assert batched == expected


def test_matrix_universe_in_id_order(monkeypatch):
    calls = _record(_Matrix(), monkeypatch, per_id=False)
    objects, _expected = _object_major(calls, QUERIES)
    assert objects == list(range(0, 160, 3)) + [7, 4, 8]


def test_pmtree_pivot_vectors_come_first(monkeypatch):
    run = _PMTreeSkyline()
    calls = _record(run, monkeypatch, per_id=False)
    objects, _expected = _object_major(calls, QUERIES)
    space, _raw = _space()
    pivots = run.build(space).pivot_ids
    assert len(pivots) == 3
    assert objects[: len(pivots)] == pivots
