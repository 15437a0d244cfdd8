"""Resumable rows answer an engine's query stream exactly as full rows did.

CAL's shortest-path metric returns a distance from whichever cached row
the call finds, so the row cache's decisions fix the last bits of every
value.  Each test runs an engine over a seeded road network twice: once
with :class:`ShortestPathMetric` as shipped, once with a subclass that
answers from full dict rows of the reference Dijkstra.  The recorded
``(a, b, value)`` sequences and the ``dijkstra_runs`` counts must be
equal.
"""

from __future__ import annotations

import pytest

from repro.api import open_engine
from repro.datasets.roadnet import road_network
from repro.metric.base import MetricSpace
from repro.metric.graph import ShortestPathMetric
from tests.test_metric_graph import ReferenceShortestPathMetric

N = 150
QUERIES = [7, 64, 131]
ALGORITHMS = ("sba", "aba", "pba1", "pba2")


class _Recording:
    def __init__(self, graph, cache_sources):
        super().__init__(graph, cache_sources=cache_sources)
        self.calls = []

    def __call__(self, a, b):
        value = super().__call__(a, b)
        self.calls.append((a, b, value))
        return value


class RecordingMetric(_Recording, ShortestPathMetric):
    pass


class RecordingReference(_Recording, ReferenceShortestPathMetric):
    pass


def _run(metric_cls, index, algorithm):
    _space, graph = road_network(n=N, seed=4)
    # a cache far smaller than the working set: eviction and symmetric
    # reuse both shape the sequence
    metric = metric_cls(graph, cache_sources=16)
    space = MetricSpace(list(range(N)), metric, name="CAL")
    engine = open_engine(space, seed=4, index=index)
    results, _stats = engine.top_k_dominating(QUERIES, 5, algorithm)
    return metric, [(r.object_id, r.score) for r in results]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("index", ["mtree", "pmtree"])
def test_call_sequence_matches_full_rows(index, algorithm):
    metric, answer = _run(RecordingMetric, index, algorithm)
    reference, expected = _run(RecordingReference, index, algorithm)
    assert len(metric.calls) > N  # set-up and the query both ran
    assert metric.calls == reference.calls
    assert metric.dijkstra_runs == reference.dijkstra_runs
    assert answer == expected
