"""Unit tests for the graph and shortest-path metric."""

import heapq
import pickle
import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metric.graph import Graph, ShortestPathMetric, dijkstra


def reference_dijkstra(graph, source, target=None, cutoff=None):
    """Dict-based Dijkstra over ``Graph.neighbors``: the oracle the
    list-based resumable kernel must match bit for bit."""
    dist = {source: 0.0}
    settled = {}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled[u] = d
        if target is not None and u == target:
            break
        for v, w in graph.neighbors(u):
            if v in settled:
                continue
            nd = d + w
            if cutoff is not None and nd > cutoff:
                continue
            if nd < dist.get(v, float("inf")):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return settled


class ReferenceShortestPathMetric(ShortestPathMetric):
    """The row cache's decisions on full ``reference_dijkstra`` rows:
    row ``a`` (refreshed), else row ``b`` (not refreshed), else a new
    row from ``a`` with LRU eviction."""

    def __init__(self, graph, cache_sources=64, disconnected=float("inf")):
        super().__init__(graph, cache_sources, disconnected)
        self._rows = OrderedDict()

    def __call__(self, a, b):
        if a == b:
            return 0.0
        if self.cache_sources <= 0:
            self.dijkstra_runs += 1
            settled = reference_dijkstra(self.graph, a, target=b)
            return settled.get(b, self.disconnected_distance)
        row = self._rows.get(a)
        if row is None:
            row = self._rows.get(b)
            if row is not None:
                return row.get(a, self.disconnected_distance)
            self.dijkstra_runs += 1
            row = reference_dijkstra(self.graph, a)
            self._rows[a] = row
            if len(self._rows) > self.cache_sources:
                self._rows.popitem(last=False)
        else:
            self._rows.move_to_end(a)
        return row.get(b, self.disconnected_distance)


def path_graph(n=5, weight=1.0):
    g = Graph(n)
    for i in range(n - 1):
        g.add_edge(i, i + 1, weight)
    return g


class TestGraph:
    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0

    def test_add_node(self):
        g = Graph(2)
        node = g.add_node()
        assert node == 2
        assert g.num_nodes == 3

    def test_add_edge_symmetric(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.5)
        assert dict(g.neighbors(0)) == {1: 2.5}
        assert dict(g.neighbors(1)) == {0: 2.5}
        assert g.num_edges == 1

    def test_parallel_edge_keeps_minimum(self):
        g = Graph(2)
        g.add_edge(0, 1, 5.0)
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 1, 9.0)
        assert dict(g.neighbors(0)) == {1: 2.0}
        assert g.num_edges == 1

    def test_self_loop_ignored(self):
        g = Graph(2)
        g.add_edge(1, 1, 3.0)
        assert g.num_edges == 0

    def test_negative_weight_rejected(self):
        g = Graph(2)
        with pytest.raises(ValueError):
            g.add_edge(0, 1, -1.0)

    def test_out_of_range_rejected(self):
        g = Graph(2)
        with pytest.raises(IndexError):
            g.add_edge(0, 5)

    def test_degree_and_average(self):
        g = path_graph(4)
        assert g.degree(0) == 1
        assert g.degree(1) == 2
        assert g.average_degree() == pytest.approx(2 * 3 / 4)

    def test_edges_iterated_once(self):
        g = path_graph(4)
        edges = list(g.edges())
        assert len(edges) == 3
        assert all(u < v for u, v, _ in edges)


class TestDijkstra:
    def test_path_distances(self):
        g = path_graph(5, weight=2.0)
        dist = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 2.0, 2: 4.0, 3: 6.0, 4: 8.0}

    def test_early_termination_is_exact(self):
        g = path_graph(10)
        dist = dijkstra(g, 0, target=3)
        assert dist[3] == pytest.approx(3.0)

    def test_shortcut_wins(self):
        g = path_graph(4)
        g.add_edge(0, 3, 0.5)
        assert dijkstra(g, 0)[3] == pytest.approx(0.5)

    def test_cutoff_limits_exploration(self):
        g = path_graph(10)
        dist = dijkstra(g, 0, cutoff=3.0)
        assert 9 not in dist
        assert dist[3] == pytest.approx(3.0)

    def test_disconnected_component_absent(self):
        g = Graph(4)
        g.add_edge(0, 1, 1.0)
        dist = dijkstra(g, 0)
        assert 3 not in dist


class TestShortestPathMetric:
    def test_basic_distance(self):
        metric = ShortestPathMetric(path_graph(5))
        assert metric(0, 4) == pytest.approx(4.0)
        assert metric(2, 2) == 0.0

    def test_symmetry(self):
        g = path_graph(6)
        g.add_edge(1, 4, 0.7)
        metric = ShortestPathMetric(g)
        assert metric(0, 5) == pytest.approx(metric(5, 0))

    def test_triangle_inequality_sampled(self):
        g = path_graph(8)
        g.add_edge(0, 5, 1.2)
        metric = ShortestPathMetric(g)
        for a in range(8):
            for b in range(8):
                for c in range(8):
                    assert metric(a, b) <= metric(a, c) + metric(c, b) + 1e-9

    def test_disconnected_sentinel(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        metric = ShortestPathMetric(g, disconnected_distance=999.0)
        assert metric(0, 2) == 999.0

    @pytest.mark.parametrize("a, b", [(0, -1), (-1, 0), (0, 5), (5, 0)])
    def test_node_out_of_range_rejected(self, a, b):
        metric = ShortestPathMetric(path_graph(5))
        metric(0, 4)  # row 0 cached: the symmetric path sees b as well
        with pytest.raises(IndexError):
            metric(a, b)

    def test_cache_reduces_dijkstra_runs(self):
        metric = ShortestPathMetric(path_graph(50), cache_sources=4)
        for target in range(1, 20):
            metric(0, target)
        assert metric.dijkstra_runs == 1

    def test_cache_symmetric_reuse(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=4)
        metric(3, 7)
        runs = metric.dijkstra_runs
        metric(9, 3)  # 3's row is cached; reused via symmetry
        assert metric.dijkstra_runs == runs

    def test_cache_disabled_runs_every_time(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=0)
        metric(0, 5)
        metric(0, 6)
        assert metric.dijkstra_runs == 2

    def test_clear_cache(self):
        metric = ShortestPathMetric(path_graph(20), cache_sources=4)
        metric(0, 5)
        metric.clear_cache()
        metric(0, 6)
        assert metric.dijkstra_runs == 2

    def test_nodes_settled_counts_row_extensions(self):
        metric = ShortestPathMetric(path_graph(10), cache_sources=4)
        metric(0, 3)
        assert metric.nodes_settled == 4  # 0, 1, 2, 3
        metric(2, 0)  # row 0 already holds node 2: no work
        metric(0, 1)
        assert metric.nodes_settled == 4
        metric(0, 5)  # resumes row 0: settles 4 and 5
        assert metric.nodes_settled == 6
        assert metric.dijkstra_runs == 1

    def test_pickle_keeps_partial_rows(self):
        g = path_graph(8)
        g.add_edge(1, 6, 0.3)
        metric = ShortestPathMetric(g, cache_sources=2)
        metric(0, 2)
        restored = pickle.loads(pickle.dumps(metric, protocol=4))
        assert [restored(0, b) for b in range(8)] == [
            metric(0, b) for b in range(8)
        ]
        assert restored.dijkstra_runs == metric.dijkstra_runs == 1

    def test_concurrent_callers_get_exact_values(self):
        g = Graph(400)
        for u in range(399):
            g.add_edge(u, u + 1, 1.0 + (u % 7) * 0.1)
        for u in range(0, 380, 13):
            g.add_edge(u, u + 17, 0.9)
        expected = reference_dijkstra(g, 0)
        metric = ShortestPathMetric(g, cache_sources=4)
        errors = []

        def worker(targets):
            for b in targets:
                if metric(0, b) != expected[b]:
                    errors.append(b)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                metric.clear_cache()
                # every thread first asks for a far node: they all
                # extend one fresh row at once
                threads = [
                    threading.Thread(target=worker, args=(range(399 - k, 0, -4),))
                    for k in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert metric.dijkstra_runs == 20
        assert metric.nodes_settled == 20 * 400


class TestGraphMutation:
    """Rows computed before a mutation of the graph must not answer
    calls after it."""

    def test_version_counts_changing_mutations(self):
        g = Graph(3)
        g.add_edge(0, 1, 2.0)
        assert g.version == 1
        g.add_edge(0, 1, 5.0)  # heavier parallel edge: no change
        g.add_edge(2, 2, 1.0)  # self loop: no change
        assert g.version == 1
        g.add_edge(1, 0, 1.0)
        g.add_node()
        assert g.version == 3

    def test_add_edge_invalidates_rows(self):
        g = Graph(3)
        g.add_edge(0, 1, 1.0)
        metric = ShortestPathMetric(g, disconnected_distance=999.0)
        assert metric(0, 2) == 999.0
        g.add_edge(1, 2, 1.0)
        assert metric(0, 2) == 2.0
        assert metric(2, 0) == 2.0

    def test_add_node_then_edge_invalidates_rows(self):
        g = Graph(2)
        g.add_edge(0, 1, 1.0)
        metric = ShortestPathMetric(g)
        assert metric(0, 1) == 1.0
        node = g.add_node()
        g.add_edge(1, node, 1.0)
        assert metric(0, node) == 2.0

    def test_shorter_parallel_edge_invalidates_rows(self):
        g = path_graph(4)
        metric = ShortestPathMetric(g)
        assert metric(0, 3) == 3.0
        g.add_edge(0, 3, 0.5)
        assert metric(0, 3) == 0.5
        assert metric(0, 2) == 1.5

    def test_unchanged_graph_keeps_rows(self):
        g = path_graph(4)
        metric = ShortestPathMetric(g)
        metric(0, 3)
        g.add_edge(0, 1, 7.0)  # heavier parallel edge: not a mutation
        metric(0, 2)
        assert metric.dijkstra_runs == 1

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_interleaved_edges_and_lookups(self, data):
        n = data.draw(st.integers(1, 8))
        g = Graph(n)
        metric = ShortestPathMetric(
            g, cache_sources=data.draw(st.sampled_from([0, 1, 3])),
            disconnected_distance=-1.0,
        )
        node = st.integers(0, n - 1)
        for _ in range(data.draw(st.integers(1, 30))):
            if data.draw(st.booleans()):
                g.add_edge(
                    data.draw(node), data.draw(node),
                    float(data.draw(st.integers(0, 3))),
                )
            else:
                a, b = data.draw(node), data.draw(node)
                # integer weights: exact sums, so either end's row agrees
                expected = reference_dijkstra(g, a).get(b, -1.0)
                assert metric(a, b) == expected


# tie-heavy weights with zeros; 0.1, 0.2 and 0.7 make the last bits of
# a distance depend on the end a search starts from
WEIGHTS = st.sampled_from([0.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.7])


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    g = Graph(n)
    node = st.integers(0, n - 1)
    for u, v, w in draw(st.lists(st.tuples(node, node, WEIGHTS), max_size=24)):
        g.add_edge(u, v, w)
    return g


def _bits(values):
    return [float(v).hex() for v in values]


class TestRowsMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(
        g=graphs(),
        cache_sources=st.sampled_from([0, 1, 3]),
        disconnected=st.sampled_from([float("inf"), 999.0]),
        data=st.data(),
    )
    def test_call_script(self, g, cache_sources, disconnected, data):
        node = st.integers(0, g.num_nodes - 1)
        script = data.draw(st.lists(st.tuples(node, node), max_size=40))
        metric = ShortestPathMetric(g, cache_sources, disconnected)
        reference = ReferenceShortestPathMetric(g, cache_sources, disconnected)
        for a, b in script:
            assert _bits([metric(a, b)]) == _bits([reference(a, b)]), (a, b)
            assert metric.dijkstra_runs == reference.dijkstra_runs

    @settings(max_examples=150, deadline=None)
    @given(
        g=graphs(),
        data=st.data(),
        cutoff=st.sampled_from(
            [None, -1.0, 0.0, 0.2, 1.0, 2.5, 4.0, float("nan")]
        ),
    )
    def test_dijkstra_target_and_cutoff(self, g, data, cutoff):
        source = data.draw(st.integers(0, g.num_nodes - 1))
        target = data.draw(st.none() | st.integers(0, g.num_nodes))
        got = dijkstra(g, source, target=target, cutoff=cutoff)
        want = reference_dijkstra(g, source, target=target, cutoff=cutoff)
        assert sorted(got) == sorted(want)
        assert _bits(got[u] for u in sorted(got)) == _bits(
            want[u] for u in sorted(want)
        )
