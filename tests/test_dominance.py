"""Dominance relation, scores and the vectorized matrix."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.dominance import (
    DistanceVectorSource,
    DominanceMatrix,
    DominatorSet,
    dominates,
    dominates_vectors,
    domination_score,
    equivalent,
    equivalent_vectors,
)

from repro.metric.vector import (
    ChebyshevMetric,
    EuclideanMetric,
    ManhattanMetric,
    WeightedEuclideanMetric,
)

from tests.conftest import make_vector_space

NAN = float("nan")

_vec = st.lists(
    st.floats(min_value=0, max_value=10, allow_nan=False),
    min_size=3,
    max_size=3,
)


class TestDominatesVectors:
    def test_strictly_smaller_dominates(self):
        assert dominates_vectors([1, 1], [2, 2])

    def test_equal_does_not_dominate(self):
        assert not dominates_vectors([1, 2], [1, 2])

    def test_partial_improvement_dominates(self):
        assert dominates_vectors([1, 2], [1, 3])

    def test_incomparable(self):
        assert not dominates_vectors([1, 3], [2, 2])
        assert not dominates_vectors([2, 2], [1, 3])

    def test_never_both_directions(self):
        assert not (
            dominates_vectors([1, 2], [2, 1])
            and dominates_vectors([2, 1], [1, 2])
        )

    @settings(max_examples=60, deadline=None)
    @given(a=_vec, b=_vec)
    def test_antisymmetry_property(self, a, b):
        assert not (dominates_vectors(a, b) and dominates_vectors(b, a))

    @settings(max_examples=60, deadline=None)
    @given(a=_vec, b=_vec, c=_vec)
    def test_transitivity_property(self, a, b, c):
        if dominates_vectors(a, b) and dominates_vectors(b, c):
            assert dominates_vectors(a, c)

    @settings(max_examples=60, deadline=None)
    @given(a=_vec)
    def test_irreflexive(self, a):
        assert not dominates_vectors(a, a)

    def test_nan_never_dominates(self):
        assert not dominates_vectors([0, NAN], [1, 5])
        assert not dominates_vectors([NAN, NAN], [1, 5])
        assert not dominates_vectors([0, 1], [1, NAN])
        assert not dominates_vectors([0, 1, NAN], [1, 2, 3])

    @settings(max_examples=60, deadline=None)
    @given(a=_vec, b=_vec)
    def test_equivalence_excludes_dominance(self, a, b):
        if equivalent_vectors(a, b):
            assert not dominates_vectors(a, b)


class TestDistanceVectorSource:
    @pytest.fixture
    def setup(self):
        space = make_vector_space(n=40, dims=3, seed=0)
        return space, DistanceVectorSource(space, [0, 10, 20])

    def test_vector_dimension(self, setup):
        _space, source = setup
        assert len(source.vector(5)) == 3
        assert source.m == 3

    def test_query_object_has_zero_coordinate(self, setup):
        _space, source = setup
        assert source.vector(10)[1] == 0.0

    def test_caching_avoids_recomputation(self, setup):
        space, source = setup
        source.vector(7)
        before = space.metric.snapshot()
        source.vector(7)
        assert space.metric.delta_since(before) == 0
        assert source.known(7)

    def test_put_installs_external_vector(self, setup):
        space, source = setup
        source.put(9, (1.0, 2.0, 3.0))
        assert source.vector(9) == (1.0, 2.0, 3.0)

    def test_aggregate_distance(self, setup):
        _space, source = setup
        assert source.aggregate_distance(4) == pytest.approx(
            sum(source.vector(4))
        )

    def test_self_never_dominates(self, setup):
        _space, source = setup
        assert not source.dominates(3, 3)
        assert source.equivalent(3, 3)

    def test_domination_score_counts(self, setup):
        space, source = setup
        score = source.domination_score(0, space.object_ids)
        manual = sum(
            1
            for other in space.object_ids
            if other != 0
            and dominates_vectors(source.vector(0), source.vector(other))
        )
        assert score == manual


class TestDominanceMatrix:
    @pytest.fixture
    def setup(self):
        space = make_vector_space(n=60, dims=2, seed=1, grid=4)
        source = DistanceVectorSource(space, [0, 30])
        matrix = DominanceMatrix(source, list(space.object_ids))
        return space, source, matrix

    def test_matches_scalar_scores(self, setup):
        space, source, matrix = setup
        for object_id in range(0, 60, 7):
            assert matrix.score(object_id) == source.domination_score(
                object_id, space.object_ids
            )

    def test_deactivate_excludes_target(self, setup):
        _space, source, matrix = setup
        # find a dominated object and its dominator
        for a in range(60):
            before = matrix.score(a)
            if before > 0:
                break
        victims = [
            b
            for b in range(60)
            if b != a and dominates_vectors(source.vector(a), source.vector(b))
        ]
        matrix.deactivate(victims[0])
        assert matrix.score(a) == before - 1

    def test_score_of_foreign_object(self, setup):
        space, source, matrix = setup
        # an object outside the universe can still be scored against it
        partial = DominanceMatrix(source, list(range(30)))
        score = partial.score(45)
        manual = sum(
            1
            for other in range(30)
            if dominates_vectors(source.vector(45), source.vector(other))
        )
        assert score == manual


_FILL_METRICS = {
    "l1": ManhattanMetric,
    "l2": EuclideanMetric,
    "chebyshev": ChebyshevMetric,
    "weighted-l2": lambda: WeightedEuclideanMetric(
        np.linspace(0.5, 3.0, 9)
    ),
}


def _bits(vectors):
    return [tuple(float(d).hex() for d in vec) for vec in vectors]


class TestFill:
    """``fill`` is a batched run of per-id ``vector()`` calls."""

    QUERIES = [0, 17, 33, 58]
    # query objects inside the batch, duplicates, out-of-order ids
    IDS = [5, 17, 5, 0, 64, 33, 2, 58, 2, 71, 17, 40]

    def _pair(self, name):
        spaces = [
            make_vector_space(
                n=80, dims=9, seed=6, metric=_FILL_METRICS[name]()
            )
            for _ in range(2)
        ]
        return [DistanceVectorSource(s, self.QUERIES) for s in spaces]

    @pytest.mark.parametrize("name", sorted(_FILL_METRICS))
    def test_fill_equals_per_id_vectors(self, name):
        batched, single = self._pair(name)
        batched.fill(self.IDS)
        for object_id in self.IDS:
            single.vector(object_id)
        ids = sorted(set(self.IDS))
        assert _bits(batched.vector(i) for i in ids) == _bits(
            single.vector(i) for i in ids
        )
        assert all(
            type(d) is float for i in ids for d in batched.vector(i)
        )
        metric_b = batched.space.metric
        metric_s = single.space.metric
        # identity pairs (a query object against itself) are not counted
        expected = len(ids) * len(self.QUERIES) - len(
            set(self.IDS) & set(self.QUERIES)
        )
        assert metric_b.count == metric_s.count == expected
        # one kernel call per query object
        assert metric_b.batches == len(self.QUERIES)

    def test_cached_ids_cost_nothing(self):
        batched, single = self._pair("l1")
        batched.vector(5)
        batched.put(2, (1.0, 2.0, 3.0, 4.0))
        before = batched.space.metric.count
        batched.fill(self.IDS)
        for object_id in self.IDS:
            single.vector(object_id)
        assert batched.vector(2) == (1.0, 2.0, 3.0, 4.0)
        # 5 and 2 were known, and neither is a query object
        assert batched.space.metric.count - before == (
            single.space.metric.count - 2 * len(self.QUERIES)
        )
        before = batched.space.metric.count
        batched.fill(self.IDS)
        batched.fill([])
        assert batched.space.metric.count == before

    def test_thread_safe_local_count(self):
        batched, single = self._pair("l2")
        for source in (batched, single):
            source.space.metric.make_thread_safe()
        batched.fill(self.IDS)
        for object_id in self.IDS:
            single.vector(object_id)
        metric_b = batched.space.metric
        metric_s = single.space.metric
        assert metric_b.local_count() == metric_s.local_count()
        assert metric_b.count == metric_s.count
        ids = sorted(set(self.IDS))
        assert _bits(batched.vector(i) for i in ids) == _bits(
            single.vector(i) for i in ids
        )

    def test_no_query_objects(self):
        space = make_vector_space(n=10, dims=2, seed=1)
        source = DistanceVectorSource(space, [])
        source.fill([3, 4])
        assert source.vector(3) == () and space.metric.count == 0


def _source_of(vectors, m):
    """A source whose vectors are installed, never computed."""
    source = DistanceVectorSource(None, list(range(m)))
    for object_id, vector in enumerate(vectors):
        source.put(object_id, tuple(float(d) for d in vector))
    return source


class TestBatchedScore:
    @pytest.fixture
    def setup(self):
        space = make_vector_space(n=60, dims=2, seed=1, grid=4)
        source = DistanceVectorSource(space, [0, 30])
        matrix = DominanceMatrix(source, list(space.object_ids))
        return space, source, matrix

    def test_batch_equals_one_by_one_in_order(self, setup):
        _space, _source, matrix = setup
        ids = [17, 3, 44, 3, 0]
        assert matrix.score(ids).tolist() == [matrix.score(i) for i in ids]

    def test_empty_id_list(self, setup):
        space, _source, matrix = setup
        before = space.metric.snapshot()
        scores = matrix.score([])
        assert scores.shape == (0,)
        assert space.metric.delta_since(before) == 0

    def test_empty_universe(self, setup):
        _space, source, _matrix = setup
        empty = DominanceMatrix(source, [])
        assert empty.score([1, 2, 3]).tolist() == [0, 0, 0]
        assert empty.score(5) == 0

    def test_ids_outside_universe(self, setup):
        _space, source, _matrix = setup
        partial = DominanceMatrix(source, list(range(30)))
        ids = [45, 2, 59, 29]
        expected = [source.domination_score(i, range(30)) for i in ids]
        assert partial.score(ids).tolist() == expected

    def test_deactivated_rows_are_excluded(self, setup):
        space, source, matrix = setup
        gone = [5, 11, 23, 40]
        for object_id in gone:
            matrix.deactivate(object_id)
        active = [i for i in space.object_ids if i not in gone]
        ids = list(range(60))
        expected = [source.domination_score(i, active) for i in ids]
        assert matrix.score(ids).tolist() == expected

    def test_blocks_do_not_change_scores(self, setup, monkeypatch):
        _space, _source, matrix = setup
        ids = list(range(60))
        whole = matrix.score(ids).tolist()
        # 7 candidate rows per block over a 60-object universe
        monkeypatch.setattr(DominanceMatrix, "_BLOCK_CELLS", 7 * 60)
        assert matrix.score(ids).tolist() == whole

    def test_vectors_fetched_in_id_order(self, setup):
        space, _source, _matrix = setup
        fresh = DistanceVectorSource(space, [0, 30])
        matrix = DominanceMatrix(fresh, [])
        seen = []
        original = fresh.vector

        def spy(object_id):
            seen.append(object_id)
            return original(object_id)

        fresh.vector = spy
        matrix.score([9, 4, 7])
        assert seen == [9, 4, 7]


_tie_vectors = st.integers(min_value=1, max_value=4).flatmap(
    lambda m: st.lists(
        st.tuples(*[st.integers(min_value=0, max_value=3)] * m),
        min_size=1,
        max_size=40,
    )
)


class TestDominanceProperties:
    @settings(max_examples=80, deadline=None)
    @given(vectors=_tie_vectors, data=st.data())
    def test_batched_scores_equal_scalar_over_active(self, vectors, data):
        m = len(vectors[0])
        source = _source_of(vectors, m)
        ids = list(range(len(vectors)))
        matrix = DominanceMatrix(source, ids)
        gone = data.draw(st.sets(st.sampled_from(ids)))
        for object_id in gone:
            matrix.deactivate(object_id)
        active = [i for i in ids if i not in gone]
        expected = [source.domination_score(i, active) for i in ids]
        assert matrix.score(ids).tolist() == expected

    @settings(max_examples=60, deadline=None)
    @given(
        stored=st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
            min_size=DominatorSet._VECTORIZE_FROM - 2,
            max_size=2 * DominatorSet._VECTORIZE_FROM,
        ),
        probes=st.lists(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
            min_size=1,
            max_size=8,
        ),
    )
    def test_dominator_set_equals_scalar_scan(self, stored, probes):
        # every example crosses _VECTORIZE_FROM; duplicates are kept
        stored = stored + stored[:4]
        dominators = DominatorSet(3)
        for count, vector in enumerate(stored, start=1):
            dominators.add(vector)
            checks = probes if count < len(stored) else probes + stored
            for probe in checks:
                expected = any(
                    dominates_vectors(row, probe) for row in stored[:count]
                )
                assert dominators.dominates(probe) == expected

    def test_dominator_set_on_both_sides_of_threshold(self):
        rng = np.random.default_rng(4)
        threshold = DominatorSet._VECTORIZE_FROM
        rows = [tuple(r) for r in rng.integers(0, 3, (threshold + 8, 3))]
        rows += rows[:5]  # exact duplicates
        dominators = DominatorSet(3)
        probes = [tuple(p) for p in rng.integers(0, 4, (50, 3))]
        for count, row in enumerate(rows, start=1):
            dominators.add(row)
            if count in (threshold - 1, threshold, threshold + 1, len(rows)):
                for probe in probes + rows:
                    assert dominators.dominates(probe) == any(
                        dominates_vectors(r, probe) for r in rows[:count]
                    )


def _changing_probes(stored, picks, deltas):
    """Probes dominated by ``stored[pick]``, one row after another."""
    probes = []
    for pick, delta in zip(picks, deltas):
        row = stored[pick % len(stored)]
        probes.append(tuple(d + e for d, e in zip(row, delta)))
    return probes


_small = st.integers(min_value=0, max_value=3)


class TestLastDominatorProbe:
    @settings(max_examples=80, deadline=None)
    @given(
        stored=st.one_of(
            st.lists(
                st.tuples(_small, _small, _small),
                min_size=1,
                max_size=DominatorSet._VECTORIZE_FROM - 1,
            ),
            st.lists(
                st.tuples(_small, _small, _small),
                min_size=DominatorSet._VECTORIZE_FROM,
                max_size=2 * DominatorSet._VECTORIZE_FROM,
            ),
        ),
        picks=st.lists(st.integers(min_value=0, max_value=200), max_size=12),
        deltas=st.lists(st.tuples(_small, _small, _small), max_size=12),
        others=st.lists(st.tuples(_small, _small, _small), max_size=12),
    )
    def test_equals_any_over_changing_dominators(
        self, stored, picks, deltas, others
    ):
        dominators = DominatorSet(3)
        for row in stored:
            dominators.add(row)
        probes = _changing_probes(stored, picks, deltas)
        # interleave probes the last dominator may or may not decide
        sequence = [p for pair in zip(probes, others) for p in pair]
        sequence += probes[len(others):] + others[len(probes):]
        for probe in sequence + sequence[::-1]:
            assert dominators.dominates(probe) == any(
                dominates_vectors(row, probe) for row in stored
            )

    @pytest.mark.parametrize(
        "size", [1, DominatorSet._VECTORIZE_FROM + 3]
    )
    def test_nan_row_never_dominates(self, size):
        dominators = DominatorSet(2)
        dominators.add((0.0, NAN))
        for _ in range(size - 1):
            dominators.add((9.0, 9.0))
        assert not dominators.dominates((1.0, 5.0))
        assert not dominators.dominates((NAN, 5.0))

    @pytest.mark.parametrize(
        "size", [2, DominatorSet._VECTORIZE_FROM + 3]
    )
    def test_nan_probe_after_last_dominator(self, size):
        dominators = DominatorSet(2)
        for _ in range(size - 1):
            dominators.add((9.0, 9.0))
        dominators.add((1.0, 1.0))
        assert dominators.dominates((2.0, 2.0))  # (1, 1) becomes last
        assert not dominators.dominates((2.0, NAN))
        assert not dominators.dominates((NAN, NAN))
        assert dominators.dominates((1.0, 2.0))
        assert not dominators.dominates((1.0, 1.0))


class TestFreeFunctions:
    def test_dominates_and_equivalent(self):
        space = make_vector_space(n=30, dims=2, seed=2, grid=2)
        queries = [0, 15]
        source = DistanceVectorSource(space, queries)
        for a in range(0, 30, 5):
            for b in range(0, 30, 5):
                assert dominates(space, queries, a, b) == source.dominates(
                    a, b
                )
                assert equivalent(space, queries, a, b) == source.equivalent(
                    a, b
                )

    def test_domination_score_default_universe(self):
        space = make_vector_space(n=25, dims=2, seed=3)
        queries = [0, 12]
        source = DistanceVectorSource(space, queries)
        assert domination_score(space, queries, 4) == (
            source.domination_score(4, space.object_ids)
        )
