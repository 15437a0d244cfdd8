"""Exact-score procedures (ExactScore-RS / ExactScore-AUX) vs brute force.

These tests drive the AuxB+-tree with a faithful round-robin retrieval
simulation (sorted distance lists play the incremental-NN streams) and
check Lemma 7 / Procedure 3 against the quadratic oracle, including the
tie-heavy cases the procedures' equivalence corrections exist for.
"""

import itertools

import pytest

from repro.core.aux_index import AuxBPlusTree
from repro.core.dominance import DistanceVectorSource
from repro.core.scoring import exact_score_aux, exact_score_reverse_scan
from repro.core.brute_force import brute_force_scores
from repro.storage.buffer import LRUBuffer
from repro.storage.pages import PageManager

from tests.conftest import make_vector_space


class _SimulatedRun:
    """Round-robin retrieval over sorted distance lists, with the same
    tie-draining PBA performs when an object becomes common."""

    def __init__(self, space, query_ids):
        self.space = space
        self.m = len(query_ids)
        self.query_ids = query_ids
        self.source = DistanceVectorSource(space, query_ids)
        buf = LRUBuffer(PageManager(), capacity=256)
        self.aux = AuxBPlusTree(buf, m=self.m)
        self.orders = [
            sorted(
                space.object_ids,
                key=lambda i, q=q: (space.distance(i, q), i),
            )
            for q in query_ids
        ]
        self.positions = [0] * self.m
        self.common = []

    def _note(self, j):
        object_id = self.orders[j][self.positions[j]]
        self.positions[j] += 1
        distance = self.space.distance(object_id, self.query_ids[j])
        rec = self.aux.note_retrieval(j, object_id, distance)
        if rec.is_common:
            self.common.append(rec)

    def advance_until_common(self):
        """Retrieve round-robin until a new common neighbor appears,
        then drain its ties and resolve eq (PBA's Procedure 1)."""
        start = len(self.common)
        for j in itertools.cycle(range(self.m)):
            if all(p >= len(self.orders[0]) for p in self.positions):
                return None
            if self.positions[j] < len(self.orders[j]):
                self._note(j)
            if len(self.common) > start:
                break
        rec = self.common[-1]
        self._drain_ties(rec)
        self._resolve_eq(rec)
        return rec

    def _drain_ties(self, rec):
        for j in range(self.m):
            target = rec.dists[j]
            while self.positions[j] < len(self.orders[j]):
                nxt = self.orders[j][self.positions[j]]
                if self.space.distance(nxt, self.query_ids[j]) != target:
                    break
                self._note(j)

    def _resolve_eq(self, rec):
        eq = 0
        log0 = self.aux.logs[0]
        rank = rec.lpos[0]
        while rank <= len(log0):
            other_id, other_dist = log0.entry(rank)
            if other_dist != rec.dists[0]:
                break
            if other_id != rec.object_id:
                other = self.aux.get(other_id)
                if other.is_complete and other.dists == rec.dists:
                    eq += 1
            rank += 1
        rec.eq = eq
        self.aux.update(rec)


def _reference_iph_scan(aux, rec, n, epoch, pruning_value):
    """ExactScore-RS with the IPH bound re-summed at every entry.

    Returns ``(aborted, entries scanned)``.
    """
    m = aux.m
    remaining = [len(aux.logs[j]) - rec.lpos[j] + 1 for j in range(m)]
    removed = scanned = 0
    for j in range(m):
        for _rank, object_id, distance in aux.logs[j].scan_backward():
            if distance < rec.dists[j]:
                break
            remaining[j] -= 1
            scanned += 1
            other = aux.get(object_id)
            if other.qc_epoch != epoch:
                other.qc_epoch = epoch
                other.qc_counter = other.q_counter
            other.qc_counter -= 1
            removed += other.qc_counter == 0
            aux.update(other)
            bound = removed + sum(remaining[jj] for jj in range(j, m))
            if n - (len(aux) - bound) - rec.eq - 1 <= pruning_value:
                return True, scanned
        remaining[j] = 0
    return False, scanned


@pytest.fixture(params=[(30, None, 0), (40, 3, 1), (25, 2, 2), (35, None, 3)])
def run(request):
    n, grid, seed = request.param
    space = make_vector_space(n=n, dims=2, seed=seed, grid=grid)
    query_ids = [0, n // 2]
    return _SimulatedRun(space, query_ids), space, query_ids


class TestReverseScanScore:
    def test_matches_brute_force_for_all_commons(self, run):
        sim, space, queries = run
        truth = brute_force_scores(space, queries)
        epoch = itertools.count()
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            outcome = exact_score_reverse_scan(
                sim.aux, rec, len(space), epoch=next(epoch), use_iph=False
            )
            assert outcome.score == truth[rec.object_id], rec.object_id

    def test_dominated_list_is_exact(self, run):
        sim, space, queries = run
        source = DistanceVectorSource(space, queries)
        rec = sim.advance_until_common()
        outcome = exact_score_reverse_scan(
            sim.aux, rec, len(space), epoch=0, use_iph=False
        )
        for other in outcome.dominated:
            assert source.dominates(rec.object_id, other.object_id)

    def test_iph_aborts_when_bound_met(self, run):
        sim, space, queries = run
        rec = sim.advance_until_common()
        # an absurdly high pruning value forces an immediate abort.
        outcome = exact_score_reverse_scan(
            sim.aux,
            rec,
            len(space),
            epoch=0,
            pruning_value=len(space) * 10,
            use_iph=True,
        )
        assert outcome.score is None

    def test_iph_aborts_at_the_reference_step(self, run, monkeypatch):
        sim, space, _queries = run
        n = len(space)
        updates = []
        update = sim.aux.update
        monkeypatch.setattr(
            sim.aux, "update", lambda rec: (updates.append(1), update(rec))
        )
        epoch = itertools.count()
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            for pruning_value in range(-1, n + 1, 3):
                updates.clear()
                outcome = exact_score_reverse_scan(
                    sim.aux, rec, n, epoch=next(epoch),
                    pruning_value=pruning_value,
                )
                live = (outcome.score is None, len(updates))
                expected = _reference_iph_scan(
                    sim.aux, rec, n, next(epoch), pruning_value
                )
                assert live == expected, (rec.object_id, pruning_value)

    def test_iph_disabled_ignores_pruning_value(self, run):
        sim, space, queries = run
        truth = brute_force_scores(space, queries)
        rec = sim.advance_until_common()
        outcome = exact_score_reverse_scan(
            sim.aux,
            rec,
            len(space),
            epoch=0,
            pruning_value=len(space) * 10,
            use_iph=False,
        )
        assert outcome.score == truth[rec.object_id]


class TestAuxScore:
    def test_matches_brute_force_for_all_commons(self, run):
        sim, space, queries = run
        truth = brute_force_scores(space, queries)
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            outcome = exact_score_aux(sim.aux, rec, len(space))
            assert outcome.score == truth[rec.object_id], rec.object_id

    def test_agrees_with_reverse_scan(self, run):
        sim, space, queries = run
        epoch = itertools.count()
        while True:
            rec = sim.advance_until_common()
            if rec is None:
                break
            rs = exact_score_reverse_scan(
                sim.aux, rec, len(space), epoch=next(epoch), use_iph=False
            )
            aux = exact_score_aux(sim.aux, rec, len(space))
            assert rs.score == aux.score

    def test_dominated_list_is_exact(self, run):
        sim, space, queries = run
        source = DistanceVectorSource(space, queries)
        rec = sim.advance_until_common()
        outcome = exact_score_aux(sim.aux, rec, len(space))
        for other in outcome.dominated:
            if other.is_complete:
                assert source.dominates(rec.object_id, other.object_id)
