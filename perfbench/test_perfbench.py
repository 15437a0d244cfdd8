"""Tests of the benchmark's own arithmetic: ``python -m pytest perfbench``."""

import json
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from perfbench import layers, run, spans, speed, summary
from perfbench.summary import ERROR, MISMATCH, OK, REJECTED

NO = spans.NO_SPAN


def _self(rows):
    """rows: (id, start, end, parent)"""
    ids, start, end, parent = (np.array(c, dtype=np.int64) for c in zip(*rows))
    return dict(zip(ids.tolist(), spans.self_times(ids, start, end, parent).tolist()))


def test_self_time_nested_single_thread():
    got = _self([
        (0, 0, 100, NO),   # root
        (1, 10, 40, 0),    # child
        (2, 20, 30, 1),    # grandchild
        (3, 50, 90, 0),    # second child
    ])
    assert got == {0: 30, 1: 20, 2: 10, 3: 40}
    assert sum(got.values()) == 100  # self times telescope to the root


def test_self_time_two_threads_counts_overlap_once():
    worker = 1 << 40  # span ids of a second thread
    got = _self([
        (0, 0, 100, NO),            # root, thread 1
        (worker, 10, 60, 0),        # child on thread 2
        (worker + 1, 20, 30, worker),
        (1, 50, 80, 0),             # child on thread 1, overlaps [50, 60]
    ])
    assert got[0] == 100 - 70  # union [10, 80], not 50 + 30
    assert got[worker] == 40 and got[worker + 1] == 10 and got[1] == 30


def test_self_time_clips_children_to_parent():
    got = _self([(0, 10, 20, NO), (1, 5, 15, 0)])
    assert got == {0: 5, 1: 10}


def test_self_time_rejects_unknown_parent():
    with pytest.raises(ValueError):
        _self([(0, 0, 10, 7)])


def test_recorder_links_pool_work_and_conserves_per_op():
    rec = spans.Recorder()
    leaf = spans.wrap_callable(lambda x: x + 1, rec, "leaf")

    def outer(x):
        return leaf(x) + leaf(x)

    outer = spans.wrap_callable(outer, rec, "outer")
    root = rec.name_id("root")
    pool = spans.ContextCopyingPool(ThreadPoolExecutor(max_workers=2))
    try:
        for op in range(4):
            frame = rec.begin(root, op=op)
            try:
                assert pool.submit(outer, op).result(timeout=10) == 2 * op + 2
            finally:
                rec.finish(frame)
    finally:
        pool.shutdown(wait=True)
    table = rec.table()
    assert len(table["id"]) == 4 * 4
    self_ns = spans.self_times(table["id"], table["start"], table["end"], table["parent"])
    assert (self_ns >= 0).all()
    assert spans.conservation_errors(table, self_ns, root) == {}
    outer_id = rec.name_id("outer")
    # every worker span has the op's root (on the main thread) as parent
    rows = table["name"] == outer_id
    assert set(table["op"][rows].tolist()) == {0, 1, 2, 3}
    assert (table["parent"][rows] != NO).all()


def test_conservation_flags_overlapping_siblings():
    table = {
        "id": np.array([0, 1, 2]), "name": np.array([0, 1, 1]),
        "start": np.array([0, 10, 20]), "end": np.array([100, 50, 60]),
        "parent": np.array([NO, 0, 0]), "op": np.array([0, 0, 0]),
    }
    self_ns = spans.self_times(table["id"], table["start"], table["end"], table["parent"])
    assert spans.conservation_errors(table, self_ns, 0) == {0: 30}


def test_generator_wrapper_times_each_step_and_counts_calls():
    rec = spans.Recorder()

    def gen(n):
        yield from range(n)

    wrapped = spans.wrap_callable(gen, rec, "g", count=lambda a, k, item: 1)
    assert list(wrapped(2)) == [0, 1]
    assert rec.tallies == {}  # tallies count inside ops only
    frame = rec.begin(rec.name_id("root"), op=0)
    assert list(wrapped(3)) == [0, 1, 2]
    rec.finish(frame)
    assert len(rec.table()["id"]) == 3 + 1 + 4  # steps incl. the exhausting ones
    assert rec.tallies == {"g" + spans.CALLS: 1, "g": 3}


@pytest.mark.parametrize("n, p", [(1, 50.0), (15, 50.0), (39, 50.0), (40, 75.0),
                                  (99, 75.0), (100, 90.0), (999, 90.0),
                                  (1000, 99.0), (10000, 99.9)])
def test_tail_rule_keeps_ten_samples_beyond(n, p):
    assert summary.tail_percentile(n) == p
    if p != 50.0:
        assert summary.beyond(n, p) >= 10


def test_percentile_nearest_rank_and_summary_counts():
    samples = list(range(1, 101))  # 1..100
    assert summary.percentile(samples, 90) == 90
    assert summary.percentile(samples, 50) == 50
    assert summary.percentile([5.0], 99) == 5.0
    got = summary.latency_summary(samples)
    assert (got["n"], got["tail_p"], got["tail"], got["beyond"]) == (100, 90.0, 90, 10)
    assert got["p50"] == 50.5


def test_failed_frac_counts_rejections_and_mismatches():
    outcomes = [OK, ERROR, REJECTED, MISMATCH, OK]
    assert summary.failure_counts(outcomes) == (5, 3)
    assert summary.failed_frac(outcomes) == pytest.approx(0.6)
    assert summary.failed_frac([OK, OK]) == 0.0
    with pytest.raises(ValueError):
        summary.failure_counts(["timeout"])


def _probe(stamps, costs):
    probe = speed.SpeedProbe()
    probe.stamps, probe.costs = list(stamps), list(costs)
    return probe


def test_speed_scale_uses_probes_within_the_window():
    w = speed.WINDOW_S
    n = speed.MIN_PROBES
    # n slow probes just before [10, 11], n fast ones long after it
    probe = _probe([10 - w + 0.01 * i for i in range(n)] + [100 + i for i in range(n)],
                   [2 * speed.REFERENCE_S] * n + [speed.REFERENCE_S / 2] * n)
    assert probe.near(10, 11) == [2 * speed.REFERENCE_S] * n
    assert probe.scale(10, 11) == pytest.approx(0.5)  # slow machine: times halve
    assert probe.scale(100, 100) == pytest.approx(2.0)


def test_speed_scale_widens_to_the_nearest_probes(monkeypatch):
    monkeypatch.setattr(speed, "WINDOW_S", 1.0)
    monkeypatch.setattr(speed, "MIN_PROBES", 9)
    stamps = [float(i) for i in range(30)]
    probe = _probe(stamps, stamps)  # cost i at time i
    # too few within the window of [15, 15]: grow the nearer side first
    assert probe.near(15, 15) == [float(i) for i in range(11, 20)]
    assert _probe([0.0, 5.0], [1.0, 2.0]).near(50, 50) == [1.0, 2.0]  # all there are
    with pytest.raises(ValueError):
        speed.SpeedProbe().near(0, 1)


def test_oracle_comparison_allows_tied_orders_only():
    from repro.core.progressive import ResultItem
    from perfbench.workloads import answer_matches

    scores = {1: 5, 2: 5, 3: 4, 4: 1}
    assert answer_matches([ResultItem(2, 5), ResultItem(1, 5)], scores, 2)
    assert answer_matches([ResultItem(1, 5), ResultItem(2, 5), ResultItem(3, 4)], scores, 3)
    assert not answer_matches([ResultItem(1, 5), ResultItem(3, 5)], scores, 2)  # wrong score
    assert not answer_matches([ResultItem(1, 5), ResultItem(3, 4)], scores, 2)  # misses a 5
    assert not answer_matches([ResultItem(1, 5), ResultItem(1, 5)], scores, 2)  # repeated id
    assert not answer_matches([ResultItem(1, 5)], scores, 2)  # too short


def test_instrumentation_restores_every_name():
    assert layers.pristine_violations() == []
    inst = layers.Instrumentation(spans.Recorder())
    with inst:
        patched = layers.pristine_violations()
        assert len(patched) == sum(1 + len(t.aliases) for t in layers.TARGETS)
    assert layers.pristine_violations() == []


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(row) for row in layers.PER_LAYER
    ]
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
