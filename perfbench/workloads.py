"""The three workloads: inputs from a seed, timed ops, oracle checks.

The data set, its index and the query sets come from :data:`DATA_SEED`;
``--seed`` orders the queries of the read workloads and draws the churn
scripts.  Drawing the data or the query sets from ``--seed`` made the
pooled latency percentiles wander by 12-38% of their median between
seeds (IQR over five seeds): one run holds only ~100 of the
heavy-tailed query sets, and the same query mix cost 10.8-15.6 s of CPU
on different generated UNI sets.  The library only ever sees the
generated data, query sets and payloads.  Query sets are drawn on the
oracle's own copy of the data set, so choosing them moves neither the
engine's distance counter nor CAL's Dijkstra row cache.
"""

from __future__ import annotations

import asyncio
import random
import resource
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api import open_engine
from repro.core.brute_force import brute_force_scores
from repro.datasets import california, road_network, select_query_objects, uniform
from repro.faults.errors import FaultError
from repro.metric.base import MetricSpace
from repro.metric.vector import ManhattanMetric
from repro.service import (
    DeadlineExceeded,
    Overloaded,
    QueryService,
    Rejected,
    ServiceConfig,
)

from perfbench import layers, spans
from perfbench.speed import FOOTPRINT_MB, MIN_PROBES, SpeedProbe
from perfbench.summary import ERROR, MISMATCH, OK, REJECTED

K = 10
M = 5
DATA_SEED = 1
SETUP_REPS = 7  # set-ups per run; setup_s is their median
MAX_ROUNDS = 4  # uni-churn: script rounds one run may make

# typed refusals of the service count as rejections, not errors
_REJECTIONS = (Overloaded, DeadlineExceeded, Rejected, FaultError)


def _rng(*parts) -> random.Random:
    # str seeds hash through SHA-512, independent of PYTHONHASHSEED
    return random.Random(":".join(str(p) for p in parts))


def peak_rss_mb() -> float:
    """Peak resident set of the process, less the speed probe's data."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - FOOTPRINT_MB


def answer_matches(results, scores: Dict[int, int], k: int) -> bool:
    """Each reported score is the object's true score and the reported
    score sequence is the true top-k sequence (ties in any order)."""
    expected = sorted(scores.values(), reverse=True)[:k]
    ids = [r.object_id for r in results]
    if len(ids) != len(expected) or len(set(ids)) != len(ids):
        return False
    if any(scores.get(r.object_id) != r.score for r in results):
        return False
    return sorted((r.score for r in results), reverse=True) == expected


def covering_radius(space: MetricSpace) -> float:
    """Exact covering radius around the exact medoid.

    The coverage ``c`` of every query set is a fraction of this radius.
    The library's sampled estimate moved by +-12% between samplings of
    one UNI data set, scaling every query set's cost with it; the exact
    value moves only with the data.
    """
    ids = list(space.object_ids)
    sums = [float(space.pairwise(i, ids).sum()) for i in ids]
    center = ids[int(np.argmin(sums))]
    return float(space.pairwise(center, ids).max())


def cal_oracle(n: int, seed: int) -> MetricSpace:
    """CAL with a row cache holding every source: the brute force then
    runs each Dijkstra once per run instead of once per query set."""
    space, _graph = road_network(n=n, seed=seed, cache_sources=n)
    return space


@dataclass
class Op:
    kind: str  # an algorithm name, "insert" or "delete"
    latency_ms: float  # on the workload's clock, unscaled
    outcome: str
    distances: Optional[int] = None  # None: not executed (cache hit...)
    faults: Optional[int] = None
    exact_scores: int = 0
    cached: bool = False
    coalesced: bool = False
    started: float = 0.0  # wall clock (perf_counter) around the op
    ended: float = 0.0
    slot_s: float = 0.0  # the op's share of the timed phase, unscaled
    scale: float = 1.0  # speed-probe scale (see perfbench/speed.py)

    @property
    def is_query(self) -> bool:
        return self.kind not in ("insert", "delete")

    @property
    def scaled_ms(self) -> float:
        return self.latency_ms * self.scale


@dataclass
class Outcome:
    """Everything one run measured."""

    clock: str
    setup_s: List[float]  # scaled
    ops: List[Op]
    timed_s: float  # scaled sum of the ops' slots
    peak_rss_mb: float = 0.0
    checks: List[str] = field(default_factory=list)  # extra oracle checks
    #: counters that must repeat exactly for the same seed
    fingerprint: Dict[str, object] = field(default_factory=dict)
    layer_metrics: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)
    span_table: Dict[str, object] = field(default_factory=dict)
    span_names: List[str] = field(default_factory=list)
    raw_setup_s: List[float] = field(default_factory=list)
    raw_timed_s: float = 0.0
    probe: Optional[SpeedProbe] = None

    def outcomes(self) -> List[str]:
        return [op.outcome for op in self.ops] + self.checks

    def scale_ops(self) -> None:
        """Scale every op by the probes around it; sum the timed phase."""
        for op in self.ops:
            op.scale = self.probe.scale(op.started, op.ended)
        self.raw_timed_s = sum(op.slot_s for op in self.ops)
        self.timed_s = sum(op.slot_s * op.scale for op in self.ops)


def probed(probe: SpeedProbe, setup: Callable[[], tuple]) -> Tuple[tuple, float]:
    """``setup()`` between two bursts of speed probes, and the scale of
    the probes around it."""
    probe.probe(MIN_PROBES)
    started = time.perf_counter()
    result = setup()
    ended = time.perf_counter()
    probe.probe(MIN_PROBES)
    return result, probe.scale(started, ended)


# ----------------------------------------------------------------------
# uni-read and cal-read
# ----------------------------------------------------------------------
class ReadWorkload:
    """One caller, closed loop, query sets answered by each algorithm in
    turn; buffers stay warm across queries."""

    clock = "thread_cpu"

    def __init__(
        self,
        name: str,
        make_space: Callable[[int, int], MetricSpace],
        make_oracle: Callable[[int, int], MetricSpace],
        n: int,
        index: str,
        algorithms: Sequence[str],
        coverage: Tuple[float, float],
        num_sets: int,
        trace_sets: int,
        min_passes: int = 1,
    ) -> None:
        self.name = name
        self.make_space = make_space
        self.make_oracle = make_oracle
        self.n = n
        self.index = index
        self.algorithms = tuple(algorithms)  # set i is answered by [i % len]
        self.coverage = coverage
        self.num_sets = num_sets
        self.trace_sets = trace_sets
        self.min_passes = min_passes  # over the schedule, in every run

    # inputs -----------------------------------------------------------
    def coverages(self, rng: random.Random) -> List[float]:
        """Coverage of each set: log-uniform over ``self.coverage``,
        stratified so each algorithm's sets span the range evenly.

        Discrete coverages make the pooled latencies form clusters, and a
        percentile on a cluster boundary jumps when one algorithm gets a
        little faster; with a continuous coverage it moves smoothly."""
        lo, hi = self.coverage
        per_algorithm = -(-self.num_sets // len(self.algorithms))
        strata = [rng.sample(range(per_algorithm), per_algorithm)
                  for _ in self.algorithms]
        out = []
        for i in range(self.num_sets):
            a, j = i % len(self.algorithms), i // len(self.algorithms)
            u = (strata[a][j] + rng.random()) / per_algorithm
            out.append(lo * (hi / lo) ** u)
        return out

    def query_sets(self, oracle: MetricSpace) -> List[List[int]]:
        rng = _rng("perfbench", self.name, DATA_SEED, "queries")
        radius = covering_radius(oracle)
        return [
            select_query_objects(oracle, M, c, rng=rng, dataset_radius=radius)
            for c in self.coverages(rng)
        ]

    def schedule(self, seed: int, num_sets: int) -> List[Tuple[int, str]]:
        """The first ``num_sets`` ops of the seed's order: rounds of one
        set per algorithm, rounds and the sets in them shuffled, so any
        whole number of rounds has the same algorithm mix."""
        width = len(self.algorithms)
        rng = _rng("perfbench", self.name, seed, "order")
        rounds = [list(range(r * width, min((r + 1) * width, self.num_sets)))
                  for r in range(-(-self.num_sets // width))]
        rng.shuffle(rounds)
        order = []
        for sets in rounds:
            rng.shuffle(sets)
            order += sets
        # one algorithm per set: more distinct sets per second of run
        return [(i, self.algorithms[i % width]) for i in order[:num_sets]]

    def setup(self):
        t0 = time.thread_time()
        space = self.make_space(self.n, DATA_SEED)
        t1 = time.thread_time()
        engine = open_engine(space, seed=DATA_SEED, index=self.index)
        return engine, t1 - t0, time.thread_time() - t0

    # runs -------------------------------------------------------------
    def _query(self, engine, query_ids, algorithm) -> Tuple[Op, list]:
        started = time.perf_counter()
        t0 = time.thread_time()
        try:
            results, stats = engine.top_k_dominating(query_ids, K, algorithm)
        except Exception:  # counted as a failed op, reported by run.py
            op, results = Op(algorithm, (time.thread_time() - t0) * 1e3, ERROR), []
        else:
            op = Op(
                algorithm,
                (time.thread_time() - t0) * 1e3,
                OK,
                stats.distance_computations,
                stats.io.page_faults,
                stats.exact_score_computations,
            )
        op.started, op.ended = started, time.perf_counter()
        op.slot_s = op.latency_ms / 1e3
        return op, results

    def _check(self, oracle, sets, answers, ops) -> None:
        scores: Dict[int, Dict[int, int]] = {}
        for (set_idx, results), op in zip(answers, ops):
            if op.outcome != OK:
                continue
            if set_idx not in scores:
                scores[set_idx] = brute_force_scores(oracle, sets[set_idx])
            if not answer_matches(results, scores[set_idx], K):
                op.outcome = MISMATCH

    def run(self, seed: int, seconds: float) -> Outcome:
        oracle = self.make_oracle(self.n, DATA_SEED)
        sets = self.query_sets(oracle)
        probe = SpeedProbe()
        out = Outcome(self.clock, [], [], 0.0, probe=probe)
        engine = None
        for _ in range(SETUP_REPS):
            engine = None  # free the previous engine before building
            (engine, _gen, total), scale = probed(probe, self.setup)
            out.raw_setup_s.append(total)
            out.setup_s.append(total * scale)
        out.problems += [f"patched: {v}" for v in layers.pristine_violations()]
        prefix = self.schedule(seed, self.num_sets)
        ops: List[Op] = []
        answers = []
        # whole passes only, so every run's latencies come from the same
        # multiset of queries however fast the machine is
        deadline = time.perf_counter() + seconds
        while len(ops) < self.min_passes * len(prefix) or time.perf_counter() < deadline:
            for set_idx, algorithm in prefix:
                probe.tick()
                op, results = self._query(engine, sets[set_idx], algorithm)
                ops.append(op)
                answers.append((set_idx, results))
        probe.probe(MIN_PROBES)
        out.peak_rss_mb = peak_rss_mb()
        out.problems += [f"patched: {v}" for v in layers.pristine_violations()]
        self._check(oracle, sets, answers, ops)
        out.ops = ops
        out.scale_ops()
        head = ops[: len(prefix)]
        out.fingerprint = {
            "distances": [op.distances for op in head],
            "faults": [op.faults for op in head],
        }
        return out

    def run_traced(self, seed: int) -> Outcome:
        oracle = self.make_oracle(self.n, DATA_SEED)
        sets = self.query_sets(oracle)
        engine, gen, total = self.setup()
        prefix = self.schedule(seed, self.trace_sets)
        started = time.thread_time()
        for set_idx, algorithm in prefix:
            self._query(engine, sets[set_idx], algorithm)
        untraced = time.thread_time() - started
        engine = None

        recorder = spans.Recorder()
        inst = layers.Instrumentation(recorder)
        ops: List[Op] = []
        answers = []
        with inst:
            engine, _gen, _total = self.setup()
            before = _counters(engine)
            started = time.thread_time()
            for op_id, (set_idx, algorithm) in enumerate(prefix):
                frame = recorder.begin(inst.root_id, op=op_id)
                try:
                    op, results = self._query(engine, sets[set_idx], algorithm)
                finally:
                    recorder.finish(frame)
                ops.append(op)
                answers.append((set_idx, results))
            traced = time.thread_time() - started
            after = _counters(engine)
        out = Outcome(self.clock, [total], ops, traced)
        out.problems += [f"left patched: {v}" for v in layers.pristine_violations()]
        self._check(oracle, sets, answers, ops)
        counters = {k: after[k] - before[k] for k in after}
        counters.update(
            exact_scores=sum(op.exact_scores for op in ops),
            repairs=0,
            recomputes=0,
            cache_hit_ratio=0.0,
            coalesced_ratio=0.0,
            trace_overhead_ratio=traced / untraced if untraced else 0.0,
            generate_s=gen,
        )
        _finish_trace(out, inst, counters, ops=len(ops), queries=len(ops), writes=0)
        return out


def _counters(engine) -> Dict[str, float]:
    metric = engine.counting_metric
    inner = metric.inner
    out = {
        "distances": metric.count,
        "dijkstra_runs": getattr(inner, "dijkstra_runs", 0),
    }
    for label, buf in (
        ("index", engine.buffers.index_buffer),
        ("aux", engine.buffers.aux_buffer),
    ):
        for name in ("logical_reads", "logical_writes", "buffer_hits", "page_faults"):
            out[f"{label}_{name}"] = getattr(buf.stats, name)
    return out


def _finish_trace(out: Outcome, inst, counters, *, ops, queries, writes) -> None:
    analysis = layers.TraceAnalysis(inst)
    out.span_table = analysis.table
    out.span_names = list(analysis.names)
    if analysis.conservation:
        worst = max(analysis.conservation.values(), key=abs)
        out.problems.append(
            f"self-time conservation broken in {len(analysis.conservation)} "
            f"ops (worst {worst} ns)"
        )
    out.layer_metrics = layers.per_layer_metrics(
        analysis, ops=ops, queries=queries, writes=writes, counters=counters
    )
    out.fingerprint = {
        "calls": {k: v for k, v in sorted(analysis.calls.items())},
        "counters": {
            k: v for k, v in sorted(counters.items()) if isinstance(v, int)
        },
    }


# ----------------------------------------------------------------------
# uni-churn
# ----------------------------------------------------------------------
class ChurnWorkload:
    """One closed-loop client of a ``QueryService`` following a seeded
    script of ``pba2`` queries and writes, polling one standing
    subscription after every op.

    With two clients the cache-hit sequence and the lock interleaving
    depend on thread timing; with one they are fixed per seed.  Nothing
    then waits on the service's lock, and an op's work runs on the
    event-loop thread and one worker, so process CPU time is its latency
    minus the time the shared machine took away."""

    clock = "process_cpu"
    name = "uni-churn"

    def __init__(
        self,
        n: int,
        pool_size: int,
        coverage: float,
        zipf_s: float,
        write_frac: float,
        workers: int,
        round_ops: int,
        trace_ops: int,
    ) -> None:
        self.n = n
        self.pool_size = pool_size
        self.coverage = coverage
        self.zipf_s = zipf_s
        self.write_frac = write_frac
        self.workers = workers
        self.round_ops = round_ops  # a run makes whole rounds of these
        self.trace_ops = trace_ops  # in the traced run

    # inputs -----------------------------------------------------------
    def pool(self, oracle: MetricSpace) -> List[List[int]]:
        rng = _rng("perfbench", self.name, DATA_SEED, "pool")
        radius = covering_radius(oracle)
        return [
            select_query_objects(oracle, M, self.coverage, rng=rng, dataset_radius=radius)
            for _ in range(self.pool_size)
        ]

    def zipf_counts(self, queries: int) -> List[int]:
        """How often each pool rank is queried among ``queries``: the
        Zipf shares, rounded by largest remainder."""
        weights = [1.0 / (rank + 1) ** self.zipf_s for rank in range(self.pool_size)]
        shares = [queries * w / sum(weights) for w in weights]
        counts = [int(x) for x in shares]
        by_remainder = sorted(range(self.pool_size), key=lambda r: counts[r] - shares[r])
        for rank in by_remainder[: queries - sum(counts)]:
            counts[rank] += 1
        return counts

    def script(self, seed: int, length: int) -> List[tuple]:
        """``("q", set)``, ``("insert", payload)`` or ``("delete", j)``
        (the j-th insert of the script).

        Every block of ten ops holds exactly ``write_frac * 10`` writes,
        two inserts per delete, and every ``round_ops`` ops query each
        pool set its Zipf share of times.  The seed orders them and
        draws the payloads: when it drew the sets too, the distance
        computations of a run moved by 11% between seeds."""
        rng = _rng("perfbench", self.name, seed, "script")
        writes_per_block = round(self.write_frac * 10)
        per_round = -(-self.round_ops // 10) * (10 - writes_per_block)
        sets: List[int] = []
        live: List[int] = []  # ordinals of the script's live inserts
        inserts = writes = 0
        ops: List[tuple] = []
        while len(ops) < length:
            write_slots = set(rng.sample(range(10), writes_per_block))
            for slot in range(10):
                if slot not in write_slots:
                    if not sets:
                        sets = [r for r, c in enumerate(self.zipf_counts(per_round))
                                for _ in range(c)]
                        rng.shuffle(sets)
                    ops.append(("q", sets.pop()))
                elif writes % 3 == 2 and live:
                    ops.append(("delete", live.pop(rng.randrange(len(live)))))
                    writes += 1
                else:
                    payload = np.array([rng.random() for _ in range(4)])
                    ops.append(("insert", payload))
                    live.append(inserts)
                    inserts += 1
                    writes += 1
        return ops[:length]

    def setup(self, pool):
        now = time.process_time
        t0 = now()
        space = uniform(self.n, DATA_SEED)
        t1 = now()
        engine = open_engine(space, seed=DATA_SEED)
        service = QueryService(
            engine, ServiceConfig(workers=self.workers, io_model=False)
        )
        subscription = service.subscribe_sync(pool[0], K, "pba2")
        return service, subscription, t1 - t0, now() - t0

    # runs -------------------------------------------------------------
    async def _client(self, service, subscription, pool, script, deadline,
                      round_ops, inserted: Dict[int, object], deleted: set,
                      ops: List[Op], probe=None, recorder=None, root_id=None):
        ordinals: List[int] = []
        for i, (kind, arg) in enumerate(script):
            # whole rounds only, so every run has the same mix of ops
            if i and i % round_ops == 0 and (
                deadline is None or time.perf_counter() >= deadline
            ):
                break
            if probe is not None:
                probe.tick()
            frame = recorder.begin(root_id, op=i) if recorder else None
            started, t0 = time.perf_counter(), time.process_time()
            try:
                op = await self._one(service, pool, kind, arg, ordinals, inserted, deleted)
                try:
                    await service.poll(subscription)
                except Exception:  # counted as a failed op, reported by run.py
                    op.outcome = ERROR
            finally:
                if frame is not None:
                    recorder.finish(frame)
            op.slot_s = time.process_time() - t0
            op.started, op.ended = started, time.perf_counter()
            ops.append(op)

    async def _one(self, service, pool, kind, arg, ordinals, inserted, deleted) -> Op:
        now = time.process_time
        t0 = now()
        op_kind = "pba2" if kind == "q" else kind
        try:
            if kind == "q":
                resp = await service.query(pool[arg], K, "pba2")
                executed = not (resp.cached or resp.coalesced)
                return Op(
                    op_kind,
                    (now() - t0) * 1e3,
                    OK,
                    resp.stats.distance_computations if executed else None,
                    resp.stats.io.page_faults if executed else None,
                    resp.stats.exact_score_computations if executed else 0,
                    cached=resp.cached,
                    coalesced=resp.coalesced,
                )
            if kind == "insert":
                object_id = await service.insert(arg)
                ordinals.append(object_id)
                inserted[object_id] = arg
                outcome = OK
            else:
                object_id = ordinals[arg]
                outcome = OK if await service.delete(object_id) else ERROR
                deleted.add(object_id)
        except _REJECTIONS:
            return Op(op_kind, (now() - t0) * 1e3, REJECTED)
        except Exception:  # counted as a failed op, reported by run.py
            return Op(op_kind, (now() - t0) * 1e3, ERROR)
        return Op(op_kind, (now() - t0) * 1e3, outcome)

    def _timed(self, service, subscription, pool, script, deadline, round_ops,
               probe=None, recorder=None, root_id=None):
        inserted: Dict[int, object] = {}
        deleted: set = set()
        ops: List[Op] = []
        started = time.process_time()
        asyncio.run(self._client(service, subscription, pool, script, deadline, round_ops,
                                 inserted, deleted, ops, probe, recorder, root_id))
        elapsed = time.process_time() - started
        return ops, inserted, deleted, elapsed

    def _check(self, service, subscription, pool, inserted, deleted) -> List[str]:
        """Oracle on the final data set: the standing result and every
        pool query set, answered through the service."""
        payloads = list(uniform(self.n, DATA_SEED).payload(i) for i in range(self.n))
        top = max(inserted, default=self.n - 1)
        for object_id in range(self.n, top + 1):
            payloads.append(inserted.get(object_id, payloads[0]))
        oracle = MetricSpace(payloads, ManhattanMetric())
        live = [i for i in range(self.n)] + sorted(set(inserted) - deleted)
        checks = []
        service.poll_sync(subscription)
        for set_idx, query_ids in enumerate(pool):
            scores = brute_force_scores(oracle, query_ids, universe=live)
            if set_idx == 0:
                ok = answer_matches(subscription.result, scores, K)
                checks.append(OK if ok else MISMATCH)
            try:
                resp = service.query_sync(query_ids, K, "pba2")
            except Exception:  # counted as a failed check
                checks.append(ERROR)
                continue
            checks.append(OK if answer_matches(resp.results, scores, K) else MISMATCH)
        return checks

    def run(self, seed: int, seconds: float) -> Outcome:
        oracle = uniform(self.n, DATA_SEED)
        pool = self.pool(oracle)
        script = self.script(seed, MAX_ROUNDS * self.round_ops)
        probe = SpeedProbe()
        out = Outcome(self.clock, [], [], 0.0, probe=probe)
        service = None
        for _ in range(SETUP_REPS):
            if service is not None:
                service.close()
                service = subscription = None  # both hold the engine
            (service, subscription, _gen, total), scale = probed(
                probe, lambda: self.setup(pool)
            )
            out.raw_setup_s.append(total)
            out.setup_s.append(total * scale)
        out.problems += [f"patched: {v}" for v in layers.pristine_violations()]
        deadline = time.perf_counter() + seconds
        try:
            ops, inserted, deleted, _elapsed = self._timed(
                service, subscription, pool, script, deadline, self.round_ops, probe
            )
            probe.probe(MIN_PROBES)
            out.peak_rss_mb = peak_rss_mb()
            out.problems += [f"patched: {v}" for v in layers.pristine_violations()]
            out.ops = ops
            out.scale_ops()
            out.checks = self._check(service, subscription, pool, inserted, deleted)
        finally:
            service.close()
        return out

    def run_traced(self, seed: int) -> Outcome:
        oracle = uniform(self.n, DATA_SEED)
        pool = self.pool(oracle)
        script = self.script(seed, self.trace_ops)
        service, subscription, gen, total = self.setup(pool)
        try:
            _ops, _ins, _del, untraced = self._timed(
                service, subscription, pool, script, None, self.trace_ops
            )
        finally:
            service.close()

        recorder = spans.Recorder()
        inst = layers.Instrumentation(recorder)
        with inst:
            service, subscription, _gen, _total = self.setup(pool)
            try:
                service._pool = spans.ContextCopyingPool(service._pool)
                engine = service.engine
                before = _counters(engine)
                ops, inserted, deleted, traced = self._timed(
                    service, subscription, pool, script, None, self.trace_ops,
                    recorder=recorder, root_id=inst.root_id,
                )
                after = _counters(engine)
                maintainer = subscription.maintainer
                streaming = dict(maintainer.counters)
            except BaseException:
                service.close()
                raise
        out = Outcome(self.clock, [total], ops, traced)
        out.problems += [f"left patched: {v}" for v in layers.pristine_violations()]
        try:
            out.checks = self._check(service, subscription, pool, inserted, deleted)
        finally:
            service.close()
        counters = {k: after[k] - before[k] for k in after}
        queries = sum(op.is_query for op in ops)
        counters.update(
            exact_scores=sum(op.exact_scores for op in ops),
            repairs=streaming["repairs"],
            recomputes=streaming["recomputes"],
            cache_hit_ratio=_share(sum(op.cached for op in ops), queries),
            coalesced_ratio=_share(sum(op.coalesced for op in ops), queries),
            trace_overhead_ratio=traced / untraced if untraced else 0.0,
            generate_s=gen,
        )
        _finish_trace(out, inst, counters, ops=len(ops), queries=queries,
                      writes=len(ops) - queries)
        return out


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


WORKLOADS = {
    "uni-read": ReadWorkload(
        "uni-read", uniform, uniform, n=1000, index="mtree",
        algorithms=("sba", "aba", "pba1", "pba2"), coverage=(0.1, 0.5),
        num_sets=80, trace_sets=24, min_passes=2,
    ),
    # one SBA per two PBA2: with an even mix the pooled median would sit
    # in the gap between SBA (~250 ms) and PBA2 (~20 ms) latencies
    "cal-read": ReadWorkload(
        "cal-read", california, cal_oracle, n=500, index="pmtree",
        algorithms=("sba", "pba2", "pba2"), coverage=(0.2, 0.2),
        num_sets=102, trace_sets=24,
    ),
    "uni-churn": ChurnWorkload(
        n=1000, pool_size=32, coverage=0.2, zipf_s=1.1, write_frac=0.3,
        workers=2, round_ops=680, trace_ops=80,
    ),
}
