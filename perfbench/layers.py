"""Which library calls the traced run wraps, and the per-layer metrics.

Every wrapper is installed where its callers look the name up: methods
on their class, module functions in the defining module *and* in each
module that imported the name (``repro.core.pba.exact_score_aux``,
``repro.core.sba.metric_skyline``, ``repro.core.aba.range_query``).
:class:`Instrumentation` installs them for the traced run only and puts
the originals back afterwards; :func:`pristine_violations` lets the
untraced run prove that nothing is patched.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from perfbench import spans


class Target(NamedTuple):
    layer: str
    owner: str  # "module" or "module:Class"
    attr: str
    aliases: Tuple[str, ...] = ()  # further modules that import the name
    count: Optional[Callable] = None  # tally hook, see spans.wrap_callable


def _batch(args, kwargs, result):
    return len(args[2]) if len(args) > 2 else len(kwargs["candidates"])


def _one(args, kwargs, item):
    return 1


TARGETS: Tuple[Target, ...] = (
    Target("metric", "repro.metric.counting:CountingMetric", "__call__"),
    Target("metric", "repro.metric.counting:CountingMetric", "pairwise",
           count=_batch),
    Target("metric", "repro.metric.graph:ShortestPathMetric", "__call__"),
    Target("mtree", "repro.mtree.tree:MTree", "build"),
    Target("mtree", "repro.mtree.tree:MTree", "insert"),
    Target("mtree", "repro.mtree.tree:MTree", "delete"),
    Target("mtree", "repro.mtree.queries:IncrementalNNCursor", "__next__"),
    Target("mtree", "repro.mtree.queries", "range_query",
           aliases=("repro.core.aba",)),
    Target("mtree", "repro.mtree.queries", "knn_query"),
    Target("pmtree", "repro.pmtree.tree:PMTree", "build"),
    Target("pmtree", "repro.pmtree.tree:PMTree", "query_filter"),
    Target("pmtree", "repro.pmtree.tree:PMTree", "skyline_filter"),
    # the filters PMTree returns are private classes with __slots__, so
    # their bound methods are wrapped on the class
    Target("pmtree", "repro.pmtree.tree:_HyperRingQueryFilter", "object_bound"),
    Target("pmtree", "repro.pmtree.tree:_HyperRingQueryFilter", "node_bound"),
    Target("pmtree", "repro.pmtree.tree:_HyperRingSkylineFilter",
           "object_bounds"),
    Target("pmtree", "repro.pmtree.tree:_HyperRingSkylineFilter",
           "node_bounds"),
    Target("storage", "repro.storage.buffer:LRUBuffer", "get"),
    Target("storage", "repro.storage.buffer:LRUBuffer", "put"),
    Target("storage", "repro.storage.buffer:LRUBuffer", "new_page"),
    Target("btree", "repro.btree.bplustree:BPlusTree", "get"),
    Target("btree", "repro.btree.bplustree:BPlusTree", "insert"),
    Target("btree", "repro.btree.bplustree:BPlusTree", "update"),
    Target("btree", "repro.btree.bplustree:BPlusTree", "delete"),
    Target("btree", "repro.btree.bplustree:BPlusTree", "items"),
    Target("aux", "repro.core.aux_index:AuxBPlusTree", "get"),
    Target("aux", "repro.core.aux_index:AuxBPlusTree", "record"),
    Target("aux", "repro.core.aux_index:AuxBPlusTree", "update"),
    Target("aux", "repro.core.aux_index:AuxBPlusTree", "records"),
    Target("aux", "repro.core.aux_index:AuxBPlusTree", "note_retrieval"),
    Target("aux", "repro.core.aux_index:RetrievalLog", "append"),
    Target("aux", "repro.core.aux_index:RetrievalLog", "scan_backward"),
    Target("scoring", "repro.core.scoring", "exact_score_reverse_scan",
           aliases=("repro.core.pba",)),
    Target("scoring", "repro.core.scoring", "exact_score_aux",
           aliases=("repro.core.pba",)),
    Target("dominance", "repro.core.dominance:DominatorSet", "add"),
    Target("dominance", "repro.core.dominance:DominatorSet", "dominates"),
    Target("dominance", "repro.core.dominance:DominanceMatrix", "score"),
    Target("dominance", "repro.core.dominance:DistanceVectorSource", "vector"),
    Target("skyline", "repro.skyline.b2ms2", "metric_skyline",
           aliases=("repro.core.sba", "repro.skyline")),
    Target("skyline", "repro.skyline.b2ms2", "metric_skyline_cursor",
           count=_one),
    Target("anns", "repro.anns.mbm:AggregateNNCursor", "__next__"),
    Target("algo", "repro.core.sba:SBA", "run"),
    Target("algo", "repro.core.aba:ABA", "run"),
    Target("algo", "repro.core.pba:PBA1", "run"),
    Target("algo", "repro.core.pba:PBA2", "run"),
    Target("engine", "repro.core.engine:TopKDominatingEngine",
           "top_k_dominating"),
    Target("engine", "repro.core.engine:TopKDominatingEngine", "insert_object"),
    Target("engine", "repro.core.engine:TopKDominatingEngine", "delete_object"),
    Target("streaming", "repro.streaming.continuous:ContinuousTopK",
           "add_object"),
    Target("streaming", "repro.streaming.continuous:ContinuousTopK",
           "remove_object"),
    Target("service", "repro.service.server:QueryService", "query"),
    Target("service", "repro.service.server:QueryService", "insert"),
    Target("service", "repro.service.server:QueryService", "delete"),
    Target("service", "repro.service.server:QueryService", "poll"),
    Target("service", "repro.service.server:ReadWriteLock", "acquire_read"),
    Target("service", "repro.service.server:ReadWriteLock", "acquire_write"),
)

#: the benchmark's own root span around each op
ROOT = "bench.op"


def span_name(target: Target) -> str:
    return f"{target.layer}:{target.owner.split(':')[-1].split('.')[-1]}.{target.attr}"


def _resolve(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def _owners(target: Target) -> List[object]:
    return [_resolve(target.owner)] + [_resolve(m) for m in target.aliases]


def _lookup(owner, attr):
    """The raw object a caller finds: owner's own entry or inherited."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
        raise AttributeError(f"{owner.__name__}.{attr}")
    return vars(owner)[attr]


#: what every wrapped name is bound to before anything is installed
ORIGINALS: Dict[Tuple[int, str], object] = {
    (id(owner), t.attr): _lookup(owner, t.attr)
    for t in TARGETS
    for owner in _owners(t)
}


def pristine_violations() -> List[str]:
    """Names that are not bound to their original object right now."""
    bad = []
    for t in TARGETS:
        for owner in _owners(t):
            if _lookup(owner, t.attr) is not ORIGINALS[(id(owner), t.attr)]:
                bad.append(f"{t.owner}.{t.attr} ({owner.__name__})")
    return bad


class Instrumentation:
    """Installs every wrapper into one :class:`spans.Recorder`."""

    def __init__(self, recorder: spans.Recorder) -> None:
        self.recorder = recorder
        self.root_id = recorder.name_id(ROOT)
        self._undo: List[Tuple[object, str, bool, object]] = []
        self.layer_of: Dict[str, str] = {ROOT: "bench"}

    def install(self) -> None:
        for t in TARGETS:
            name = span_name(t)
            self.layer_of[name] = t.layer
            raw = _lookup(_resolve(t.owner), t.attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(
                    spans.wrap_callable(raw.__func__, self.recorder, name, t.count)
                )
            else:
                wrapped = spans.wrap_callable(raw, self.recorder, name, t.count)
            for owner in _owners(t):
                owned = t.attr in vars(owner)
                self._undo.append((owner, t.attr, owned, vars(owner).get(t.attr)))
                setattr(owner, t.attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, owned, raw = self._undo.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("metric.self_ms_per_op", "ms", "lower"),
    ("metric.calls_per_op", "count", "lower"),
    ("metric.distances_per_op", "count", "lower"),
    ("metric.batch_size", "count", "higher"),
    ("metric.dijkstra_runs_per_op", "count", "lower"),
    ("metric.row_cache_hit_ratio", "ratio", "higher"),
    ("mtree.self_ms_per_op", "ms", "lower"),
    ("mtree.cursor_steps_per_query", "count", "lower"),
    ("mtree.range_queries_per_query", "count", "lower"),
    ("mtree.build_s", "s", "lower"),
    ("mtree.insert_ms", "ms", "lower"),
    ("mtree.delete_ms", "ms", "lower"),
    ("pmtree.self_ms_per_op", "ms", "lower"),
    ("pmtree.build_s", "s", "lower"),
    ("pmtree.bound_calls_per_query", "count", "lower"),
    ("storage.self_ms_per_op", "ms", "lower"),
    ("storage.logical_reads_per_op", "count", "lower"),
    ("storage.index.hit_ratio", "ratio", "higher"),
    ("storage.aux.hit_ratio", "ratio", "higher"),
    ("storage.faults_per_op", "count", "lower"),
    ("btree.self_ms_per_op", "ms", "lower"),
    ("btree.calls_per_op", "count", "lower"),
    ("aux.self_ms_per_op", "ms", "lower"),
    ("aux.records_calls_per_query", "count", "lower"),
    ("aux.scan_backward_per_query", "count", "lower"),
    ("scoring.self_ms_per_query", "ms", "lower"),
    ("scoring.calls_per_query", "count", "lower"),
    ("scoring.exact_scores_per_query", "count", "lower"),
    ("dominance.self_ms_per_query", "ms", "lower"),
    ("dominance.tests_per_query", "count", "lower"),
    ("skyline.self_ms_per_query", "ms", "lower"),
    ("skyline.points_per_query", "count", "lower"),
    ("anns.self_ms_per_query", "ms", "lower"),
    ("anns.steps_per_query", "count", "lower"),
    ("algo.self_ms_per_query", "ms", "lower"),
    ("engine.self_ms_per_op", "ms", "lower"),
    ("streaming.repair_ms_per_write", "ms", "lower"),
    ("streaming.recompute_ratio", "ratio", "lower"),
    ("service.self_ms_per_op", "ms", "lower"),
    ("service.lock_wait_ms_per_op", "ms", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.coalesced_ratio", "ratio", "higher"),
    ("bench.self_ms_per_op", "ms", "lower"),
    ("bench.trace_overhead_ratio", "ratio", "lower"),
    ("datasets.generate_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class TraceAnalysis:
    """Self times, call counts and conservation of one traced pass."""

    def __init__(self, instrumentation: Instrumentation) -> None:
        recorder = instrumentation.recorder
        self.names = recorder.names
        self.tallies = dict(recorder.tallies)
        table = recorder.table()
        self.table = table
        self.self_ns = spans.self_times(
            table["id"], table["start"], table["end"], table["parent"]
        )
        self.conservation = spans.conservation_errors(
            table, self.self_ns, instrumentation.root_id
        )
        layer_of = instrumentation.layer_of
        self.in_op = table["op"] != spans.NO_SPAN
        self._name_layer = np.array(
            [layer_of.get(name, "other") for name in self.names], dtype=object
        )
        counts = np.bincount(table["name"][self.in_op], minlength=len(self.names))
        # calls inside ops; a generator function's spans are its steps,
        # so its calls come from a tally
        self.calls = {
            name: self.tallies.get(name + spans.CALLS, int(c))
            for name, c in zip(self.names, counts)
        }

    def layer_self_ms(self, layer: str) -> float:
        """Self time of the layer's spans inside ops, in ms."""
        ids = [i for i, lay in enumerate(self._name_layer) if lay == layer]
        mask = self.in_op & np.isin(self.table["name"], ids)
        return float(self.self_ns[mask].sum()) / 1e6

    def _spans_of(self, suffixes, in_op: Optional[bool] = True):
        ids = [i for i, n in enumerate(self.names) if n.endswith(suffixes)]
        mask = np.isin(self.table["name"], ids)
        if in_op is not None:
            mask &= self.in_op if in_op else ~self.in_op
        return self.table["end"][mask] - self.table["start"][mask]

    def inclusive_ms(self, suffixes, in_op: Optional[bool] = True) -> float:
        return float(self._spans_of(suffixes, in_op).sum()) / 1e6

    def mean_ms(self, suffixes) -> float:
        durations = self._spans_of(suffixes)
        return float(durations.mean()) / 1e6 if len(durations) else 0.0

    def count(self, *suffixes: str) -> int:
        return sum(c for n, c in self.calls.items() if n.endswith(suffixes))

    def tally(self, suffix: str) -> int:
        return sum(v for k, v in self.tallies.items() if k.endswith(suffix))

    def layer_calls(self, layer: str) -> int:
        return sum(n for k, n in self.calls.items() if k.startswith(layer + ":"))


def per_layer_metrics(
    analysis: TraceAnalysis,
    *,
    ops: int,
    queries: int,
    writes: int,
    counters: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric; 0 where a layer is unused.

    ``counters`` carries library counter deltas over the traced pass
    (``distances``, ``dijkstra_runs``, per-buffer IOStats fields,
    ``exact_scores``, streaming ``repairs``/``recomputes``, service
    ``cache_hit_ratio``/``coalesced_ratio``) and the benchmark's own
    timings (``trace_overhead_ratio``, ``generate_s``).
    """
    a = analysis
    per_op = lambda x: _ratio(x, ops)  # noqa: E731
    per_q = lambda x: _ratio(x, queries)  # noqa: E731
    c = counters
    metric_calls = a.count("CountingMetric.__call__", "CountingMetric.pairwise")
    sp_calls = a.count("ShortestPathMetric.__call__")
    logical = c["index_logical_reads"] + c["aux_logical_reads"]
    return {
        "metric.self_ms_per_op": per_op(a.layer_self_ms("metric")),
        "metric.calls_per_op": per_op(metric_calls),
        "metric.distances_per_op": per_op(c["distances"]),
        "metric.batch_size": _ratio(
            a.tally("CountingMetric.pairwise"), a.count("CountingMetric.pairwise")
        ),
        "metric.dijkstra_runs_per_op": per_op(c["dijkstra_runs"]),
        "metric.row_cache_hit_ratio": _ratio(sp_calls - c["dijkstra_runs"], sp_calls),
        "mtree.self_ms_per_op": per_op(a.layer_self_ms("mtree")),
        "mtree.cursor_steps_per_query": per_q(a.count("IncrementalNNCursor.__next__")),
        "mtree.range_queries_per_query": per_q(a.count(".range_query")),
        "mtree.build_s": a.inclusive_ms((":MTree.build",), in_op=False) / 1e3,
        "mtree.insert_ms": a.mean_ms((":MTree.insert",)),
        "mtree.delete_ms": a.mean_ms((":MTree.delete",)),
        "pmtree.self_ms_per_op": per_op(a.layer_self_ms("pmtree")),
        "pmtree.build_s": a.inclusive_ms((":PMTree.build",), in_op=False) / 1e3,
        "pmtree.bound_calls_per_query": per_q(
            a.count(".object_bound", ".node_bound", ".object_bounds", ".node_bounds")
        ),
        "storage.self_ms_per_op": per_op(a.layer_self_ms("storage")),
        "storage.logical_reads_per_op": per_op(logical),
        "storage.index.hit_ratio": _ratio(
            c["index_buffer_hits"],
            c["index_logical_reads"] + c["index_logical_writes"],
        ),
        "storage.aux.hit_ratio": _ratio(
            c["aux_buffer_hits"], c["aux_logical_reads"] + c["aux_logical_writes"]
        ),
        "storage.faults_per_op": per_op(
            c["index_page_faults"] + c["aux_page_faults"]
        ),
        "btree.self_ms_per_op": per_op(a.layer_self_ms("btree")),
        "btree.calls_per_op": per_op(a.layer_calls("btree")),
        "aux.self_ms_per_op": per_op(a.layer_self_ms("aux")),
        "aux.records_calls_per_query": per_q(a.count("AuxBPlusTree.records")),
        "aux.scan_backward_per_query": per_q(a.count("RetrievalLog.scan_backward")),
        "scoring.self_ms_per_query": per_q(a.layer_self_ms("scoring")),
        "scoring.calls_per_query": per_q(a.layer_calls("scoring")),
        "scoring.exact_scores_per_query": per_q(c["exact_scores"]),
        "dominance.self_ms_per_query": per_q(a.layer_self_ms("dominance")),
        "dominance.tests_per_query": per_q(
            a.count("DominatorSet.dominates", "DominanceMatrix.score")
        ),
        "skyline.self_ms_per_query": per_q(a.layer_self_ms("skyline")),
        "skyline.points_per_query": per_q(a.tally("metric_skyline_cursor")),
        "anns.self_ms_per_query": per_q(a.layer_self_ms("anns")),
        "anns.steps_per_query": per_q(a.count("AggregateNNCursor.__next__")),
        "algo.self_ms_per_query": per_q(a.layer_self_ms("algo")),
        "engine.self_ms_per_op": per_op(a.layer_self_ms("engine")),
        "streaming.repair_ms_per_write": _ratio(
            a.inclusive_ms(("ContinuousTopK.add_object", "ContinuousTopK.remove_object")),
            writes,
        ),
        "streaming.recompute_ratio": _ratio(
            c["recomputes"], c["repairs"] + c["recomputes"]
        ),
        "service.self_ms_per_op": per_op(a.layer_self_ms("service")),
        "service.lock_wait_ms_per_op": per_op(
            a.inclusive_ms(("ReadWriteLock.acquire_read", "ReadWriteLock.acquire_write"))
        ),
        "service.cache_hit_ratio": c["cache_hit_ratio"],
        "service.coalesced_ratio": c["coalesced_ratio"],
        "bench.self_ms_per_op": per_op(a.layer_self_ms("bench")),
        "bench.trace_overhead_ratio": c["trace_overhead_ratio"],
        "datasets.generate_s": c["generate_s"],
    }
