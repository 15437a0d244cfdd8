"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload uni-read --seed 1 --seconds 15 --trace 0

``--trace 0`` runs untraced and reports the end-to-end metrics;
``--trace 1`` runs a fixed traced pass and reports the per-layer
metrics.  A human-readable report goes first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every op and every
oracle check succeeded.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STATE_DIR = os.path.join(ROOT, ".bench_state")

#: (name, unit) of every end-to-end metric in the result line, in the
#: order of BENCHMARK.json
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("dist_per_query", "count"),
    ("faults_per_query", "count"),
    ("peak_rss_mb", "MB"),
)

#: workloads whose counters must repeat exactly for one seed
DETERMINISTIC = ("uni-read", "cal-read")


def source_digest() -> str:
    """Hash of the library and benchmark sources: determinism records
    are only compared between runs of the same code."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def check_determinism(workload: str, seed: int, trace: int, fingerprint) -> List[str]:
    """Compare this run's counters with an earlier run of the same code
    and seed (kept under ``.bench_state/``); record them if new."""
    path = os.path.join(STATE_DIR, "determinism.json")
    key = f"{workload}|seed={seed}|trace={trace}|src={source_digest()}"
    record = json.loads(json.dumps(fingerprint))
    try:
        with open(path) as f:
            known = json.load(f)
    except FileNotFoundError:
        known = {}
    if key in known:
        if known[key] != record:
            diff = sorted(
                k for k in set(record) | set(known[key])
                if record.get(k) != known[key].get(k)
            )
            return [f"determinism: counters differ from an earlier run of {key}: {diff}"]
        return []
    known[key] = record
    os.makedirs(STATE_DIR, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(known, f)
    os.replace(tmp, path)
    return []


def pin_to_one_cpu() -> None:
    """Run this thread and every thread it starts on one CPU: the speed
    probe then measures the core the ops run on (the CPUs of a shared
    VM slow down independently of each other)."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def write_spans(workload: str, seed: int, table, names) -> str:
    import numpy as np

    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"spans-{workload}.npz")
    np.savez(path, names=np.array(names), seed=seed, **table)
    return path


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def end_to_end(outcome, workload) -> Tuple[Dict[str, float], List[Tuple[str, float, str, str]]]:
    """The result-line metrics and the full human-readable table."""
    from perfbench import summary
    from perfbench.summary import ERROR, REJECTED

    done = [op for op in outcome.ops if op.outcome not in (ERROR, REJECTED)]
    queries = [op.scaled_ms for op in done if op.is_query]
    writes = [op.scaled_ms for op in done if not op.is_query]
    raw_queries = [op.latency_ms for op in done if op.is_query]
    if workload.name in DETERMINISTIC:
        # the fixed prefix of the schedule: these repeat exactly per seed
        dist = [d for d in outcome.fingerprint["distances"] if d is not None]
        faults = [f for f in outcome.fingerprint["faults"] if f is not None]
    else:
        executed = [op for op in done if op.is_query and op.distances is not None]
        dist = [op.distances for op in executed]
        faults = [op.faults for op in executed]
    clock = {"thread_cpu": "thread CPU", "process_cpu": "process CPU"}[outcome.clock]
    clock += ", scaled"
    rows: List[Tuple[str, float, str, str]] = []
    values: Dict[str, float] = {}

    def add(name, value, unit, note, result_line=True):
        rows.append((name, value, unit, note))
        if result_line:
            values[name] = value

    add("setup_s", statistics.median(outcome.setup_s), "s",
        f"median of {len(outcome.setup_s)} set-ups, {clock} "
        f"(unscaled {statistics.median(outcome.raw_setup_s):.6g})")
    q = summary.latency_summary(queries)
    add("query_p50_ms", q["p50"], "ms",
        f"n={q['n']}, {clock} (unscaled {statistics.median(raw_queries):.6g})")
    add("query_p90_ms", summary.percentile(queries, 90), "ms",
        f"n={q['n']}, {summary.beyond(q['n'], 90)} beyond; tail rule picks "
        f"p{q['tail_p']:g}={q['tail']:.6g} ({q['beyond']} beyond)")
    add("ops_per_s", len(done) / outcome.timed_s, "1/s",
        f"{len(done)} ops in {outcome.timed_s:.3f} s, {clock} "
        f"(unscaled {outcome.raw_timed_s:.3f} s)")
    add("dist_per_query", _mean(dist), "count", f"n={len(dist)} executed queries")
    add("faults_per_query", _mean(faults), "count", f"n={len(faults)} executed queries")
    add("peak_rss_mb", outcome.peak_rss_mb, "MB", "ru_maxrss after the timed phase")
    for algorithm in ("sba", "aba", "pba1", "pba2"):
        lat = [op.scaled_ms for op in done if op.kind == algorithm]
        if lat:
            add(f"{algorithm}_p50_ms", statistics.median(lat), "ms",
                f"n={len(lat)}, {clock}", result_line=False)
    if writes:
        w = summary.latency_summary(writes)
        add("write_p50_ms", w["p50"], "ms", f"n={w['n']}, {clock}", result_line=False)
        add("write_p90_ms", summary.percentile(writes, 90), "ms",
            f"n={w['n']}, {summary.beyond(w['n'], 90)} beyond", result_line=False)
    attempted, failed = summary.failure_counts(outcome.outcomes())
    add("failed_frac", summary.failed_frac(outcome.outcomes()), "ratio",
        f"{failed} of {attempted} ops and oracle checks", result_line=False)
    return values, rows


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: error: no library source at {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    pin_to_one_cpu()
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench import layers, speed, summary, workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.trace:
        outcome = workload.run_traced(args.seed)
        metrics = {
            name: {"value": outcome.layer_metrics[name], "unit": unit}
            for name, unit, _better in layers.PER_LAYER
        }
        print(f"{args.workload} seed={args.seed} traced: {len(outcome.ops)} ops, "
              f"{len(outcome.span_table['id'])} spans")
        print(summary.format_table(
            [(n, m["value"], m["unit"], "") for n, m in metrics.items()]
        ))
    else:
        outcome = workload.run(args.seed, args.seconds)
        values, rows = end_to_end(outcome, workload)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        probes, probe_s = outcome.probe.summary()
        print(f"{args.workload} seed={args.seed}: {len(outcome.ops)} ops in "
              f"{outcome.timed_s:.3f} s; {probes} speed probes, median "
              f"{probe_s * 1e3:.4g} ms (reference {speed.REFERENCE_S * 1e3:g} ms)")
        print(summary.format_table(rows))
    problems = list(outcome.problems)
    if args.workload in DETERMINISTIC:
        problems += check_determinism(
            args.workload, args.seed, args.trace, outcome.fingerprint
        )
    if args.trace:
        analysis_path = write_spans(
            args.workload, args.seed, outcome.span_table, outcome.span_names
        )
        print(f"spans written to {os.path.relpath(analysis_path, ROOT)}")
    attempted, failed = summary.failure_counts(outcome.outcomes())
    failed += len(problems)
    attempted += len(problems)
    for problem in problems:
        print(f"FAILED: {problem}")
    bad = [op for op in outcome.ops if op.outcome != summary.OK]
    for op in bad[:20]:
        print(f"FAILED: {op.kind} op: {op.outcome}")
    if len(bad) > 20:
        print(f"FAILED: ... {len(bad) - 20} more ops")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
