"""Percentiles, failure accounting and the result line."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: percentiles the tail rule chooses from, highest first
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

OK, ERROR, REJECTED, MISMATCH = "ok", "error", "rejected", "mismatch"


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``p`` percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    return ordered[_rank(len(ordered), p) - 1]


def _rank(n: int, p: float) -> int:
    # rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n: int, p: float) -> int:
    """Samples ranked above the nearest-rank ``p`` percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with >= 10 samples beyond it
    (the median when there are too few samples for any other)."""
    for p in TAIL_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            return p
    return 50.0


def latency_summary(samples_ms: Sequence[float]) -> Dict[str, float]:
    """Median, the tail percentile the rule allows, and sample counts."""
    n = len(samples_ms)
    p = tail_percentile(n)
    return {
        "n": n,
        "p50": statistics.median(samples_ms),
        "tail_p": p,
        "tail": percentile(samples_ms, p),
        "beyond": beyond(n, p),
    }


def failure_counts(outcomes: Iterable[str]) -> Tuple[int, int]:
    """``(attempted, failed)``: every outcome other than ``ok`` fails —
    exceptions, typed rejections and oracle mismatches alike."""
    attempted = failed = 0
    for outcome in outcomes:
        if outcome not in (OK, ERROR, REJECTED, MISMATCH):
            raise ValueError(f"unknown outcome {outcome!r}")
        attempted += 1
        failed += outcome != OK
    return attempted, failed


def failed_frac(outcomes: Iterable[str]) -> float:
    attempted, failed = failure_counts(outcomes)
    return failed / attempted if attempted else 0.0


def format_table(rows: List[Tuple[str, float, str, str]]) -> str:
    """``name  value unit  note`` lines for the human-readable report."""
    width = max((len(r[0]) for r in rows), default=0)
    return "\n".join(
        f"  {name:<{width}}  {value:>14.6g} {unit:<6} {note}".rstrip()
        for name, value, unit, note in rows
    )
