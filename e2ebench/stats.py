"""Summary statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, List, Sequence, Tuple

#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it: ``(value, percentile, sample count)``.

    With ``n`` sorted samples the value at rank ``n - 10`` (1-based) has
    exactly ten samples above it, so it is the ``100 * (n - 10) / n``-th
    percentile.  Fewer than eleven samples have no such percentile and
    give the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), 50.0, n
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, n


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def layer_summary(spans: List[Dict], self_time: Dict[int, float]
                  ) -> Dict[str, Dict[str, float]]:
    """``{span name: {"calls", "total_s", "self_s"}}``."""
    out: Dict[str, Dict[str, float]] = {}
    for idx, span in enumerate(spans):
        row = out.setdefault(span["name"],
                             {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += self_time[idx]
    return out
