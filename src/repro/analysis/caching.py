"""Frequency-based caching analysis over embedding access traces.

Implements the trace-driven DRAM-reduction study the paper recommends
(Section IX, after Bandana): given an offline access trace, how much of a
table's traffic does a small in-DRAM cache capture, with the remainder
served from slower storage?

Two cache policies are evaluated:

* **frequency** (offline-optimal static placement): pin the top-K rows by
  trace frequency -- what a Bandana-style offline pass would provision;
* **LRU** (online): a classic recency cache simulated over the trace,
  the deployable baseline.

Zipf-skewed production accesses make small caches disproportionately
effective, which is the quantitative basis for serving huge tables from
a DRAM cache over flash.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.requests.access_trace import AccessTrace


@dataclass(frozen=True)
class CachePoint:
    """Hit rate of one (table, policy, cache-size) evaluation."""

    table_name: str
    policy: str
    cache_fraction: float
    cache_rows: int
    hit_rate: float


def working_set_rows(accesses: np.ndarray) -> int:
    """Distinct rows touched by the trace (the table's working set)."""
    if accesses.size == 0:
        return 0
    return int(np.unique(accesses).size)


def frequency_hit_rate(accesses: np.ndarray, num_rows: int, cache_fraction: float) -> float:
    """Hit rate of pinning the hottest ``cache_fraction`` of the working set.

    Cache sizes are expressed relative to the *observed working set*
    (distinct rows in the trace), not the raw hash-bucket count: embedding
    tables are sized for collision avoidance, so most rows are never
    touched in any finite window, and a bucket-relative fraction would be
    trivially large.  This is the framing Bandana uses ("effective DRAM").
    """
    if not 0.0 < cache_fraction <= 1.0:
        raise ValueError("cache_fraction must be in (0, 1]")
    if accesses.size == 0:
        return 0.0
    cache_rows = max(1, int(working_set_rows(accesses) * cache_fraction))
    _, counts = np.unique(accesses, return_counts=True)
    counts = np.sort(counts)[::-1]
    return float(counts[:cache_rows].sum() / accesses.size)


def lru_hit_rate(accesses: np.ndarray, num_rows: int, cache_fraction: float) -> float:
    """Hit rate of an LRU cache sized at ``cache_fraction`` of the
    working set, simulated over the access stream."""
    if not 0.0 < cache_fraction <= 1.0:
        raise ValueError("cache_fraction must be in (0, 1]")
    if accesses.size == 0:
        return 0.0
    capacity = max(1, int(working_set_rows(accesses) * cache_fraction))
    cache: OrderedDict[int, None] = OrderedDict()
    hits = 0
    for row in accesses.tolist():
        if row in cache:
            hits += 1
            cache.move_to_end(row)
        else:
            cache[row] = None
            if len(cache) > capacity:
                cache.popitem(last=False)
    return hits / accesses.size


def cache_curve(
    trace: AccessTrace,
    table_name: str,
    fractions=(0.01, 0.05, 0.10, 0.25, 0.50),
    policies=("frequency", "lru"),
) -> list[CachePoint]:
    """Hit-rate curve for one table across cache sizes and policies."""
    accesses = trace.accesses[table_name]
    num_rows = trace.num_rows[table_name]
    evaluators = {"frequency": frequency_hit_rate, "lru": lru_hit_rate}
    points = []
    for policy in policies:
        evaluate = evaluators[policy]
        for fraction in fractions:
            points.append(
                CachePoint(
                    table_name=table_name,
                    policy=policy,
                    cache_fraction=fraction,
                    cache_rows=max(1, int(num_rows * fraction)),
                    hit_rate=evaluate(accesses, num_rows, fraction),
                )
            )
    return points


def trace_hit_summary(
    trace: AccessTrace, cache_fraction: float = 0.10, policy: str = "lru"
) -> dict[str, float]:
    """Per-table hit rate at one cache size, plus the trace-wide rate.

    The ``"overall"`` entry weights each table by its access volume --
    the number a serving tier actually experiences when every table gets
    the same relative DRAM budget.  Recency-correlated streams
    (:class:`~repro.requests.access_trace.CorrelatedStream`) raise the
    LRU numbers over i.i.d. popularity draws; comparing the two
    quantifies how much a deployable cache gains from temporal locality.
    """
    evaluators = {"frequency": frequency_hit_rate, "lru": lru_hit_rate}
    evaluate = evaluators[policy]
    summary: dict[str, float] = {}
    hits = 0.0
    total = 0
    for name in trace.tables():
        accesses = trace.accesses[name]
        rate = evaluate(accesses, trace.num_rows[name], cache_fraction)
        summary[name] = rate
        hits += rate * accesses.size
        total += accesses.size
    summary["overall"] = hits / total if total else 0.0
    return summary
