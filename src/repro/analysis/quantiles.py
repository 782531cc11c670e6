"""Quantile and overhead computations used by every experiment.

The paper reports P50/P90/P99 end-to-end latency and aggregate CPU time,
expressed as *relative change versus the singular configuration*
(Figures 6, 7, 16): ``overhead_q = (Q_q(config) - Q_q(singular)) / Q_q(singular)``.
"""

from __future__ import annotations

import numpy as np

#: The quantiles every figure reports.
QUANTILES = (50, 90, 99)


def quantile(values, q: float) -> float:
    """Percentile with linear interpolation (numpy default)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a quantile of no samples")
    return float(np.percentile(arr, q))


def overhead_vs_baseline(values, baseline, q: float) -> float:
    """Relative change of a quantile versus the baseline configuration."""
    base = quantile(baseline, q)
    if base <= 0:
        raise ValueError("baseline quantile must be positive")
    return (quantile(values, q) - base) / base


def median_window_mean_columns(
    columns: dict[str, "np.ndarray"],
    keyed_by,
    lo_pct: float = 40.0,
    hi_pct: float = 60.0,
) -> dict[str, float]:
    """Columnar :func:`median_window_mean`: one array per stack bucket.

    Operates directly on a ``RunResult``'s preallocated stack columns, so
    figure generation never rebuilds per-request dicts.
    """
    keys = np.asarray(keyed_by, dtype=float)
    for bucket, column in columns.items():
        if len(column) != keys.size:
            raise ValueError(f"column {bucket} does not align with keys")
    lo, hi = np.percentile(keys, [lo_pct, hi_pct])
    mask = (keys >= lo) & (keys <= hi)
    chosen = int(mask.sum())
    if chosen == 0:
        return {bucket: float(np.mean(col)) for bucket, col in columns.items()}
    return {bucket: float(col[mask].sum() / chosen) for bucket, col in columns.items()}


def median_window_mean(samples: list[dict[str, float]], keyed_by: list[float],
                       lo_pct: float = 40.0, hi_pct: float = 60.0) -> dict[str, float]:
    """Mean of per-request stacks across the median window of a key metric.

    "P50 stacks" in the paper break down the *median request*; averaging
    the stacks of requests between the 40th and 60th percentile of the key
    metric (e.g. E2E latency) gives a stable estimate of it.
    """
    if len(samples) != len(keyed_by):
        raise ValueError("samples and keys must align")
    keys = np.asarray(keyed_by, dtype=float)
    lo, hi = np.percentile(keys, [lo_pct, hi_pct])
    chosen = [s for s, k in zip(samples, keys) if lo <= k <= hi] or list(samples)
    merged: dict[str, float] = {}
    for stack in chosen:
        for bucket, value in stack.items():
            merged[bucket] = merged.get(bucket, 0.0) + value
    return {bucket: value / len(chosen) for bucket, value in merged.items()}
