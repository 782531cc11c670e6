"""Analysis: quantiles, overheads, stack aggregation, text reports."""

from repro.analysis.caching import (
    CachePoint,
    cache_curve,
    frequency_hit_rate,
    lru_hit_rate,
    working_set_rows,
)
from repro.analysis.bench import record_benchmark
from repro.analysis.quantiles import (
    QUANTILES,
    median_window_mean,
    median_window_mean_columns,
    overhead_vs_baseline,
    quantile,
)
from repro.analysis.report import (
    CAPACITY_CANDIDATE_HEADERS,
    CAPACITY_SIZING_HEADERS,
    capacity_candidate_rows,
    capacity_sizing_rows,
    format_stack_bars,
    format_table,
    save_artifact,
)

__all__ = [
    "CachePoint",
    "CAPACITY_CANDIDATE_HEADERS",
    "CAPACITY_SIZING_HEADERS",
    "capacity_candidate_rows",
    "capacity_sizing_rows",
    "cache_curve",
    "frequency_hit_rate",
    "lru_hit_rate",
    "working_set_rows",
    "QUANTILES",
    "format_stack_bars",
    "format_table",
    "median_window_mean",
    "median_window_mean_columns",
    "record_benchmark",
    "overhead_vs_baseline",
    "quantile",
    "save_artifact",
]
