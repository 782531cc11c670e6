"""Analysis: quantiles, overheads, stack aggregation, text reports."""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "caching": (
            "CachePoint",
            "cache_curve",
            "frequency_hit_rate",
            "lru_hit_rate",
            "working_set_rows",
        ),
        "quantiles": (
            "QUANTILES",
            "median_window_mean",
            "median_window_mean_columns",
            "overhead_vs_baseline",
            "quantile",
        ),
        "report": (
            "CAPACITY_CANDIDATE_HEADERS",
            "CAPACITY_SIZING_HEADERS",
            "capacity_candidate_rows",
            "capacity_sizing_rows",
            "format_stack_bars",
            "format_table",
            "save_artifact",
        ),
    },
)
__all__ = list(_EXPORTS)
