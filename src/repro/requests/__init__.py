"""Request substrate: synthetic generation and payload sizing, plus the
``ReplaySchedule`` alias of :mod:`repro.workloads.arrivals`."""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "access_trace": (
            "AccessTrace",
            "CorrelatedStream",
            "collect_access_trace",
            "collect_correlated_trace",
        ),
        "generator": (
            "Request",
            "RequestGenerator",
            "SparseFeatureDraw",
            "materialize_numeric",
            "request_payload_bytes",
        ),
        "repro.workloads.arrivals": ("ReplaySchedule",),
    },
)
__all__ = list(_EXPORTS)
