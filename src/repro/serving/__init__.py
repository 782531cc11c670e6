"""Serving substrate: simulated servers, services, and replay.

The planners (SLA accounting, replication sizing, elasticity) live in
:mod:`repro.planning`.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "paging": (
            "PagingAssessment",
            "SsdSpec",
            "assess_paging",
            "paging_vs_distributed_stall",
        ),
        "simulator": ("ClusterSimulation", "ServingConfig", "SimServer"),
        "repro.tracing.aggregate": ("TraceMode",),
    },
)
__all__ = list(_EXPORTS)
