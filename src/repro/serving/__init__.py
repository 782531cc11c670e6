"""Serving substrate: simulated servers, services, and replay.

The planners (SLA accounting, replication sizing, elasticity) live in
:mod:`repro.planning`.
"""

from repro.serving.paging import (
    PagingAssessment,
    SsdSpec,
    assess_paging,
    paging_vs_distributed_stall,
)
from repro.serving.simulator import ClusterSimulation, ServingConfig, SimServer
from repro.tracing.aggregate import TraceMode

__all__ = [
    "ClusterSimulation",
    "PagingAssessment",
    "SsdSpec",
    "assess_paging",
    "paging_vs_distributed_stall",
    "ServingConfig",
    "SimServer",
    "TraceMode",
]
