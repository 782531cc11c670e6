"""Capacity planning: SLA policies, replication sizing, elasticity, and
the closed-loop deployment search.

This package holds the open-loop planners that once lived in
``repro.serving`` (``sla.py``, ``replication.py``, ``elasticity.py``)
and adds the closed loop on top: :class:`CapacityPlanner` simulates candidate deployments of a
:class:`~repro.workloads.workload.WorkloadMix` under its real arrival
processes, checks the SLA per workload, sizes each candidate from the
measured per-shard CPU-demand columns, enforces per-server DRAM
capacity, and returns the cheapest feasible plan.
"""

from repro.planning.capacity import (
    CandidatePlan,
    CandidateSpace,
    CapacityPlanner,
    MixPlan,
    NoFeasiblePlanError,
    PlanningError,
    WorkloadSizing,
)
from repro.planning.elasticity import (
    ElasticityReport,
    assess_elasticity,
    diurnal_qps_curve,
    dram_hours_saved,
)
from repro.planning.replication import (
    PerShardDemandError,
    ReplicationDemand,
    ReplicationPlan,
    plan_replication,
)
from repro.planning.sla import SlaPolicy, SlaReport, evaluate_sla

__all__ = [
    "CandidatePlan",
    "CandidateSpace",
    "CapacityPlanner",
    "ElasticityReport",
    "MixPlan",
    "NoFeasiblePlanError",
    "PerShardDemandError",
    "PlanningError",
    "ReplicationDemand",
    "ReplicationPlan",
    "SlaPolicy",
    "SlaReport",
    "WorkloadSizing",
    "assess_elasticity",
    "diurnal_qps_curve",
    "dram_hours_saved",
    "evaluate_sla",
    "plan_replication",
]
