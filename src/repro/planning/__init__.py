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

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "capacity": (
            "CandidatePlan",
            "CandidateSpace",
            "CapacityPlanner",
            "MixPlan",
            "NoFeasiblePlanError",
            "PlanningError",
            "WorkloadSizing",
        ),
        "elasticity": (
            "ElasticityReport",
            "assess_elasticity",
            "diurnal_qps_curve",
            "dram_hours_saved",
        ),
        "replication": (
            "PerShardDemandError",
            "ReplicationDemand",
            "ReplicationPlan",
            "plan_replication",
        ),
        "sla": ("SlaPolicy", "SlaReport", "evaluate_sla"),
    },
)
__all__ = list(_EXPORTS)
