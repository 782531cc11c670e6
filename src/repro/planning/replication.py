"""Replication planning in the data-center (paper Section VII-C).

Serving tiers replicate model instances to meet aggregate QPS.  For a
singular deployment, replicating for *compute* drags the entire memory
footprint along: "the large load incurred by the dense layers will cause
the entire model to be replicated to additional servers, including all
embedding tables".  Distributed inference decouples the two: main-shard
replicas carry only dense parameters, sparse-shard replicas carry only
their tables and replicate by their own (much lower) compute demand.

This planner sizes a deployment from measured per-request CPU demand (the
per-shard columns of a :class:`~repro.experiments.runner.RunResult`), a
QPS target, and a utilization ceiling, and reports the replica counts
and the total DRAM the deployment pins -- the efficiency argument of
Section VII-C.  For a
co-located mix, ``workload=`` sizes one tenant from its own label-column
rows and its own sharding plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.types import check_fields, checked, count, fraction, positive
from repro.models.config import ModelConfig
from repro.simulation.platform import SC_LARGE, Platform
from repro.tracing.span import MAIN_SHARD

if TYPE_CHECKING:  # imported lazily to avoid a cycle with the runner
    from repro.experiments.runner import RunResult
    from repro.sharding.plan import ShardingPlan


class PerShardDemandError(ValueError):
    """Raised when a result carries no per-shard CPU demand to size from."""


@dataclass(frozen=True)
class ReplicationDemand:
    """Sizing inputs for one deployment."""

    qps: float = checked(positive)
    utilization_target: float = checked(fraction, 0.6)
    workers_per_replica: int = checked(count, 32)
    platform: Platform = SC_LARGE

    def __post_init__(self):
        check_fields(self)


@dataclass
class ReplicationPlan:
    """Replica counts and memory footprint for one configuration."""

    label: str
    main_replicas: int
    sparse_replicas: dict[int, int] = field(default_factory=dict)
    main_memory_bytes: float = 0.0
    sparse_memory_bytes: float = 0.0

    @property
    def total_servers(self) -> int:
        return self.main_replicas + sum(self.sparse_replicas.values())

    @property
    def total_memory_bytes(self) -> float:
        return self.main_memory_bytes + self.sparse_memory_bytes


def _replicas_for(cpu_per_request: float, demand: ReplicationDemand) -> int:
    capacity = demand.workers_per_replica * demand.utilization_target
    return max(1, math.ceil(demand.qps * cpu_per_request / capacity))


def _demand_or_raise(
    result: "RunResult",
    workload: str | None,
    cpu_by_shard: "Mapping[int, float] | None" = None,
) -> "Mapping[int, float]":
    if cpu_by_shard is None:
        cpu_by_shard = result.mean_cpu_by_shard(workload=workload)
    if not cpu_by_shard:
        scope = f" for workload {workload!r}" if workload is not None else ""
        raise PerShardDemandError(
            f"result {result.label!r} has no per-shard CPU demand{scope}: "
            "no completed requests were recorded, so replication cannot be "
            "sized (run the configuration with at least one request)"
        )
    return cpu_by_shard


def _tenant_plan(result: "RunResult", workload: str | None) -> "ShardingPlan":
    if workload is None:
        return result.plan
    return result.plans[result.workload_labels.index(workload)]


def plan_replication(
    model: ModelConfig,
    result: "RunResult",
    demand: ReplicationDemand,
    workload: str | None = None,
    cpu_by_shard: "Mapping[int, float] | None" = None,
) -> ReplicationPlan:
    """Size a deployment of ``result``'s configuration for ``demand``.

    Memory accounting follows the paper: every main replica of a singular
    deployment pins the full model; a distributed main replica pins only
    the dense parameters; each sparse-shard replica pins its shard.

    ``workload`` restricts the demand signal to one tenant of a co-located
    mix (its label-column rows and its own sharding plan) -- the
    standalone sizing of that tenant.  ``cpu_by_shard`` short-circuits the
    column reduction with an already-computed demand mapping (callers
    sizing one result many times, e.g. the capacity planner's utilization
    sweep).  Raises :class:`PerShardDemandError` when the result holds no
    completed requests to size from.
    """
    cpu_by_shard = _demand_or_raise(result, workload, cpu_by_shard)
    main_replicas = _replicas_for(cpu_by_shard.get(MAIN_SHARD, 0.0), demand)

    plan = _tenant_plan(result, workload)
    label = result.label if workload is None else f"{result.label} / {workload}"
    if plan.is_singular:
        return ReplicationPlan(
            label=label,
            main_replicas=main_replicas,
            main_memory_bytes=main_replicas * model.total_bytes,
        )

    sparse_replicas: dict[int, int] = {}
    sparse_memory = 0.0
    for shard in plan.shards:
        replicas = _replicas_for(cpu_by_shard.get(shard.index, 0.0), demand)
        sparse_replicas[shard.index] = replicas
        sparse_memory += replicas * shard.capacity_bytes(model)
    return ReplicationPlan(
        label=label,
        main_replicas=main_replicas,
        sparse_replicas=sparse_replicas,
        main_memory_bytes=main_replicas * model.dense_param_bytes,
        sparse_memory_bytes=sparse_memory,
    )
