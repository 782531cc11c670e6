"""Closed-loop, SLA-driven capacity planning over workload mixes.

The paper's core argument is that **capacity** -- not compute -- drives
scale-out, and that the payoff of distributed serving only shows up when
a whole deployment (replicas x shards x DRAM) is sized against a latency
SLA under real traffic.  This module closes that loop:

1. **Simulate** every candidate sharding configuration under the mix's
   actual arrival processes (``run_mix_suite``; contention between
   co-located tenants is simulated on shared hosts);
2. **Check the SLA per workload** on the simulated latencies (the label
   column splits a mix's latencies by tenant);
3. **Size** each feasible candidate from the measured per-shard CPU
   demand columns and the arrival process's peak rate, at every
   utilization target in the candidate space;
4. **Check capacity**: every server of the deployment must fit its
   pinned bytes in platform DRAM -- the constraint that makes scale-out
   capacity-driven (a singular DRM1+DRM2 replica simply does not fit);
5. **Choose** the minimum-server plan, breaking ties toward minimum
   pinned DRAM, then toward earlier candidates (so listing utilization
   targets headroom-first makes ties resolve conservatively).

The search is deterministic: identical inputs produce bit-identical
plans across worker counts of the candidate evaluation
(regression-tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.planning.replication import (
    ReplicationDemand,
    ReplicationPlan,
    plan_replication,
)
from repro.planning.sla import SlaPolicy, SlaReport, evaluate_sla
from repro.tracing.span import MAIN_SHARD
from repro.workloads.workload import Workload, WorkloadMix

if TYPE_CHECKING:  # heavy imports stay lazy: repro.experiments imports serving
    from repro.chaos.experiment import AvailabilityAssessment
    from repro.chaos.faults import FaultExperiment, HealingPolicy
    from repro.experiments.configs import ShardingConfiguration
    from repro.experiments.runner import RunResult, SuiteSettings
    from repro.resilience.policy import ResiliencePolicy


class PlanningError(ValueError):
    """Raised when a capacity-planning search cannot be carried out."""


class NoFeasiblePlanError(PlanningError):
    """Raised when no candidate meets the SLA within platform capacity."""


@dataclass(frozen=True)
class CandidateSpace:
    """The deployment space a :class:`CapacityPlanner` searches.

    ``configurations`` defaults to the paper matrix shared by every model
    of the mix (:func:`~repro.experiments.configs.mix_configurations`);
    ``utilization_targets`` are CPU ceilings the sizing may load replicas
    to -- list them headroom-first (ascending) so equal-cost ties resolve
    toward the safer target.
    """

    configurations: "tuple[ShardingConfiguration, ...] | None" = None
    utilization_targets: tuple[float, ...] = (0.4, 0.6, 0.8)

    def __post_init__(self):
        targets = tuple(float(target) for target in self.utilization_targets)
        if not targets:
            raise ValueError("utilization_targets must be non-empty")
        if any(not 0 < target <= 1 for target in targets):
            raise ValueError(
                f"utilization targets must be in (0, 1], got {targets}"
            )
        object.__setattr__(self, "utilization_targets", targets)
        if self.configurations is not None:
            object.__setattr__(
                self, "configurations", tuple(self.configurations)
            )


@dataclass(frozen=True)
class WorkloadSizing:
    """One tenant's view of one candidate deployment."""

    workload: str
    model_name: str
    qps: float
    """Sizing rate: the tenant's arrival-process peak QPS."""
    sla: SlaReport
    """SLA fallout of this tenant's *simulated* latencies (contention
    with the co-located tenants included)."""
    standalone: ReplicationPlan
    """What this tenant alone would pin (its label-column demand, its own
    sharding plan) -- the attribution view of the shared deployment."""

    @property
    def meets_sla(self) -> bool:
        return self.sla.met_p99


@dataclass(frozen=True)
class CandidatePlan:
    """One evaluated point of the deployment space, fully sized.

    Replica counts reconcile the shared hosts of a co-located mix: tier
    demand is the *sum* of the tenants' per-shard CPU demand, and every
    replica of a tier pins the *sum* of the tenants' bytes on that host.
    """

    label: str
    utilization_target: float
    workloads: tuple[WorkloadSizing, ...]
    main_replicas: int
    sparse_replicas: dict[int, int]
    main_memory_bytes: float
    sparse_memory_bytes: float
    main_bytes_per_replica: float
    sparse_bytes_per_host: dict[int, float]
    main_dram_capacity: float
    sparse_dram_capacity: float

    @property
    def total_servers(self) -> int:
        return self.main_replicas + sum(self.sparse_replicas.values())

    @property
    def total_memory_bytes(self) -> float:
        return self.main_memory_bytes + self.sparse_memory_bytes

    @property
    def meets_sla(self) -> bool:
        """Every tenant's simulated P99 within the SLA window."""
        return all(sizing.meets_sla for sizing in self.workloads)

    @property
    def fits_memory(self) -> bool:
        """Every server's pinned bytes within its platform's DRAM."""
        if self.main_bytes_per_replica > self.main_dram_capacity:
            return False
        return all(
            pinned <= self.sparse_dram_capacity
            for pinned in self.sparse_bytes_per_host.values()
        )

    @property
    def feasible(self) -> bool:
        return self.meets_sla and self.fits_memory

    @property
    def worst_drop_rate(self) -> float:
        return max(sizing.sla.drop_rate for sizing in self.workloads)


@dataclass(frozen=True)
class MixPlan:
    """Outcome of one closed-loop search over a workload mix."""

    policy: SlaPolicy
    chosen: CandidatePlan | None
    candidates: tuple[CandidatePlan, ...]

    @property
    def feasible(self) -> bool:
        return self.chosen is not None

    def require(self) -> CandidatePlan:
        """The chosen plan, or :class:`NoFeasiblePlanError` with the
        reason no candidate qualified."""
        if self.chosen is None:
            reasons = "; ".join(
                f"{candidate.label} @ {candidate.utilization_target:.0%}: "
                + (
                    "does not fit DRAM"
                    if not candidate.fits_memory
                    else f"worst drop rate {candidate.worst_drop_rate:.1%}"
                )
                for candidate in self.candidates
            )
            raise NoFeasiblePlanError(
                "no candidate deployment meets the SLA within platform "
                f"capacity (target {self.policy.target_latency * 1e3:.2f} ms): "
                f"{reasons}"
            )
        return self.chosen


@dataclass(frozen=True)
class CapacityPlanner:
    """Searches the deployment space for the cheapest SLA-meeting plan.

    ``policy=None`` derives the SLA from the mix's own singular baseline
    (``from_baseline_quantile`` at ``baseline_quantile`` with ``slack``),
    which requires the singular configuration in the candidate space.
    The default slack of 1.5 mirrors how production windows are set:
    wide enough that sharded serving's P99 overheads (up to ~40-60% in
    the paper's Figure 6) can qualify, tight enough that a pathological
    configuration still falls out.
    """

    policy: SlaPolicy | None = None
    space: CandidateSpace = field(default_factory=CandidateSpace)
    settings: "SuiteSettings | None" = None
    workers_per_replica: int = 32
    baseline_quantile: float = 99.0
    slack: float = 1.5

    def plan(
        self,
        workload: "Workload | WorkloadMix",
        max_workers: int | None = None,
        results_sink: "dict[str, RunResult] | None" = None,
    ) -> MixPlan:
        """Run the closed loop: simulate, check SLA, size, choose.

        The candidate simulations fan out over ``max_workers`` worker
        processes (default: the usable CPUs) -- one process per simulated
        cluster, via :func:`~repro.experiments.runner.run_mix_suite` --
        with byte-identical results, hence an identical plan, for every
        worker count.  Candidate
        simulations are co-located open-loop mixes: the default kernel
        replays their busy periods on the batched DES and every idle
        arrival on the columnar evaluator (each candidate's
        ``RunResult.des_requests`` counts the DES share).
        ``results_sink`` receives the candidate simulations keyed by
        configuration label, so callers can reuse the measurements (e.g.
        day-long elasticity sizing) without re-simulating.
        """
        from repro.experiments.configs import mix_configurations
        from repro.experiments.runner import SuiteSettings, run_mix_suite
        from repro.sharding.plan import SINGULAR

        mix = (
            WorkloadMix((workload,)) if isinstance(workload, Workload) else workload
        )
        qps: dict[str, float] = {}
        for tenant in mix.workloads:
            rate = tenant.arrivals.peak_rate()
            if rate is None:
                raise PlanningError(
                    f"workload {tenant.name!r} uses closed-loop (serial) "
                    "arrivals, which have no intrinsic rate to size "
                    "against; give it an open-loop arrival process"
                )
            qps[tenant.name] = float(rate)

        settings = self.settings or SuiteSettings()
        configurations = self.space.configurations or mix_configurations(
            tenant.model.name for tenant in mix.workloads
        )
        results = run_mix_suite(
            mix, settings, tuple(configurations), max_workers=max_workers
        )
        if results_sink is not None:
            results_sink.update(results)

        policy = self.policy
        if policy is None:
            baseline = results.get(SINGULAR)
            if baseline is None:
                raise PlanningError(
                    "no explicit SlaPolicy and the candidate space does not "
                    "include the singular configuration to derive one from"
                )
            policy = SlaPolicy.from_baseline_quantile(
                baseline.e2e, quantile=self.baseline_quantile, slack=self.slack
            )

        serving = settings.resolved_serving()
        candidates: list[CandidatePlan] = []
        for result in results.values():
            per_workload_e2e = result.per_workload_e2e()
            demand = {
                tenant.name: result.mean_cpu_by_shard(workload=tenant.name)
                for tenant in mix.workloads
            }
            reports = {
                tenant.name: evaluate_sla(
                    tenant.name, per_workload_e2e[tenant.name], policy
                )
                for tenant in mix.workloads
            }
            for utilization in self.space.utilization_targets:
                candidates.append(
                    self._size_candidate(
                        mix, result, utilization, qps, demand, reports, serving
                    )
                )

        chosen: CandidatePlan | None = None
        best_key: tuple[int, float] | None = None
        for candidate in candidates:
            if not candidate.feasible:
                continue
            key = (candidate.total_servers, candidate.total_memory_bytes)
            if best_key is None or key < best_key:
                best_key, chosen = key, candidate
        return MixPlan(policy=policy, chosen=chosen, candidates=tuple(candidates))

    def assess_availability(
        self,
        workload: "Workload | WorkloadMix",
        configuration: "ShardingConfiguration | CandidatePlan | MixPlan",
        experiments: "tuple[FaultExperiment, ...]",
        replica_counts: tuple[int, ...] = (1, 2, 3),
        *,
        healing: "HealingPolicy | None" = None,
        failover_timeout: float = 2e-3,
        domains: int = 1,
        placement: str = "spread",
        policy: "ResiliencePolicy | None" = None,
        window: float = 0.5,
        max_workers: int | None = None,
    ) -> "AvailabilityAssessment":
        """Re-simulate a chosen candidate under a chaos suite.

        Answers the availability side of the sizing question the closed
        loop leaves open: the chosen deployment meets the SLA on a
        healthy fleet, but how many sparse replicas -- spread across how
        many fault ``domains``, under what retry/hedging ``policy`` --
        does it need to keep N-nines SLO retention when the
        ``experiments`` fire?  Delegates to
        :func:`repro.chaos.experiment.availability_sweep` with the
        planner's own settings; the SLO is the planner policy's target
        latency when one is set, otherwise the healthy p99 times the
        planner's ``slack``.  ``configuration`` may be the
        :class:`MixPlan` / :class:`CandidatePlan` returned by
        :meth:`plan` (its label is mapped back onto the candidate
        matrix) or an explicit sharding configuration.  ``domains`` and
        ``placement`` (``"spread"`` or ``"packed"``) choose the
        domain-aware replica layout the faulted replays use, and
        ``policy`` is a :class:`~repro.resilience.ResiliencePolicy`
        applied to the faulted replays only (a ``hedge_quantile`` is
        resolved against the healthy baseline).  The healthy baseline
        replay and every replica-count replay run as one pooled batch of
        cluster simulations over ``max_workers`` processes.
        """
        from repro.chaos.experiment import availability_sweep
        from repro.experiments.configs import mix_configurations

        mix = (
            WorkloadMix((workload,)) if isinstance(workload, Workload) else workload
        )
        if isinstance(configuration, MixPlan):
            configuration = configuration.require()
        if isinstance(configuration, CandidatePlan):
            label = configuration.label
            matches = [
                candidate
                for candidate in mix_configurations(
                    tenant.model.name for tenant in mix.workloads
                )
                if candidate.label == label
            ]
            if not matches:
                raise PlanningError(
                    f"cannot map chosen plan label {label!r} back onto the "
                    "candidate configuration matrix"
                )
            configuration = matches[0]
        slo = self.policy.target_latency if self.policy is not None else None
        return availability_sweep(
            mix,
            configuration,
            experiments,
            replica_counts,
            healing=healing,
            failover_timeout=failover_timeout,
            domains=domains,
            placement=placement,
            policy=policy,
            settings=self.settings,
            slo_latency=slo,
            slo_slack=self.slack,
            window=window,
            max_workers=max_workers,
        )

    def _size_candidate(
        self,
        mix: WorkloadMix,
        result: "RunResult",
        utilization: float,
        qps: Mapping[str, float],
        demand: Mapping[str, Mapping[int, float]],
        reports: Mapping[str, SlaReport],
        serving,
    ) -> CandidatePlan:
        """Size one (configuration, utilization) candidate."""
        capacity = self.workers_per_replica * utilization

        sizings = []
        for tenant in mix.workloads:
            tenant_demand = ReplicationDemand(
                qps=qps[tenant.name],
                utilization_target=utilization,
                workers_per_replica=self.workers_per_replica,
            )
            sizings.append(
                WorkloadSizing(
                    workload=tenant.name,
                    model_name=tenant.model.name,
                    qps=qps[tenant.name],
                    sla=reports[tenant.name],
                    standalone=plan_replication(
                        tenant.model,
                        result,
                        tenant_demand,
                        workload=tenant.name,
                        cpu_by_shard=demand[tenant.name],
                    ),
                )
            )

        # Reconcile the shared hosts: demands add, pinned bytes add.
        main_demand = sum(
            qps[tenant.name] * demand[tenant.name].get(MAIN_SHARD, 0.0)
            for tenant in mix.workloads
        )
        main_replicas = max(1, math.ceil(main_demand / capacity))
        main_bytes_per_replica = sum(
            tenant.model.total_bytes
            if plan.is_singular
            else tenant.model.dense_param_bytes
            for tenant, plan in zip(mix.workloads, result.plans)
        )
        host_bytes: dict[int, float] = {}
        host_demand: dict[int, float] = {}
        for tenant, plan in zip(mix.workloads, result.plans):
            tenant_cpu = demand[tenant.name]
            for shard in plan.shards:
                host_bytes[shard.index] = host_bytes.get(
                    shard.index, 0.0
                ) + shard.capacity_bytes(tenant.model)
                host_demand[shard.index] = host_demand.get(
                    shard.index, 0.0
                ) + qps[tenant.name] * tenant_cpu.get(shard.index, 0.0)
        sparse_replicas = {
            index: max(1, math.ceil(host_demand[index] / capacity))
            for index in sorted(host_bytes)
        }
        sparse_memory = sum(
            sparse_replicas[index] * host_bytes[index] for index in sparse_replicas
        )
        return CandidatePlan(
            label=result.label,
            utilization_target=utilization,
            workloads=tuple(sizings),
            main_replicas=main_replicas,
            sparse_replicas=sparse_replicas,
            main_memory_bytes=main_replicas * main_bytes_per_replica,
            sparse_memory_bytes=sparse_memory,
            main_bytes_per_replica=main_bytes_per_replica,
            sparse_bytes_per_host=host_bytes,
            main_dram_capacity=serving.main_platform.dram_capacity,
            sparse_dram_capacity=serving.sparse_platform.dram_capacity,
        )
