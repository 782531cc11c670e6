"""Automatic sharding (the paper's headline future work, Section X).

"Future work is needed to automate model sharding to target data-center
resource efficiency and per-model SLA and QPS requirements."  This module
implements that workflow on top of the reproduction's substrates:

1. **feasibility**: enumerate (strategy, shard count) candidates whose
   per-shard capacity fits the sparse-tier DRAM budget (the capacity
   constraint that motivates distributed inference in the first place);
2. **profiling**: simulate each candidate on a request sample -- the
   "workflow that dynamically profiles models" the paper calls for
   (Section VI) -- measuring P99 latency overhead and aggregate CPU;
3. **selection**: among candidates meeting the latency SLA, pick the one
   minimizing data-center resources (shard count, then CPU overhead),
   mirroring the heuristic that fewer shards cost fewer resources.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.models.config import ModelConfig
from repro.serving.simulator import ServingConfig
from repro.sharding.plan import SINGULAR, ShardingError, ShardingPlan
from repro.sharding.pooling import estimate_pooling_factors


@dataclass(frozen=True)
class AutoShardObjective:
    """What the auto-sharder optimizes for."""

    shard_dram_budget: float
    """Usable DRAM per sparse shard server, in bytes."""

    max_p99_latency_overhead: float = 0.25
    """SLA guard: admissible P99 latency overhead versus singular."""

    strategies: tuple[str, ...] = ("load-bal", "cap-bal", "NSBP")
    shard_counts: tuple[int, ...] = (2, 4, 8, 16)
    profile_requests: int = 120


@dataclass
class CandidateEvaluation:
    """Profiling outcome for one candidate plan."""

    plan: ShardingPlan
    feasible_capacity: bool
    p99_latency_overhead: float = float("nan")
    p50_latency_overhead: float = float("nan")
    cpu_overhead: float = float("nan")
    meets_sla: bool = False

    @property
    def label(self) -> str:
        return self.plan.label


@dataclass
class AutoShardResult:
    """The chosen plan plus the full evaluation record."""

    chosen: ShardingPlan | None
    evaluations: list[CandidateEvaluation] = field(default_factory=list)


def auto_shard(
    model: ModelConfig,
    objective: AutoShardObjective,
    serving: ServingConfig | None = None,
    seed: int = 17,
) -> AutoShardResult:
    """Run the profile-and-select workflow; returns the chosen plan.

    Candidates are built and capacity-filtered here, then ``singular``
    and the feasible ones are profiled by one :func:`run_suite` sweep.
    ``chosen`` is None when no candidate satisfies both the capacity
    budget and the latency SLA (the caller must relax one of them).
    """
    from repro.experiments.runner import SuiteSettings, run_suite  # local: avoids cycle

    pooling = estimate_pooling_factors(model, num_requests=500, seed=seed)
    result = AutoShardResult(chosen=None)
    profiled_configurations = [ShardingConfiguration(SINGULAR)]
    for count in objective.shard_counts:
        for strategy_name in objective.strategies:
            configuration = ShardingConfiguration(strategy_name, count)
            try:
                plan = build_plan(model, configuration, pooling)
            except ShardingError:
                continue  # e.g. cap-bal on a dominant-table model
            evaluation = CandidateEvaluation(
                plan=plan,
                feasible_capacity=max(plan.capacity_by_shard(model))
                <= objective.shard_dram_budget,
            )
            result.evaluations.append(evaluation)
            if evaluation.feasible_capacity:
                profiled_configurations.append(configuration)

    settings = SuiteSettings(
        num_requests=objective.profile_requests,
        request_seed=seed,
        pooling_requests=500,
        pooling_seed=seed,
        serving=serving or ServingConfig(seed=seed),
    )
    runs = run_suite(model, settings, tuple(profiled_configurations))
    baseline = runs[SINGULAR]
    base_p99 = float(np.percentile(baseline.e2e, 99))
    base_p50 = float(np.percentile(baseline.e2e, 50))
    base_cpu = float(np.percentile(baseline.cpu, 50))

    viable: list[tuple[tuple, CandidateEvaluation]] = []
    for evaluation in result.evaluations:
        if not evaluation.feasible_capacity:
            continue
        # A configuration's run is keyed by its label, its plan's label.
        profiled = runs[evaluation.label]
        evaluation.p99_latency_overhead = (
            float(np.percentile(profiled.e2e, 99)) - base_p99
        ) / base_p99
        evaluation.p50_latency_overhead = (
            float(np.percentile(profiled.e2e, 50)) - base_p50
        ) / base_p50
        evaluation.cpu_overhead = (
            float(np.percentile(profiled.cpu, 50)) - base_cpu
        ) / base_cpu
        evaluation.meets_sla = (
            evaluation.p99_latency_overhead <= objective.max_p99_latency_overhead
        )
        if evaluation.meets_sla:
            # Fewer shards first (fewer servers), then less CPU overhead.
            viable.append(
                ((evaluation.plan.num_shards, evaluation.cpu_overhead), evaluation)
            )
    if viable:
        viable.sort(key=lambda entry: entry[0])
        result.chosen = viable[0][1].plan
    return result
