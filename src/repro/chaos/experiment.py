"""Chaos experiments end to end: replica sweeps and SLO retention.

:func:`availability_sweep` is the closed loop the ROADMAP asks for: take
one deployment candidate (a sharding configuration for a workload or
mix), replay it healthy to fix the latency SLO, then re-simulate it under
the same fault experiments at increasing replica counts and measure what
fraction of traffic still gets a full, in-SLO response.  The resulting
:class:`AvailabilityAssessment` answers the production sizing question
directly: ``assessment.replicas_for(0.999)``.

Determinism: the request stream is sampled once in the parent and shared
by every replica count; each replay's RNG substreams are pure functions
of (seed, configuration), and chaos draws use dedicated substreams -- so
the sweep (fork pool, one process per cluster replay: the healthy
baseline and every replica count together) is byte-identical for every
worker count, exactly like the suite runners on
:mod:`repro.experiments.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.chaos.availability import (
    AvailabilityReport,
    ChaosEvent,
    availability_report,
)
from repro.chaos.faults import FaultExperiment, FaultSchedule, HealingPolicy

if TYPE_CHECKING:
    from repro.resilience.policy import ResiliencePolicy
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.experiments.parallel import run_cluster_tasks, worker_context
from repro.experiments.runner import (
    RunResult,
    SuiteSettings,
    mix_stream,
    run_mix_configuration,
)
from repro.sharding.pooling import estimate_pooling_factors
from repro.workloads.workload import Workload, WorkloadMix


@dataclass(frozen=True)
class ChaosOutcome:
    """One replica count's replay under the fault suite."""

    replicas: int
    report: AvailabilityReport
    timeline: tuple[ChaosEvent, ...]
    result: RunResult


@dataclass(frozen=True)
class AvailabilityAssessment:
    """A full replica sweep under one fault suite."""

    slo_latency: float
    """Latency SLO the retention numbers are measured against (seconds)."""

    baseline_p99: float
    """Healthy (no-fault) p99 latency the SLO was derived from."""

    outcomes: tuple[ChaosOutcome, ...]

    policy: "ResiliencePolicy | None" = None
    """Resilience policy the faulted replays ran under (hedge quantile
    already resolved against the healthy baseline); ``None`` for plain
    failover-only sweeps."""

    domains: int = 1
    """Fault domains the sparse hosts were placed across."""

    placement: str = "spread"
    """Domain-aware replica placement the sweep used."""

    def replicas_for(self, retention: float) -> int | None:
        """Smallest swept replica count whose SLO retention meets
        ``retention`` (e.g. ``0.999``); ``None`` if none does."""
        for outcome in self.outcomes:
            if outcome.report.slo_retention >= retention:
                return outcome.replicas
        return None


def format_assessment(
    assessment: AvailabilityAssessment,
    *,
    timeline_replicas: int | None = None,
    retention_targets: Sequence[float] = (0.99, 0.999),
) -> list[str]:
    """Render an assessment as deterministic report lines.

    Shared by ``repro chaos``, the example script, and the CI artifact so
    they all emit the same (byte-stable) report: SLO provenance, the
    per-replica availability table, ``replicas_for`` answers for the
    ``retention_targets``, and the chaos timeline of one replica count
    (``timeline_replicas``, default the first/lowest swept count).
    """
    from repro.chaos.availability import format_timeline, nines

    lines = [
        f"healthy p99 {assessment.baseline_p99 * 1e3:.3f} ms, "
        f"SLO {assessment.slo_latency * 1e3:.3f} ms",
    ]
    if assessment.domains > 1:
        lines.append(
            f"fault domains: {assessment.domains} "
            f"(placement {assessment.placement})"
        )
    if assessment.policy is not None:
        lines.append(f"resilience policy: {assessment.policy.describe()}")
    lines += [
        "",
        "replicas  availability  slo-retention  nines     ok   slow  degraded  failed  retried  aborted    p99ms  attempts  hedged",
    ]
    for outcome in assessment.outcomes:
        report = outcome.report
        result = outcome.result
        p99 = (
            float(np.percentile(result.e2e, 99.0)) if len(result) else 0.0
        )
        lines.append(
            f"{outcome.replicas:>8d}  {report.availability:>11.2%}  "
            f"{report.slo_retention:>12.2%}  {nines(report.slo_retention):>5.2f}  "
            f"{report.ok:>5d}  {report.slow:>5d}  {report.degraded:>8d}  "
            f"{report.failed:>6d}  {report.retried:>7d}  "
            f"{result.aborted_rpcs:>7d}  {p99 * 1e3:>7.3f}  "
            f"{int(result.attempts.sum()):>8d}  {int(result.hedged.sum()):>6d}"
        )
    lines.append("")
    for target in retention_targets:
        needed = assessment.replicas_for(target)
        lines.append(
            f"replicas for {target:.1%} SLO retention: "
            + (str(needed) if needed is not None else "not reached in sweep")
        )
    chosen = timeline_replicas
    if chosen is None and assessment.outcomes:
        chosen = assessment.outcomes[0].replicas
    for outcome in assessment.outcomes:
        if outcome.replicas == chosen:
            lines.append("")
            lines.append(f"timeline (replicas={outcome.replicas}):")
            lines.extend(
                "  " + line
                for line in format_timeline(outcome.timeline, outcome.report)
            )
            break
    return lines


def _as_mix(workload: Workload | WorkloadMix) -> WorkloadMix:
    if isinstance(workload, WorkloadMix):
        return workload
    return WorkloadMix((workload,))


def _replay_healthy(_item: None) -> RunResult:
    """Worker body: the no-fault baseline replay (also in-process)."""
    mix, plans, stream, serving = worker_context()[:4]
    return run_mix_configuration(mix, plans, stream, serving)


def _replay_chaos(schedule: FaultSchedule) -> RunResult:
    """Worker body: one replica count's faulted replay (also in-process).

    Returns the raw :class:`RunResult`; the availability report is
    computed in the parent, because the SLO it is measured against may
    itself derive from the healthy baseline running in the same pool.
    """
    mix, plans, stream, serving, policy = worker_context()
    serving = serving.with_chaos(schedule)
    if policy is not None:
        serving = serving.with_resilience(policy)
    return run_mix_configuration(mix, plans, stream, serving)


def availability_sweep(
    workload: Workload | WorkloadMix,
    configuration: ShardingConfiguration,
    experiments: Sequence[FaultExperiment],
    replica_counts: Sequence[int] = (1, 2, 3),
    *,
    healing: HealingPolicy | None = None,
    failover_timeout: float = 2e-3,
    domains: int = 1,
    placement: str = "spread",
    policy: "ResiliencePolicy | None" = None,
    settings: SuiteSettings | None = None,
    slo_latency: float | None = None,
    slo_slack: float = 1.5,
    window: float = 0.5,
    max_workers: int | None = None,
) -> AvailabilityAssessment:
    """Sweep replica counts under one fault suite; measure SLO retention.

    The stream replays open-loop (the workload's arrival process), once
    healthy to fix the SLO -- ``slo_latency`` if given, otherwise the
    healthy p99 times ``slo_slack`` -- then once per replica count with a
    :class:`FaultSchedule` built from ``experiments``, placed across
    ``domains`` fault domains by ``placement`` (spread vs packed -- the
    planner's domain-aware sizing axis).  A ``policy``
    (:class:`~repro.resilience.ResiliencePolicy`) applies to every
    *faulted* replay -- the healthy baseline stays policy-free so the SLO
    derivation never shifts; a policy with ``hedge_quantile`` set is
    resolved here to that percentile of the healthy replay's per-request
    embedded-window totals (the tail-at-scale recipe: hedge when the
    sparse fan-out is slower than its usual pXX).  Every cluster replay
    -- the healthy baseline *and* the per-replica-count faulted replays
    -- fans out over one shared pool of ``max_workers`` processes
    (:func:`repro.experiments.parallel.run_cluster_tasks`, default: the
    usable CPUs), byte-identically for every worker count: the workers
    return raw :class:`RunResult` objects and the parent derives the SLO
    and the availability reports afterwards, so result values never
    depend on scheduling.
    """
    if not replica_counts:
        raise ValueError("replica_counts must name at least one count")
    if not float(window) > 0.0:
        raise ValueError(f"window must be positive, got {window!r}")
    if slo_latency is not None and not float(slo_latency) > 0.0:
        raise ValueError(f"slo_latency must be positive, got {slo_latency!r}")
    if not float(slo_slack) > 0.0:
        raise ValueError(f"slo_slack must be positive, got {slo_slack!r}")
    # Every replica count's schedule is built (and so validated) before
    # the first replay; the workers only replay them.
    schedules = [
        FaultSchedule(
            experiments=tuple(experiments),
            replicas=int(count),
            failover_timeout=failover_timeout,
            healing=healing,
            domains=int(domains),
            placement=placement,
        )
        for count in replica_counts
    ]
    mix = _as_mix(workload)
    settings = settings or SuiteSettings()
    serving = settings.resolved_serving()
    if serving.chaos is not None:
        raise ValueError(
            "availability_sweep builds its own FaultSchedule per replica "
            "count; pass experiments/healing instead of serving.chaos"
        )
    if serving.resilience is not None:
        raise ValueError(
            "availability_sweep applies the resilience policy to the "
            "faulted replays only; pass policy= instead of "
            "serving.resilience"
        )
    stream = mix_stream(mix, settings)
    plans = [
        build_plan(
            wl.model,
            configuration,
            estimate_pooling_factors(
                wl.model,
                num_requests=settings.pooling_requests,
                seed=settings.pooling_seed,
            ),
        )
        for wl in mix.workloads
    ]

    base_context = (mix, plans, stream, serving)

    if policy is not None and policy.hedge_quantile is not None:
        # Resolve the hedge trigger against the healthy baseline first:
        # the faulted replays need the concrete delay, so the healthy
        # replay runs in its own batch ahead of them.  Each replay is a
        # pure function of its inputs, so the split keeps the sweep
        # byte-identical for every worker count.
        healthy = run_cluster_tasks(
            [(_replay_healthy, None)], base_context + (None,), max_workers
        )[0]
        policy = policy.with_hedge_delay(
            float(
                np.percentile(healthy.embedded_totals, policy.hedge_quantile)
            )
        )
        replays = [healthy] + run_cluster_tasks(
            [(_replay_chaos, schedule) for schedule in schedules],
            base_context + (policy,),
            max_workers,
        )
    else:
        tasks = [(_replay_healthy, None)]
        tasks += [(_replay_chaos, schedule) for schedule in schedules]
        replays = run_cluster_tasks(tasks, base_context + (policy,), max_workers)

    healthy = replays[0]
    baseline_p99 = float(np.percentile(healthy.e2e, 99.0))
    if slo_latency is None:
        slo_latency = baseline_p99 * slo_slack

    outcomes = []
    for schedule, result in zip(schedules, replays[1:]):
        report = availability_report(
            result, stream.times, float(slo_latency), float(window)
        )
        outcomes.append(
            ChaosOutcome(
                replicas=schedule.replicas,
                report=report,
                timeline=result.chaos_timeline,
                result=result,
            )
        )
    return AvailabilityAssessment(
        slo_latency=float(slo_latency),
        baseline_p99=baseline_p99,
        outcomes=tuple(outcomes),
        policy=policy,
        domains=int(domains),
        placement=placement,
    )
