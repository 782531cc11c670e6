"""Experiment runner: simulate configurations, collect attributed results.

One :class:`RunResult` holds everything the figure generators need for one
(model, sharding configuration, serving configuration) cell, as columns:
per-request E2E latency, aggregate CPU, the latency/embedded/CPU stacks,
operator CPU, RPC and batch counts, and per-shard demand.  Requests are
attributed by the aggregate accumulator as they complete, so sweeps stay
memory-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.types import check_fields, checked, count
from repro.core.types import seed as any_seed
from repro.experiments.parallel import run_cluster_tasks, worker_context
from repro.models.config import ModelConfig
from repro.requests.generator import Request, RequestGenerator
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.sharding.plan import ShardingPlan
from repro.sharding.pooling import estimate_pooling_factors
from repro.tracing.aggregate import STACK_BUCKETS, AggregatingTracer, TraceMode
from repro.workloads.arrivals import ArrivalProcess, SerialArrivals
from repro.experiments.configs import (
    ShardingConfiguration,
    build_plan,
    mix_configurations,
    paper_configurations,
)

if TYPE_CHECKING:
    from repro.workloads.workload import MixedStream, WorkloadMix

class RunResult:
    """Attributed measurements for one simulated configuration.

    Storage is **columnar**: every per-request measurement -- E2E
    latency, aggregate CPU, the three stacks, operator CPU, RPC and batch
    counts, the status and fault-outcome columns
    (:data:`~repro.tracing.aggregate.OUTCOME_FIELDS`) -- and the
    per-shard demand columns are numpy arrays adopted from the
    :class:`~repro.tracing.aggregate.AggregatingTracer` that attributed
    the replay (:meth:`adopt_aggregate`).  Figure generation reads these
    ready-made arrays; no per-request dataclass is kept.
    """

    def __init__(
        self,
        model_name: str,
        label: str,
        plan: ShardingPlan,
        workload_labels: tuple[str, ...] | None = None,
        plans: list[ShardingPlan] | None = None,
    ):
        self.model_name = model_name
        self.label = label
        self.plan = plan
        #: One plan per co-located workload; ``[plan]`` for classic runs.
        self.plans = list(plans) if plans is not None else [plan]
        #: Display labels of the workloads sharing this run; classic
        #: single-model runs carry one label (the model name), and every
        #: request's ``workloads`` entry indexes into this tuple.
        self.workload_labels = (
            tuple(workload_labels) if workload_labels else (model_name,)
        )
        #: Kernel that actually produced these columns ("batched" or
        #: "vectorized"); None until the runner sets it.
        self.kernel_used: str | None = None
        #: Why a ``kernel="vectorized"`` run fell back to the batched
        #: kernel (a stable reason string from
        #: :mod:`repro.serving.columnar`); None when no fallback happened.
        self.kernel_fallback: str | None = None
        #: Requests the DES replayed: every request for a DES kernel;
        #: under ``vectorized``, the busy-period arrivals of an open-loop
        #: run (the rest took the evaluator, batches queueing FIFO for the
        #: workers -- every request of a serial run).
        self.des_requests: int = 0
        #: Requests that never completed (an aborted or fault-saturated
        #: replay); ids only -- they have no row in the columns.
        self.incomplete_requests: tuple[int, ...] = ()
        #: Fault/heal transitions of the replay (``ChaosEvent`` tuples;
        #: empty for healthy runs).
        self.chaos_timeline: tuple = ()
        #: Replay-level resilience counters (attempts, hedges,
        #: budget_denied, deadline_exceeded, aborted_attempts); empty
        #: without an active :class:`~repro.resilience.ResiliencePolicy`.
        self.resilience_stats: dict[str, int] = {}
        #: In-flight RPC attempts aborted by mid-service crashes
        #: (0 on healthy runs).
        self.aborted_rpcs: int = 0
        # An empty result is an empty tracer's (zero-row) columns.
        self.adopt_aggregate(AggregatingTracer())

    def adopt_aggregate(self, tracer: AggregatingTracer) -> None:
        """Take over an :class:`AggregatingTracer`'s columnar output.

        The tracer attributed every completed request straight into the
        column layout this class reads, so adoption is a pointer handoff.
        """
        self._count, self._columns, self._stack_cols, self._shard_cols = (
            tracer.export_columns()
        )

    def _column(self, name: str) -> np.ndarray:
        return self._columns[name][: self._count]

    def __len__(self) -> int:
        return self._count

    # -- columnar accessors (no per-access rebuild) -----------------------
    @property
    def e2e(self) -> np.ndarray:
        return self._column("e2e")

    @property
    def cpu(self) -> np.ndarray:
        return self._column("cpu")

    @property
    def sparse_op_cpu(self) -> np.ndarray:
        """Per-request CPU-seconds in sparse (SLS) operators, all shards."""
        return self._column("sparse_op_cpu")

    @property
    def dense_op_cpu(self) -> np.ndarray:
        """Per-request CPU-seconds in every non-sparse operator."""
        return self._column("dense_op_cpu")

    @property
    def rpcs(self) -> np.ndarray:
        """Per-request count of completed sparse RPCs (0 when singular)."""
        return self._column("rpcs")

    @property
    def num_batches(self) -> np.ndarray:
        """Per-request count of batches the request was split into."""
        return self._column("num_batches")

    # -- chaos columns -----------------------------------------------------
    @property
    def request_ids(self) -> np.ndarray:
        """Per-row request id, in completion order.  Under fault injection
        completion order diverges from arrival order, and this column is
        what maps a row back to its arrival time (availability timelines
        index ``arrival_times[request_ids]``)."""
        return self._column("request_ids")

    @property
    def status(self) -> np.ndarray:
        """Per-request outcome: 0 = full response, 1 = degraded (at least
        one sparse RPC found no live replica and the request was served
        dense-only for that net).  All zeros on healthy runs."""
        return self._column("status")

    @property
    def degraded(self) -> np.ndarray:
        """Per-request count of degraded (dense-only) sparse RPCs."""
        return self._column("degraded")

    @property
    def retries(self) -> np.ndarray:
        """Per-request count of RPC failovers (dead host -> live replica),
        including mid-service aborts."""
        return self._column("retries")

    # -- resilience columns ------------------------------------------------
    @property
    def attempts(self) -> np.ndarray:
        """Per-request count of policy-issued RPC attempts (first sends,
        hedges, and timeout retries).  All zeros without an active
        :class:`~repro.resilience.ResiliencePolicy`."""
        return self._column("attempts")

    @property
    def hedged(self) -> np.ndarray:
        """Per-request count of hedged (speculative duplicate) attempts
        actually issued."""
        return self._column("hedged")

    @property
    def deadline_exceeded(self) -> np.ndarray:
        """Per-request flag: 1 when the request completed past the
        policy's deadline."""
        return self._column("deadline_exceeded")

    def stack_columns(self, kind: str) -> dict[str, np.ndarray]:
        """One array per bucket for ``kind`` in {latency, embedded, cpu}."""
        return {
            bucket: self._stack_cols[kind, bucket][: self._count]
            for bucket in STACK_BUCKETS[kind]
        }

    def shard_columns(self, kind: str) -> dict:
        """Per-request per-shard columns for ``kind`` in
        :data:`~repro.tracing.aggregate.SHARD_KINDS`: ``"cpu"`` by shard
        index, ``"op"`` by sparse shard, ``"net_op"`` by (sparse shard,
        net name).  A request that never touched a key reads 0.0."""
        return {
            key: col[: self._count] for key, col in self._shard_cols[kind].items()
        }

    # -- per-workload views ------------------------------------------------
    @property
    def workloads(self) -> np.ndarray:
        """Per-request workload index (into ``workload_labels``), in
        completion order -- all zeros for single-workload runs."""
        return self._column("workload")

    def workload_mask(self, label: str) -> np.ndarray:
        """Boolean mask selecting one workload's requests."""
        return self.workloads == self.workload_labels.index(label)

    def split_by_workload(self, values: np.ndarray) -> dict[str, np.ndarray]:
        """Split any per-request column into ``{workload label: values}``."""
        workloads = self.workloads
        return {
            label: values[workloads == index]
            for index, label in enumerate(self.workload_labels)
        }

    def per_workload_e2e(self) -> dict[str, np.ndarray]:
        """E2E latency split by workload (the mix-figure accessor)."""
        return self.split_by_workload(self.e2e)

    @property
    def embedded_totals(self) -> np.ndarray:
        """Per-request embedded-portion totals (sum of embedded buckets)."""
        columns = self.stack_columns("embedded")
        total = np.zeros(self._count)
        for column in columns.values():
            total += column
        return total

    # -- per-shard demand --------------------------------------------------
    def _mean_shard_columns(
        self, kind: str, workload: str | None = None
    ) -> dict:
        """Per-shard column means over completed requests, sorted by key.

        Sums are strictly sequential in completion order
        (:func:`sequential_sum`), reproducing a per-request Python
        accumulation bit-for-bit; untouched requests contribute exact
        ``+0.0`` terms, which never perturb a float sum.
        """
        cols = self._shard_cols[kind]
        count = self._count
        if count == 0 or not cols:
            return {}
        if workload is None:
            return {
                key: sequential_sum(cols[key][:count]) / count
                for key in sorted(cols)
            }
        mask = self.workload_mask(workload)
        selected = int(np.count_nonzero(mask))
        if selected == 0:
            return {}
        return {
            key: sequential_sum(cols[key][:count][mask]) / selected
            for key in sorted(cols)
        }

    def mean_cpu_by_shard(self, workload: str | None = None) -> dict[int, float]:
        """Mean per-request CPU-seconds by shard (``MAIN_SHARD`` = -1).

        The replication planner's demand signal.  With ``workload`` set,
        only that tenant's requests (label column) are averaged -- the
        per-tenant demand of a co-located mix.  ``{}`` when no matching
        request completed.
        """
        return self._mean_shard_columns("cpu", workload)

    def mean_per_shard_op_time(self, workload: str | None = None) -> dict[int, float]:
        """Mean per-shard sparse-operator time; ``{}`` when no matching
        request completed."""
        return self._mean_shard_columns("op", workload)

    def mean_per_shard_net_op_time(self) -> dict[tuple[int, str], float]:
        """Mean per-(shard, net) sparse-operator time (Fig 10); ``{}`` when
        no request completed."""
        return self._mean_shard_columns("net_op")


def sequential_sum(values: np.ndarray) -> float:
    """Left-to-right float sum (``np.cumsum``, never the pairwise
    ``np.sum``): bit-identical to a Python ``sum`` over the values, so
    figure totals keep their exact bytes.  ``0.0`` when empty."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def run_configuration(
    model: ModelConfig,
    plan: ShardingPlan,
    requests: list[Request],
    serving: ServingConfig | None = None,
    schedule: ArrivalProcess | None = None,
) -> RunResult:
    """Simulate one configuration: the one-tenant spelling of
    :func:`run_mix_configuration`, with ``requests`` arriving by
    ``schedule`` (serial blocking replay when None)."""
    mix, stream = _one_workload(model, schedule or SerialArrivals(), requests)
    return run_mix_configuration(mix, [plan], stream, serving, label=plan.label)


def _one_workload(
    model: ModelConfig,
    arrivals: ArrivalProcess,
    requests: list[Request],
    request_seed: int = 3,
) -> tuple["WorkloadMix", "MixedStream"]:
    """A one-workload mix named after ``model``, and ``requests`` as its
    stream, timed by ``arrivals`` (untimed for serial replay)."""
    from repro.workloads.workload import MixedStream, Workload, WorkloadMix

    count = len(requests)
    times = arrivals.arrival_times(count)
    stream = MixedStream(times, np.zeros(count, np.int64), requests, (count,))
    return WorkloadMix((Workload(model.name, model, arrivals, request_seed),)), stream


@dataclass(frozen=True)
class SuiteSettings:
    """Shared settings for a paper-style sweep over configurations.

    The replay kernel is ``serving.kernel``
    (:data:`repro.simulation.engine.KERNELS`)."""

    num_requests: int = checked(count, 200)
    request_seed: int = checked(any_seed, 3)
    pooling_requests: int = checked(count, 1000)
    pooling_seed: int = checked(any_seed, 42)
    serving: ServingConfig = field(default_factory=ServingConfig)
    schedule: ArrivalProcess = field(default_factory=SerialArrivals)
    """When a single-model suite's requests arrive (:func:`run_suite`);
    a mix's workloads carry their own arrival processes."""
    trace_mode: TraceMode | None = None
    """Overrides ``serving.trace_mode`` when set; None keeps it."""

    def __post_init__(self) -> None:
        check_fields(self)

    def resolved_serving(self) -> ServingConfig:
        """The serving config with the suite-level trace-mode override
        applied."""
        serving = self.serving
        if self.trace_mode is not None and self.trace_mode is not serving.trace_mode:
            serving = serving.with_trace_mode(self.trace_mode)
        return serving


def run_suite(
    model: ModelConfig,
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
    max_workers: int | None = None,
) -> dict[str, RunResult]:
    """Run the paper's configuration matrix for one model: a
    :func:`run_mix_suite` over a one-workload mix named after the model.

    Every configuration replays the *same* sample, as the paper's
    replayer caches requests before sending: ``generate_many`` at
    ``settings.request_seed`` (request sizes spread over its five-day
    window), arriving by ``settings.schedule``.
    """
    settings = settings or SuiteSettings()
    seed = settings.request_seed
    requests = RequestGenerator(model, seed=seed).generate_many(settings.num_requests)
    mix, stream = _one_workload(model, settings.schedule, requests, seed)
    configurations = configurations or paper_configurations(model.name)
    return run_mix_suite(mix, settings, configurations, max_workers, stream=stream)


# -- multi-model workload mixes ----------------------------------------------
def run_mix_configuration(
    mix: "WorkloadMix",
    plans: list[ShardingPlan],
    stream: "MixedStream",
    serving: ServingConfig | None = None,
    label: str | None = None,
) -> RunResult:
    """Simulate one co-located deployment of a workload mix.

    ``plans[w]`` shards workload ``w``'s model; all tenants share the
    simulated hosts (``ClusterSimulation.colocated``), so the mix's
    queueing contention is simulated.  A one-workload stream without
    arrival times (``stream.times is None``) replays serially: each
    request is sent when the previous response returns.  The returned
    :class:`RunResult` carries a per-workload label column in completion
    order.

    Every request is attributed by one
    :class:`~repro.tracing.aggregate.AggregatingTracer` as it completes.
    Under the ``vectorized`` kernel (the default) the cluster's
    evaluator replays the idle arrivals, serial or open-loop; a run the
    evaluator cannot serve
    (:func:`~repro.serving.columnar.vectorized_ineligibility`) falls back
    to the batched DES, with the reason on ``kernel_fallback``.
    """
    from repro.serving.columnar import vectorized_ineligibility
    from repro.simulation.vectorized import SweepEvaluator

    if len(plans) != len(mix.workloads):
        raise ValueError(
            f"got {len(plans)} plans for {len(mix.workloads)} workloads"
        )
    result = RunResult(
        model_name="+".join(workload.model.name for workload in mix.workloads),
        label=label or " + ".join(plan.label for plan in plans),
        plan=plans[0],
        workload_labels=mix.labels(),
        plans=plans,
    )
    serving = serving or ServingConfig()
    if serving.kernel == "vectorized":
        result.kernel_fallback = vectorized_ineligibility(serving)
        if result.kernel_fallback is not None:
            serving = serving.with_kernel("batched")
    result.kernel_used = serving.kernel
    tracer = AggregatingTracer(len(stream))
    cluster = ClusterSimulation.colocated(
        [(workload.model, plan) for workload, plan in zip(mix.workloads, plans)],
        serving,
        tracer=tracer,
    )
    if serving.kernel == "vectorized":
        cluster.evaluator = SweepEvaluator(cluster)
    if len(mix.workloads) > 1:
        # Merged request ids are stream positions; one tenant's rows
        # all read workload 0, whatever its request ids.
        tracer.workload_ids = stream.workload_ids
    tracer.outcomes = cluster.outcomes
    cluster.on_complete = tracer.finalize_request
    if stream.times is None:
        cluster.run_serial(stream.requests)
    else:
        cluster.run_stream(stream)
    result.adopt_aggregate(tracer)
    result.des_requests = cluster.des_requests
    result.incomplete_requests = tuple(cluster.dropped_requests)
    result.chaos_timeline = cluster.chaos_timeline
    result.resilience_stats = cluster.resilience_stats
    result.aborted_rpcs = cluster.aborted_rpcs
    return result


def mix_poolings(
    mix: "WorkloadMix", settings: SuiteSettings
) -> list[dict[str, float]]:
    """Every workload's pooling-factor sample, the input :func:`mix_plans`
    shards by."""
    return [
        estimate_pooling_factors(
            workload.model,
            num_requests=settings.pooling_requests,
            seed=settings.pooling_seed,
        )
        for workload in mix.workloads
    ]


def mix_plans(
    mix: "WorkloadMix",
    configuration: ShardingConfiguration,
    poolings: list[dict[str, float]],
) -> list[ShardingPlan]:
    """Shard every workload's model by ``configuration`` from its pooling
    sample (:func:`mix_poolings`) -- the plans one configuration of
    :func:`run_mix_suite` replays."""
    return [
        build_plan(workload.model, configuration, pooling)
        for workload, pooling in zip(mix.workloads, poolings)
    ]


def mix_stream(mix: "WorkloadMix", settings: SuiteSettings) -> "MixedStream":
    """Sample a mix's merged request stream once per sweep."""
    return mix.sample(settings.num_requests)


def _replay_mix_configuration(
    configuration: ShardingConfiguration,
) -> tuple[str, RunResult]:
    """Sweep task: shard every tenant by one configuration, replay co-located."""
    mix, poolings, stream, serving = worker_context()
    result = run_mix_configuration(
        mix, mix_plans(mix, configuration, poolings), stream, serving,
        label=configuration.label,
    )
    return configuration.label, result


def run_mix_suite(
    mix: "WorkloadMix",
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
    max_workers: int | None = None,
    *,
    stream: "MixedStream | None" = None,
) -> dict[str, RunResult]:
    """Run a configuration sweep for a co-located workload mix -- the one
    sweep driver; :func:`run_suite` is its one-workload spelling.

    Each configuration is applied to *every* workload's model (so it must
    be valid for all of them); every configuration replays the same
    merged stream, sampled once before the configurations fan out over
    :func:`~repro.experiments.parallel.run_cluster_tasks`
    (``max_workers`` processes, the usable CPUs when None); the result is
    byte-identical for every worker count and keeps the configuration
    order.  ``settings.num_requests`` is the per-workload request count.
    A caller that already holds the sample (:func:`mix_stream` of the
    same mix and settings, or :func:`run_suite`'s untimed serial stream)
    passes it as ``stream``; it is sampled here only when none is given.
    """
    settings = settings or SuiteSettings()
    configurations = configurations or mix_configurations(
        workload.model.name for workload in mix.workloads
    )
    if stream is None:
        stream = mix_stream(mix, settings)
    serving = settings.resolved_serving()
    context = (mix, mix_poolings(mix, settings), stream, serving)
    tasks = [(_replay_mix_configuration, config) for config in configurations]
    return dict(run_cluster_tasks(tasks, context, max_workers))
