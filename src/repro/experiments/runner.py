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
from repro.requests.replayer import ReplayMode, ReplaySchedule
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.sharding.plan import ShardingPlan
from repro.sharding.pooling import estimate_pooling_factors
from repro.tracing.aggregate import STACK_BUCKETS, AggregatingTracer, TraceMode
from repro.experiments.configs import (
    ShardingConfiguration,
    build_plan,
    mix_configurations,
    paper_configurations,
)

if TYPE_CHECKING:
    from repro.workloads.workload import MixedStream, WorkloadMix

#: Vectorized-kernel chunk size (requests per columnar batch).  The fast
#: path materializes per-request cost arrays one chunk at a time, so peak
#: memory is O(chunk), not O(sweep) -- 2048 keeps million-request sweeps
#: flat while amortizing numpy dispatch.  Chunking changes only how many
#: requests are columnarized per numpy pass, never the replay arithmetic,
#: so any chunk size yields bit-identical results.
CHUNK_SIZE = 2048


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
        #: DES kernel that actually produced these columns ("reference",
        #: "batched", or "vectorized"); None until the runner sets it.
        self.kernel_used: str | None = None
        #: Why a ``kernel="vectorized"`` run fell back to the batched
        #: kernel (a stable reason string from
        #: :mod:`repro.serving.columnar`); None when no fallback happened.
        self.kernel_fallback: str | None = None
        #: Requests the DES replayed: every request for a DES kernel;
        #: under ``vectorized``, the busy-period arrivals of an open-loop
        #: run plus the rare request whose acquires tie on a worker pool
        #: (the rest took the evaluator, batches queueing FIFO for the
        #: workers -- every request of a serial run without such a tie).
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
    schedule: ReplaySchedule | None = None,
) -> RunResult:
    """Simulate one configuration and attribute every request.

    Every replay is attributed by an
    :class:`~repro.tracing.aggregate.AggregatingTracer`, which folds each
    completed request straight into columns the result adopts; no span
    is built and ``serving.trace_mode`` plays no part.

    Every kernel reads its plans from the columnar chunks of
    :func:`repro.serving.columnar.idle_arrival_cluster`.
    ``serving.kernel == "vectorized"`` (the default) replays an eligible
    run -- serial or open-loop -- on the DES with every idle arrival
    taking the columnar engine (a serial run reaches the DES only for a
    request whose acquires tie on a worker pool), bit-identical to the
    batched kernel; ineligible runs fall back to the batched kernel with
    the reason recorded on ``RunResult.kernel_fallback``.
    """
    schedule = schedule or ReplaySchedule.serial()
    serving = serving or ServingConfig()
    result = RunResult(model_name=model.name, label=plan.label, plan=plan)
    tenants = [0] * len(requests)
    tracer, cluster = _replay_cluster(
        result, [(model, plan)], serving, tenants, requests
    )
    if schedule.mode is ReplayMode.SERIAL:
        _replay(cluster, tracer, result, cluster.run_serial, requests)
    else:
        arrivals = schedule.arrival_times(len(requests))
        stream = zip(arrivals, tenants, requests)
        _replay(cluster, tracer, result, cluster.run_stream, stream)
    return result


def _replay_cluster(
    result: RunResult,
    tenants: list[tuple[ModelConfig, ShardingPlan]],
    serving: ServingConfig,
    stream_tenants: list[int],
    requests: list[Request],
) -> tuple[AggregatingTracer, ClusterSimulation]:
    """The tracer and cluster a run replays on, with the kernel that
    replays it recorded on ``result``.

    Every run reads its plans from columnar chunks
    (:func:`~repro.serving.columnar.idle_arrival_cluster`).  Under the
    ``vectorized`` kernel idle arrivals take the columnar engine; a run
    the evaluator cannot serve
    (:func:`~repro.serving.columnar.vectorized_ineligibility`) falls back
    to the batched DES, with the reason on ``result.kernel_fallback``.
    """
    from repro.serving.columnar import (
        idle_arrival_cluster,
        vectorized_ineligibility,
    )

    if serving.kernel == "vectorized":
        result.kernel_fallback = vectorized_ineligibility(serving)
        if result.kernel_fallback is not None:
            serving = serving.with_kernel("batched")
    result.kernel_used = serving.kernel
    return idle_arrival_cluster(
        tenants, serving, stream_tenants, requests, CHUNK_SIZE
    )


def _replay(
    cluster: ClusterSimulation,
    tracer: AggregatingTracer,
    result: RunResult,
    run,
    *args,
) -> None:
    """Replay on the DES with ``tracer`` attributing every completion,
    then move the columns and the replay's outcome onto ``result``."""
    tracer.outcomes = cluster.outcomes
    cluster.on_complete = tracer.finalize_request
    run(*args)
    result.adopt_aggregate(tracer)
    result.des_requests = cluster.des_requests
    result.incomplete_requests = tuple(cluster.dropped_requests)
    result.chaos_timeline = cluster.chaos_timeline
    result.resilience_stats = cluster.resilience_stats
    result.aborted_rpcs = cluster.aborted_rpcs


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
    schedule: ReplaySchedule = field(default_factory=ReplaySchedule.serial)
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


def suite_requests(model: ModelConfig, settings: SuiteSettings) -> list[Request]:
    generator = RequestGenerator(model, seed=settings.request_seed)
    return generator.generate_many(settings.num_requests)


def _replay_configuration(
    configuration: ShardingConfiguration,
) -> tuple[str, RunResult]:
    """Sweep task: build one configuration's plan and replay it."""
    model, pooling, requests, serving, schedule = worker_context()
    plan = build_plan(model, configuration, pooling)
    return plan.label, run_configuration(model, plan, requests, serving, schedule)


def run_suite(
    model: ModelConfig,
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
    max_workers: int | None = None,
) -> dict[str, RunResult]:
    """Run the paper's configuration matrix for one model.

    Every configuration replays the *same* request sample (the paper's
    replayer preprocesses and caches requests before sending): it is
    generated, and the pooling factors estimated, once before the
    configurations fan out over
    :func:`~repro.experiments.parallel.run_cluster_tasks` -- ``max_workers``
    processes, :func:`~repro.experiments.parallel.default_workers` when
    None.  The result is byte-identical for every worker count and keeps
    the configuration order.
    """
    settings = settings or SuiteSettings()
    configurations = configurations or paper_configurations(model.name)
    requests = suite_requests(model, settings)
    pooling = estimate_pooling_factors(
        model, num_requests=settings.pooling_requests, seed=settings.pooling_seed
    )
    context = (
        model, pooling, requests,
        settings.resolved_serving(), settings.schedule,
    )
    tasks = [(_replay_configuration, config) for config in configurations]
    return dict(run_cluster_tasks(tasks, context, max_workers))


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
    queueing contention is simulated.  The returned :class:`RunResult`
    carries a per-workload label column in completion order.
    """
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
    tracer, cluster = _replay_cluster(
        result,
        [(workload.model, plan) for workload, plan in zip(mix.workloads, plans)],
        serving or ServingConfig(),
        stream.workload_ids.tolist(),
        stream.requests,
    )
    # Merged request ids are stream positions, so the stream's workload
    # ids label each completed row.
    tracer.workload_ids = stream.workload_ids
    _replay(cluster, tracer, result, cluster.run_stream, stream)
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
    """Sample a mix's merged request stream once per sweep (the mix-side
    analogue of :func:`suite_requests`)."""
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
    """Run a configuration sweep for a co-located workload mix.

    Each configuration is applied to *every* workload's model (so it must
    be valid for all of them); every configuration replays the same
    merged stream, sampled once before the fan-out, mirroring
    :func:`run_suite` (``max_workers`` included).
    ``settings.num_requests`` is the per-workload request count.  A
    caller that already holds the sample (:func:`mix_stream` of the same
    mix and settings) passes it as ``stream``; it is sampled here only
    when none is given.
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
