"""Experiment runner: simulate configurations, collect attributed results.

One :class:`RunResult` holds everything the figure generators need for one
(model, sharding configuration, serving configuration) cell: per-request
E2E latency, per-request aggregate CPU, and the full per-request
attributions.  Traces are attributed incrementally as requests complete
and raw spans are freed, so full sweeps stay memory-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.host import env_positive_int
from repro.experiments.parallel import run_cluster_tasks, worker_context
from repro.models.config import ModelConfig
from repro.requests.generator import Request, RequestGenerator
from repro.requests.replayer import ReplayMode, ReplaySchedule
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.sharding.plan import ShardingPlan
from repro.sharding.pooling import estimate_pooling_factors
from repro.tracing.aggregate import AggregatingTracer, TraceMode
from repro.tracing.attribution import (
    CPU_BUCKETS,
    E2E_BUCKETS,
    EMBEDDED_BUCKETS,
    RequestAttribution,
    attribute_request,
)
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.workload import MixedStream, WorkloadMix
from repro.experiments.configs import (
    ShardingConfiguration,
    build_plan,
    mix_configurations,
    paper_configurations,
)

#: Environment knob: request count per configuration in suites/benches.
REQUESTS_ENV = "REPRO_REQUESTS"
DEFAULT_REQUESTS = 200

#: Environment knob: vectorized-kernel chunk size (requests per columnar
#: batch).  The fast path materializes per-request cost arrays one chunk
#: at a time, so peak memory is O(chunk), not O(sweep) -- the default
#: keeps million-request sweeps flat while amortizing numpy dispatch.
CHUNK_ENV = "REPRO_CHUNK"
DEFAULT_CHUNK = 2048


def default_num_requests() -> int:
    """Request count per configuration: ``REPRO_REQUESTS`` if set.

    Malformed or non-positive values fail fast with a message naming the
    variable and the offending value, instead of a bare ``ValueError``
    surfacing from ``int()`` deep inside a sweep.
    """
    return env_positive_int(REQUESTS_ENV, DEFAULT_REQUESTS)


def default_chunk_size() -> int:
    """Vectorized-kernel chunk size: ``REPRO_CHUNK`` if set.

    Validated exactly like ``REPRO_REQUESTS``.  Chunking changes only
    how many requests are columnarized per numpy pass, never the replay
    arithmetic, so any chunk size yields bit-identical results."""
    return env_positive_int(CHUNK_ENV, DEFAULT_CHUNK)


class RunResult:
    """Attributed measurements for one simulated configuration.

    Storage is **columnar**: E2E latency, aggregate CPU, and the three
    per-request stacks live in preallocated numpy arrays that are filled
    incrementally as requests complete (grown by doubling).  Figure
    generation therefore reads ready-made arrays instead of rebuilding
    them from the list of :class:`RequestAttribution` dataclasses on
    every access.  Per-shard CPU-demand and sparse-op-time columns are
    filled in both trace modes; the full attributions are retained (FULL
    mode only) for the per-(shard, net) breakdown and ad-hoc inspection.
    """

    _COLUMN_BUCKETS = {
        "latency": E2E_BUCKETS,
        "embedded": EMBEDDED_BUCKETS,
        "cpu": CPU_BUCKETS,
    }

    def __init__(
        self,
        model_name: str,
        label: str,
        plan: ShardingPlan,
        expected_requests: int = 0,
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
        self.attributions: list[RequestAttribution] = []
        #: DES kernel that actually produced these columns ("reference",
        #: "batched", or "vectorized"); None until the runner sets it.
        self.kernel_used: str | None = None
        #: Why a ``kernel="vectorized"`` run fell back to the batched
        #: kernel (a stable reason string from
        #: :mod:`repro.serving.columnar`); None when no fallback happened.
        self.kernel_fallback: str | None = None
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
        capacity = max(int(expected_requests), 16)
        self._count = 0
        self._e2e = np.empty(capacity)
        self._cpu = np.empty(capacity)
        self._workload = np.zeros(capacity, dtype=np.int64)
        # Chaos columns (see the accessors below); all-zero statuses on
        # healthy runs, and the id column maps completion-order rows back
        # to arrival order.
        self._rid = np.empty(capacity, dtype=np.int64)
        self._status = np.zeros(capacity, dtype=np.int64)
        self._degraded = np.zeros(capacity, dtype=np.int64)
        self._retries = np.zeros(capacity, dtype=np.int64)
        # Resilience columns; all-zero without an active policy.
        self._attempts = np.zeros(capacity, dtype=np.int64)
        self._hedged = np.zeros(capacity, dtype=np.int64)
        self._deadline = np.zeros(capacity, dtype=np.int64)
        self._stack_cols: dict[tuple[str, str], np.ndarray] = {
            (kind, bucket): np.empty(capacity)
            for kind, buckets in self._COLUMN_BUCKETS.items()
            for bucket in buckets
        }
        # Per-shard demand columns, keyed by shard index (MAIN_SHARD = -1):
        # per-request CPU-seconds by shard, and per-request sparse-operator
        # time by sparse shard.  Lazily created, zero-filled (a request that
        # never touched a shard contributes exactly 0.0), populated in both
        # FULL and AGGREGATE trace modes -- the replication planner's
        # demand signal.
        self._shard_cpu_cols: dict[int, np.ndarray] = {}
        self._shard_op_cols: dict[int, np.ndarray] = {}

    def _grow(self, capacity: int) -> None:
        def grown(array: np.ndarray) -> np.ndarray:
            out = np.empty(capacity, dtype=array.dtype)
            out[: self._count] = array[: self._count]
            return out

        def grown_zeros(array: np.ndarray) -> np.ndarray:
            out = np.zeros(capacity, dtype=array.dtype)
            out[: self._count] = array[: self._count]
            return out

        self._e2e = grown(self._e2e)
        self._cpu = grown(self._cpu)
        self._workload = grown(self._workload)
        self._rid = grown(self._rid)
        self._status = grown_zeros(self._status)
        self._degraded = grown_zeros(self._degraded)
        self._retries = grown_zeros(self._retries)
        self._attempts = grown_zeros(self._attempts)
        self._hedged = grown_zeros(self._hedged)
        self._deadline = grown_zeros(self._deadline)
        self._stack_cols = {key: grown(col) for key, col in self._stack_cols.items()}
        self._shard_cpu_cols = {
            key: grown_zeros(col) for key, col in self._shard_cpu_cols.items()
        }
        self._shard_op_cols = {
            key: grown_zeros(col) for key, col in self._shard_op_cols.items()
        }

    def _shard_column(self, cols: dict[int, np.ndarray], shard: int) -> np.ndarray:
        col = cols.get(shard)
        if col is None:
            col = cols[shard] = np.zeros(len(self._e2e))
        return col

    def add(
        self,
        attribution: RequestAttribution,
        workload: int = 0,
        degraded: int = 0,
        retries: int = 0,
        attempts: int = 0,
        hedged: int = 0,
        deadline_exceeded: int = 0,
    ) -> None:
        """Append one completed request's attribution."""
        index = self._count
        if index == len(self._e2e):
            self._grow(2 * index)
        self.attributions.append(attribution)
        self._e2e[index] = attribution.e2e
        self._cpu[index] = attribution.cpu_total
        self._workload[index] = workload
        self._rid[index] = attribution.request_id
        if degraded or retries:
            self._status[index] = 1 if degraded else 0
            self._degraded[index] = degraded
            self._retries[index] = retries
        if attempts or hedged or deadline_exceeded:
            self._attempts[index] = attempts
            self._hedged[index] = hedged
            self._deadline[index] = deadline_exceeded
        cols = self._stack_cols
        for bucket, value in attribution.latency_stack.items():
            cols["latency", bucket][index] = value
        for bucket, value in attribution.embedded_stack.items():
            cols["embedded", bucket][index] = value
        for bucket, value in attribution.cpu_stack.items():
            cols["cpu", bucket][index] = value
        for shard, value in attribution.per_shard_cpu.items():
            self._shard_column(self._shard_cpu_cols, shard)[index] = value
        for shard, value in attribution.per_shard_op_time.items():
            self._shard_column(self._shard_op_cols, shard)[index] = value
        self._count = index + 1

    def __len__(self) -> int:
        return self._count

    # -- columnar accessors (no per-access rebuild) -----------------------
    @property
    def e2e(self) -> np.ndarray:
        return self._e2e[: self._count]

    @property
    def cpu(self) -> np.ndarray:
        return self._cpu[: self._count]

    # -- chaos columns (both trace modes) ----------------------------------
    @property
    def request_ids(self) -> np.ndarray:
        """Per-row request id, in completion order.  Under fault injection
        completion order diverges from arrival order, and this column is
        what maps a row back to its arrival time (availability timelines
        index ``arrival_times[request_ids]``)."""
        return self._rid[: self._count]

    @property
    def status(self) -> np.ndarray:
        """Per-request outcome: 0 = full response, 1 = degraded (at least
        one sparse RPC found no live replica and the request was served
        dense-only for that net).  All zeros on healthy runs."""
        return self._status[: self._count]

    @property
    def degraded(self) -> np.ndarray:
        """Per-request count of degraded (dense-only) sparse RPCs."""
        return self._degraded[: self._count]

    @property
    def retries(self) -> np.ndarray:
        """Per-request count of RPC failovers (dead host -> live replica),
        including mid-service aborts."""
        return self._retries[: self._count]

    # -- resilience columns (both trace modes) -----------------------------
    @property
    def attempts(self) -> np.ndarray:
        """Per-request count of policy-issued RPC attempts (first sends,
        hedges, and timeout retries).  All zeros without an active
        :class:`~repro.resilience.ResiliencePolicy`."""
        return self._attempts[: self._count]

    @property
    def hedged(self) -> np.ndarray:
        """Per-request count of hedged (speculative duplicate) attempts
        actually issued."""
        return self._hedged[: self._count]

    @property
    def deadline_exceeded(self) -> np.ndarray:
        """Per-request flag: 1 when the request completed past the
        policy's deadline."""
        return self._deadline[: self._count]

    def stack_columns(self, kind: str) -> dict[str, np.ndarray]:
        """One array per bucket for ``kind`` in {latency, embedded, cpu}."""
        return {
            bucket: self._stack_cols[kind, bucket][: self._count]
            for bucket in self._COLUMN_BUCKETS[kind]
        }

    # -- per-workload views ------------------------------------------------
    @property
    def workloads(self) -> np.ndarray:
        """Per-request workload index (into ``workload_labels``), in
        completion order -- all zeros for single-workload runs."""
        return self._workload[: self._count]

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

    # -- row-oriented views (compatibility with pre-columnar callers) -----
    def _stacks(self, kind: str) -> list[dict[str, float]]:
        columns = self.stack_columns(kind)
        buckets = self._COLUMN_BUCKETS[kind]
        return [
            {bucket: float(columns[bucket][i]) for bucket in buckets}
            for i in range(self._count)
        ]

    def latency_stacks(self) -> list[dict[str, float]]:
        return self._stacks("latency")

    def embedded_stacks(self) -> list[dict[str, float]]:
        return self._stacks("embedded")

    def cpu_stacks(self) -> list[dict[str, float]]:
        return self._stacks("cpu")

    def adopt_aggregate(self, tracer: AggregatingTracer) -> None:
        """Take over an :class:`AggregatingTracer`'s columnar output.

        The tracer attributed every completed request straight into the
        same column layout this class preallocates, so adoption is a
        pointer handoff -- no per-request dataclasses were ever built.
        ``attributions`` stays empty; the per-shard demand columns are
        adopted too, so :meth:`mean_cpu_by_shard` and
        :meth:`mean_per_shard_op_time` work identically in both trace
        modes (only the per-(shard, net) breakdown still needs FULL).
        """
        (
            count, e2e, cpu, stack_cols, workload, shard_cpu, shard_op,
            rid, status, degraded, retries, attempts, hedged, deadline,
        ) = tracer.export_columns()
        if set(stack_cols) != set(self._stack_cols):
            raise ValueError("aggregate tracer columns do not match RunResult layout")
        self._count = count
        self._e2e = e2e
        self._cpu = cpu
        self._workload = workload
        self._stack_cols = stack_cols
        self._shard_cpu_cols = shard_cpu
        self._shard_op_cols = shard_op
        self._rid = rid
        self._status = status
        self._degraded = degraded
        self._retries = retries
        self._attempts = attempts
        self._hedged = hedged
        self._deadline = deadline

    # -- per-shard demand (both trace modes) -------------------------------
    def _mean_shard_columns(
        self, cols: dict[int, np.ndarray], workload: str | None
    ) -> dict[int, float]:
        """Per-shard column means over completed requests, sorted by shard.

        Sums are strictly sequential in completion order (``np.cumsum``),
        reproducing the historical per-attribution Python accumulation
        bit-for-bit; untouched requests contribute exact ``+0.0`` terms,
        which never perturb a float sum.
        """
        count = self._count
        if count == 0 or not cols:
            return {}
        if workload is None:
            return {
                shard: float(np.cumsum(cols[shard][:count])[-1]) / count
                for shard in sorted(cols)
            }
        mask = self.workload_mask(workload)
        selected = int(np.count_nonzero(mask))
        if selected == 0:
            return {}
        return {
            shard: float(np.cumsum(cols[shard][:count][mask])[-1]) / selected
            for shard in sorted(cols)
        }

    def mean_cpu_by_shard(self, workload: str | None = None) -> dict[int, float]:
        """Mean per-request CPU-seconds by shard (``MAIN_SHARD`` = -1).

        The replication planner's demand signal, available in FULL *and*
        AGGREGATE trace modes.  With ``workload`` set, only that tenant's
        requests (label column) are averaged -- the per-tenant demand of a
        co-located mix.  ``{}`` when no matching request completed.
        """
        return self._mean_shard_columns(self._shard_cpu_cols, workload)

    def mean_per_shard_op_time(self, workload: str | None = None) -> dict[int, float]:
        """Mean per-shard sparse-operator time (both trace modes); ``{}``
        when no matching request completed."""
        return self._mean_shard_columns(self._shard_op_cols, workload)

    def mean_per_shard_net_op_time(self) -> dict[tuple[int, str], float]:
        """Mean per-(shard, net) operator time; ``{}`` without attributions
        (zero completed requests, or AGGREGATE trace mode -- the one
        breakdown that still requires retained FULL attributions)."""
        if not self.attributions:
            return {}
        totals: dict[tuple[int, str], float] = {}
        for attribution in self.attributions:
            for key, value in attribution.per_shard_net_op_time.items():
                totals[key] = totals.get(key, 0.0) + value
        return {key: v / len(self.attributions) for key, v in sorted(totals.items())}


def run_configuration(
    model: ModelConfig,
    plan: ShardingPlan,
    requests: list[Request],
    serving: ServingConfig | None = None,
    schedule: ReplaySchedule | None = None,
) -> RunResult:
    """Simulate one configuration and attribute every request.

    In ``TraceMode.FULL`` every completed request's spans are popped and
    attributed into a retained :class:`RequestAttribution`; in
    ``TraceMode.AGGREGATE`` the tracer attributes bucket sums straight
    into the columnar arrays and the result adopts them wholesale --
    identical columns, no span or dataclass retention.

    ``serving.kernel == "vectorized"`` (the default) dispatches eligible
    runs (serial closed-loop, chaos-free, AGGREGATE) to the columnar
    replay engine (:func:`repro.serving.columnar.run_vectorized`) --
    bit-identical columns, no event loop; ineligible runs fall back to
    the batched kernel with the reason recorded on
    ``RunResult.kernel_fallback``.
    """
    schedule = schedule or ReplaySchedule.serial()
    serving = serving or ServingConfig()
    kernel_fallback: str | None = None
    if serving.kernel == "vectorized":
        from repro.serving.columnar import run_vectorized, vectorized_ineligibility

        kernel_fallback = vectorized_ineligibility(serving, schedule)
        if kernel_fallback is None:
            collector, cluster = run_vectorized(
                model, plan, requests, serving, default_chunk_size()
            )
            result = RunResult(
                model_name=model.name,
                label=plan.label,
                plan=plan,
                expected_requests=0,
            )
            result.adopt_aggregate(collector)
            result.kernel_used = "vectorized"
            result.chaos_timeline = cluster.chaos_timeline
            return result
        serving = serving.with_kernel("batched")
    aggregate = serving.trace_mode is TraceMode.AGGREGATE
    cluster = ClusterSimulation(
        model, plan, serving,
        tracer=AggregatingTracer(expected_requests=len(requests)) if aggregate else None,
    )
    result = RunResult(
        model_name=model.name,
        label=plan.label,
        plan=plan,
        # In aggregate mode the tracer owns the (right-sized) columns and
        # the result adopts them, so don't preallocate a second set here.
        expected_requests=0 if aggregate else len(requests),
    )

    tracer = cluster.tracer
    chaos_flags = cluster.chaos_flags
    res_flags = cluster.resilience_flags
    if isinstance(tracer, AggregatingTracer):
        tracer.chaos_flags = chaos_flags
        tracer.resilience_flags = res_flags
        cluster.on_complete = tracer.finalize_request
    elif chaos_flags is None and res_flags is None:
        def on_complete(request_id: int) -> None:
            result.add(attribute_request(tracer.pop_request(request_id)))

        cluster.on_complete = on_complete
    else:
        def on_complete(request_id: int) -> None:
            flags = chaos_flags.get(request_id) if chaos_flags else None
            rflags = res_flags.get(request_id) if res_flags else None
            result.add(
                attribute_request(tracer.pop_request(request_id)),
                degraded=flags[0] if flags else 0,
                retries=flags[1] if flags else 0,
                attempts=rflags[0] if rflags else 0,
                hedged=rflags[1] if rflags else 0,
                deadline_exceeded=rflags[2] if rflags else 0,
            )

        cluster.on_complete = on_complete
    if schedule.mode is ReplayMode.SERIAL:
        cluster.run_serial(requests)
    else:
        cluster.run_open_loop(requests, schedule)
    if isinstance(tracer, AggregatingTracer):
        result.adopt_aggregate(tracer)
    result.kernel_used = serving.kernel
    result.kernel_fallback = kernel_fallback
    result.incomplete_requests = tuple(cluster.dropped_requests)
    result.chaos_timeline = cluster.chaos_timeline
    result.resilience_stats = cluster.resilience_stats
    result.aborted_rpcs = cluster.chaos_aborted
    return result


@dataclass(frozen=True)
class SuiteSettings:
    """Shared settings for a paper-style sweep over configurations."""

    num_requests: int = 0  # 0 -> default_num_requests()
    request_seed: int = 3
    pooling_requests: int = 1000
    pooling_seed: int = 42
    serving: ServingConfig = field(default_factory=ServingConfig)
    schedule: ReplaySchedule = field(default_factory=ReplaySchedule.serial)
    trace_mode: TraceMode | None = None
    """Overrides ``serving.trace_mode`` when set; None keeps it."""

    kernel: str | None = None
    """Overrides ``serving.kernel`` when set (one of
    :data:`repro.simulation.engine.KERNELS`); None keeps it.  Every
    kernel replays bit-identical results (see
    ``tests/test_kernel_equivalence.py``), so an override only forces
    which code path produces them."""

    arrivals: ArrivalProcess | None = None
    """Overrides ``schedule`` with any workload-subsystem arrival process
    (diurnal, MMPP, constant-rate, ...) when set; None keeps the
    schedule.  The classic serial / fixed-QPS spellings stay on
    ``schedule`` and replay byte-identical streams either way.  With a
    timed process set, request timestamps are the arrival times
    themselves (matching ``Workload.sample``), so the generator's
    diurnal request-size modulation tracks the arrival curve instead of
    the default 5-day linspace window."""

    def __post_init__(self) -> None:
        if self.num_requests < 0:
            raise ValueError(
                "num_requests must be >= 1, or 0 for the REPRO_REQUESTS "
                f"default, got {self.num_requests}"
            )
        if self.pooling_requests < 1:
            raise ValueError(
                f"pooling_requests must be >= 1, got {self.pooling_requests}"
            )

    def resolved_requests(self) -> int:
        return self.num_requests or default_num_requests()

    def resolved_serving(self) -> ServingConfig:
        """The serving config with the suite-level trace-mode and kernel
        overrides applied."""
        serving = self.serving
        if self.trace_mode is not None and self.trace_mode is not serving.trace_mode:
            serving = serving.with_trace_mode(self.trace_mode)
        if self.kernel is not None and self.kernel != serving.kernel:
            serving = serving.with_kernel(self.kernel)
        return serving

    def resolved_schedule(self) -> ReplaySchedule:
        """The replay schedule, with ``arrivals`` applied when set."""
        if self.arrivals is None:
            return self.schedule
        return ReplaySchedule.from_arrivals(self.arrivals)


def suite_requests(model: ModelConfig, settings: SuiteSettings) -> list[Request]:
    generator = RequestGenerator(model, seed=settings.request_seed)
    count = settings.resolved_requests()
    if settings.arrivals is not None:
        times = settings.arrivals.arrival_times(count)
        if times is not None:
            # Timed arrival process: timestamps are the arrival times, so
            # the diurnal size modulation tracks the arrival curve
            # (Workload.sample semantics).  Serial arrivals fall through
            # to the classic evenly-sampled window.
            return generator.generate_batch(np.asarray(times, dtype=np.float64))
    return generator.generate_many(count)


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
        settings.resolved_serving(), settings.resolved_schedule(),
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
    carries a per-workload label column in completion order -- filled by
    the attribution hook in FULL mode and by the aggregating tracer in
    AGGREGATE mode, bit-identically (``stream.workload_ids`` is indexed
    by request id either way, since merged ids are stream positions).
    """
    if len(plans) != len(mix.workloads):
        raise ValueError(
            f"got {len(plans)} plans for {len(mix.workloads)} workloads"
        )
    serving = serving or ServingConfig()
    kernel_fallback: str | None = None
    if serving.kernel == "vectorized":
        # Co-located tenants share host queues, so per-request costs are
        # no longer closed-form -- the mix path always takes the batched
        # kernel and records why.
        from repro.serving.columnar import REASON_MIX

        kernel_fallback = REASON_MIX
        serving = serving.with_kernel("batched")
    aggregate = serving.trace_mode is TraceMode.AGGREGATE
    cluster = ClusterSimulation.colocated(
        [(workload.model, plan) for workload, plan in zip(mix.workloads, plans)],
        serving,
        tracer=AggregatingTracer(expected_requests=len(stream)) if aggregate else None,
    )
    result = RunResult(
        model_name="+".join(workload.model.name for workload in mix.workloads),
        label=label or " + ".join(plan.label for plan in plans),
        plan=plans[0],
        expected_requests=0 if aggregate else len(stream),
        workload_labels=mix.labels(),
        plans=plans,
    )
    workload_ids = stream.workload_ids
    tracer = cluster.tracer
    chaos_flags = cluster.chaos_flags
    res_flags = cluster.resilience_flags
    if isinstance(tracer, AggregatingTracer):
        tracer.workload_ids = workload_ids
        tracer.chaos_flags = chaos_flags
        tracer.resilience_flags = res_flags
        cluster.on_complete = tracer.finalize_request
    elif chaos_flags is None and res_flags is None:
        def on_complete(request_id: int) -> None:
            result.add(
                attribute_request(tracer.pop_request(request_id)),
                workload=int(workload_ids[request_id]),
            )

        cluster.on_complete = on_complete
    else:
        def on_complete(request_id: int) -> None:
            flags = chaos_flags.get(request_id) if chaos_flags else None
            rflags = res_flags.get(request_id) if res_flags else None
            result.add(
                attribute_request(tracer.pop_request(request_id)),
                workload=int(workload_ids[request_id]),
                degraded=flags[0] if flags else 0,
                retries=flags[1] if flags else 0,
                attempts=rflags[0] if rflags else 0,
                hedged=rflags[1] if rflags else 0,
                deadline_exceeded=rflags[2] if rflags else 0,
            )

        cluster.on_complete = on_complete
    cluster.run_stream(stream)
    if isinstance(tracer, AggregatingTracer):
        result.adopt_aggregate(tracer)
    result.kernel_used = serving.kernel
    result.kernel_fallback = kernel_fallback
    result.incomplete_requests = tuple(cluster.dropped_requests)
    result.chaos_timeline = cluster.chaos_timeline
    result.resilience_stats = cluster.resilience_stats
    result.aborted_rpcs = cluster.chaos_aborted
    return result


def mix_stream(mix: "WorkloadMix", settings: SuiteSettings) -> "MixedStream":
    """Sample a mix's merged request stream once per sweep (the mix-side
    analogue of :func:`suite_requests`)."""
    return mix.sample(settings.resolved_requests())


def _replay_mix_configuration(
    configuration: ShardingConfiguration,
) -> tuple[str, RunResult]:
    """Sweep task: shard every tenant by one configuration, replay co-located."""
    mix, poolings, stream, serving = worker_context()
    plans = [
        build_plan(workload.model, configuration, pooling)
        for workload, pooling in zip(mix.workloads, poolings)
    ]
    result = run_mix_configuration(
        mix, plans, stream, serving, label=configuration.label
    )
    return configuration.label, result


def run_mix_suite(
    mix: "WorkloadMix",
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
    max_workers: int | None = None,
) -> dict[str, RunResult]:
    """Run a configuration sweep for a co-located workload mix.

    Each configuration is applied to *every* workload's model (so it must
    be valid for all of them); every configuration replays the same
    merged stream, sampled once before the fan-out, mirroring
    :func:`run_suite` (``max_workers`` included).
    ``settings.num_requests`` is the per-workload request count.
    """
    settings = settings or SuiteSettings()
    configurations = configurations or mix_configurations(
        workload.model.name for workload in mix.workloads
    )
    stream = mix_stream(mix, settings)
    poolings = [
        estimate_pooling_factors(
            workload.model,
            num_requests=settings.pooling_requests,
            seed=settings.pooling_seed,
        )
        for workload in mix.workloads
    ]
    context = (mix, poolings, stream, settings.resolved_serving())
    tasks = [(_replay_mix_configuration, config) for config in configurations]
    return dict(run_cluster_tasks(tasks, context, max_workers))
