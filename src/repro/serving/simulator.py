"""Discrete-event simulation of the distributed inference serving stack.

Faithfully models the serving pipeline of paper Section III on top of the
DES kernel:

* every shard (main + sparse) is a **server** with a Thrift-like service:
  a worker-thread pool (cores resource), an egress NIC serialized at link
  bandwidth, and a skewed wall clock;
* a ranking request arrives at the main shard, is deserialized, split into
  **batches** (Section VI-F), and each batch executes the model's nets
  sequentially: bottom dense ops, then the sparse portion -- local SLS in
  the singular configuration, or asynchronous RPC fan-out to the sparse
  shards of the plan -- then interaction/top dense ops;
* each RPC pays serialization, network (propagation + wire + jitter),
  shard-side service/framework/operator time, and response handling; RPCs
  with no active lookups are skipped entirely, which is why DRM3 touches
  only two shards per request regardless of shard count (Section VI-E1);
* the cross-layer tracer records every instrumented interval, exactly
  like the paper's instrumentation hooks.  Experiment runs pass the
  aggregate accumulator, which folds intervals into columnar bucket sums
  span-free; a bare cluster in ``TraceMode.FULL`` (the default) records
  :class:`~repro.tracing.span.Span` objects instead, for trace rendering.

The simulator consumes *count-level* requests (no real ids): all costs are
functions of id counts, table metadata, and bytes.

Multi-model co-location (ROADMAP workload axes): a cluster can host
several (model, plan) *tenants* on shared simulated hosts --
:meth:`ClusterSimulation.colocated` -- with per-tenant execution plans and
shard sets; a merged :class:`~repro.workloads.workload.MixedStream`
replays through :meth:`ClusterSimulation.run_stream`, so cross-model
queueing contention (worker pools, egress NICs) is simulated rather than
post-processed.  Single-tenant construction keeps every historical RNG
substream key and is byte-identical to the pre-tenant implementation.

Fast path: every cost a request will be charged is a pure function of
(request, plan, cost model) -- none depends on simulation time -- so the
per-(batch, net) RPC fan-outs, payload sizes, serde times, and SLS times
are precomputed once per request instead of being rediscovered inside
the DES hot loop, by the one columnar plan builder
(:func:`repro.serving.columnar.build_chunk_plans`): from the chunk the
idle-arrival hook builds over an experiment's requests, or from a
one-request chunk for a request no chunk holds.  It reproduces the
original per-span float-operation order exactly, so the plans are
byte-identical to the per-batch path they replaced.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.core.rng import substream
from repro.core.types import (
    OpCategory,
    check_fields,
    checked,
    count,
    finite_non_negative,
    optional,
)
from repro.core.types import seed as any_seed
from repro.models.config import ModelConfig, TableConfig
from repro.requests.generator import Request, request_payload_bytes
from repro.sharding.plan import ShardingPlan, ShardSpec
from repro.simulation.costmodel import CostModel, ranking_response_bytes
from repro.simulation.engine import (
    DEFAULT_KERNEL,
    KERNELS,
    Engine,
    Event,
    make_engine,
)
from repro.simulation.network import Fabric, FabricSpec
from repro.simulation.platform import SC_LARGE, Platform
from repro.tracing.aggregate import AggregatingTracer, OutcomeLedger, TraceMode
from repro.tracing.span import MAIN_SHARD, Layer, Tracer

if TYPE_CHECKING:
    from repro.chaos.faults import FaultSchedule
    from repro.resilience.policy import ResiliencePolicy
    from repro.serving.columnar import _IdleArrivals

_SERDE = Layer.SERDE
_OPERATOR = Layer.OPERATOR
_NET_OVERHEAD = Layer.NET_OVERHEAD
_RPC_CLIENT = Layer.RPC_CLIENT
_EMBEDDED = Layer.EMBEDDED
_BATCH = Layer.BATCH
_SERVICE = Layer.SERVICE
_DENSE = OpCategory.DENSE
_SPARSE = OpCategory.SPARSE


@dataclass(frozen=True)
class ServingConfig:
    """Cluster-level configuration for one simulated experiment."""

    main_platform: Platform = SC_LARGE
    sparse_platform: Platform = SC_LARGE
    cost_model: CostModel = field(default_factory=CostModel)
    fabric_spec: FabricSpec = field(default_factory=FabricSpec)
    seed: int = checked(any_seed, 0)
    service_workers: int = checked(count, 32)
    """Worker threads of one serving instance (a service instance does not
    own the whole machine); batches queue for these workers, which is what
    couples request size to tail latency."""

    batch_size: int | None = checked(optional(count), None)
    """Overrides the model's default batch size; None keeps the default.
    ``with_batch_size(10**9)`` reproduces the paper's one-batch-per-request
    mode (Section VI-F)."""

    max_batches: int = checked(count, 8)
    """Production batching cap: huge requests grow their batch size rather
    than fan out unboundedly, so tail-sized requests are dense-dominated
    (the paper's explanation for P99 overheads being more favorable than
    P50, Section VI-B4)."""

    clock_skew_sigma: float = checked(finite_non_negative, 0.0)
    """Stddev (seconds) of per-server wall-clock skew; trace timestamps are
    stamped with it, and attribution must stay skew-invariant."""

    trace_mode: TraceMode = TraceMode.FULL
    """The tracer a bare :class:`ClusterSimulation` installs when none is
    passed: FULL records spans (trace rendering), AGGREGATE the span-free
    accumulator.  Experiment runs always pass the accumulator, so no
    ``RunResult`` depends on this."""

    chaos: "FaultSchedule | None" = None
    """Optional fault-injection schedule (see :mod:`repro.chaos.faults`).
    ``None`` (the default) runs the healthy path with zero overhead; an
    *empty* schedule exercises the chaos code path but injects nothing
    and replays byte-identical to ``None``."""

    resilience: "ResiliencePolicy | None" = None
    """Optional tail-resilience policy (see :mod:`repro.resilience`):
    per-attempt RPC timeouts, bounded retries with backoff, hedged
    requests, deadlines, and a token-bucket retry budget.  ``None``
    (the default) keeps the historical single-attempt RPC path; an
    *empty* policy installs no runtime and replays byte-identical to
    ``None``."""

    kernel: str = DEFAULT_KERNEL
    """Kernel selector (see :data:`repro.simulation.engine.KERNELS`).
    The default, ``"vectorized"``, chooses per run: every run -- serial
    closed-loop, open-loop, or a co-located mix -- replays on the
    batched DES with every idle arrival that finishes before the next
    taken by the columnar evaluator, its batches queueing FIFO for the
    workers (:mod:`repro.serving.columnar`; ``RunResult.des_requests``
    counts the rest: the busy periods, and the rare request whose
    acquires tie on a worker pool -- 0 for the serial runs the tests
    pin).  Runs with chaos or a live resilience policy
    take the ``"batched"`` DES, recording the reason on
    ``RunResult.kernel_fallback``.  ``"batched"`` (FIFO now-queue,
    synchronous resource grants) and ``"reference"`` (the historical
    heap-only event loop, kept as the test oracle) force one DES for
    every request; the CLI has no kernel switch.  Both DES kernels drive
    the same serving generators, and all three kernels are
    regression-pinned bit-identical (``tests/test_kernel_equivalence.py``,
    ``tests/test_idle_arrival_replay.py``)."""

    def __post_init__(self):
        check_fields(self)
        if self.kernel not in KERNELS:
            raise ValueError(
                f"kernel must be one of {KERNELS}, got {self.kernel!r}"
            )

    def with_batch_size(self, batch_size: int | None) -> "ServingConfig":
        return dataclasses.replace(self, batch_size=batch_size)

    def with_trace_mode(self, trace_mode: TraceMode) -> "ServingConfig":
        return dataclasses.replace(self, trace_mode=trace_mode)

    def with_chaos(self, chaos: "FaultSchedule | None") -> "ServingConfig":
        return dataclasses.replace(self, chaos=chaos)

    def with_kernel(self, kernel: str) -> "ServingConfig":
        return dataclasses.replace(self, kernel=kernel)

    def with_resilience(
        self, resilience: "ResiliencePolicy | None"
    ) -> "ServingConfig":
        return dataclasses.replace(self, resilience=resilience)


class SimServer:
    """One server: worker pool, egress link, skewed wall clock."""

    def __init__(
        self,
        name: str,
        platform: Platform,
        engine: Engine,
        workers: int,
        clock_skew: float = 0.0,
        io_threads: int = 4,
    ):
        count.check("workers", workers, f"server {name!r}: ")
        count.check("io_threads", io_threads, f"server {name!r}: ")
        self.name = name
        self.platform = platform
        self.engine = engine
        self.workers = engine.resource(min(workers, platform.cores))
        self.io_threads = engine.resource(io_threads)
        self.clock_skew = clock_skew
        #: When the last byte reserved on the egress NIC leaves.
        self.egress_free = 0.0

    def egress_delay(self, nbytes: float) -> float:
        """Reserve the egress NIC for a message; returns total delay until
        the last byte leaves (queueing behind in-flight messages + wire)."""
        wire = nbytes / self.platform.nic_bandwidth
        start = max(self.engine.now, self.egress_free)
        self.egress_free = start + wire
        return (start - self.engine.now) + wire


@dataclass(frozen=True, slots=True)
class _Batch:
    index: int
    start_item: int
    stop_item: int

    @property
    def items(self) -> int:
        return self.stop_item - self.start_item


class _ShardLookups:
    """One active (batch, net, shard) RPC with all its precomputed costs."""

    __slots__ = (
        "shard",
        "client_ser_total",
        "server_deser",
        "server_overhead",
        "sls_work",
        "server_resp_ser",
        "client_resp_deser",
        "req_bytes",
        "resp_bytes",
    )

    def __init__(
        self,
        shard: ShardSpec,
        client_ser_total: float,
        server_deser: float,
        server_overhead: float,
        sls_work: float,
        server_resp_ser: float,
        client_resp_deser: float,
        req_bytes: float,
        resp_bytes: float,
    ):
        self.shard = shard
        self.client_ser_total = client_ser_total
        self.server_deser = server_deser
        self.server_overhead = server_overhead
        self.sls_work = sls_work
        self.server_resp_ser = server_resp_ser
        self.client_resp_deser = client_resp_deser
        self.req_bytes = req_bytes
        self.resp_bytes = resp_bytes


class _NetBatchPlan:
    """Precomputed execution plan for one (request, net, batch)."""

    __slots__ = ("overhead", "dense_total", "targets", "local_work")

    def __init__(self, overhead: float, dense_total: float, targets, local_work: float):
        self.overhead = overhead
        self.dense_total = dense_total
        self.targets = targets
        self.local_work = local_work


class _Tenant:
    """One co-located model's execution context on the shared cluster.

    Holds everything that is a pure function of (model, plan, cost model):
    the per-net RPC routing and the hoisted per-table cost constants.  A
    single-model simulation is simply a cluster with one tenant; the
    shared-host contention of multi-model co-location falls out of the
    servers being owned by the cluster, not the tenant.
    """

    __slots__ = (
        "index",
        "model",
        "plan",
        "net_routing",
        "per_id_main",
        "per_id_sparse",
        "serde_tbl_client",
        "serde_tbl_server",
    )

    def __init__(self, index: int, model: ModelConfig, plan: ShardingPlan, config: ServingConfig):
        self.index = index
        self.model = model
        self.plan = plan

        # Precomputed RPC routing: for each net, the shards holding at
        # least one of its tables, with that net's (table, assignment)
        # pairs.  The plan builder reads this per chunk and must not
        # rediscover the placement every time.  A singular plan has no
        # shards, so each of its nets routes to none.
        self.net_routing: dict[str, list[tuple[ShardSpec, list]]] = {}
        for net_cfg in model.nets:
            routing = []
            for shard in plan.shards:
                pairs = [
                    (table, assignment)
                    for assignment in shard.assignments
                    if (table := model.table(assignment.table_name)).net
                    == net_cfg.name
                ]
                if pairs:
                    routing.append((shard, pairs))
            self.net_routing[net_cfg.name] = routing

        # Pure per-table / per-message cost constants, hoisted out of the
        # hot loop.  All reproduce the exact float expressions of
        # CostModel.serde_time / sls_time (same association order), so the
        # precomputed plans are bit-identical to computing costs in-line.
        cm = config.cost_model
        main_platform = config.main_platform
        sparse_platform = config.sparse_platform
        self.per_id_main = {
            table.name: cm.sls_per_id(table, main_platform) for table in model.tables
        }
        self.per_id_sparse = {
            table.name: cm.sls_per_id(table, sparse_platform) for table in model.tables
        }
        max_tables = max(
            (len(model.tables_for_net(net.name)) for net in model.nets), default=0
        )
        self.serde_tbl_client = [
            (cm.client_serde_per_table * n) / main_platform.relative_clock
            for n in range(max_tables + 1)
        ]
        self.serde_tbl_server = [
            (cm.serde_per_table * n) / sparse_platform.relative_clock
            for n in range(max_tables + 1)
        ]


class ClusterSimulation:
    """Simulates one deployment: (model+, plan+, serving-config).

    The classic constructor simulates one (model, plan) pair, exactly as
    the paper does.  :meth:`colocated` places several models on the same
    simulated hosts -- one shared main server, and sparse hosts shared by
    shard index across tenants -- so multi-model co-location contention
    (worker queueing, NIC serialization) is *simulated*, not
    post-processed.  Single-tenant behavior, including every RNG
    substream key, is byte-identical to the pre-tenant implementation.
    """

    def __init__(
        self,
        model: ModelConfig,
        plan: ShardingPlan,
        config: ServingConfig | None = None,
        tracer: Tracer | AggregatingTracer | None = None,
    ):
        self._setup([(model, plan)], config, tracer)

    @classmethod
    def colocated(
        cls,
        tenants: Iterable[tuple[ModelConfig, ShardingPlan]],
        config: ServingConfig | None = None,
        tracer: Tracer | AggregatingTracer | None = None,
    ) -> "ClusterSimulation":
        """Build a cluster serving several (model, plan) tenants at once.

        Tenant ``t``'s sparse shard ``i`` is served by shared host
        ``sparse-{i}``; the main (dense) tier is one shared server.  Use
        ``submit(request, tenant=t)`` / :meth:`run_stream` to drive it.
        """
        cluster = cls.__new__(cls)
        cluster._setup(list(tenants), config, tracer)
        return cluster

    def _setup(
        self,
        tenants: list[tuple[ModelConfig, ShardingPlan]],
        config: ServingConfig | None,
        tracer: Tracer | AggregatingTracer | None,
    ) -> None:
        if not tenants:
            raise ValueError("a cluster needs at least one (model, plan) tenant")
        for model, plan in tenants:
            plan.validate(model)
        #: Primary tenant, kept as attributes for the single-model API.
        self.model, self.plan = tenants[0]
        self.config = config or ServingConfig()
        if tracer is not None:
            self.tracer = tracer
        elif self.config.trace_mode is TraceMode.AGGREGATE:
            self.tracer = AggregatingTracer()
        else:
            self.tracer = Tracer()
        #: The single hot-path recording entry point; both tracers share
        #: the ``record_interval`` signature (engine times + server).
        self._record = self.tracer.record_interval
        self.engine = make_engine(self.config.kernel)
        self._rpc_ids = itertools.count()
        # Single-tenant keys are the historical (model, label) pair --
        # streams must stay byte-identical; co-located clusters key on the
        # full tenant list so distinct mixes never share streams.
        if len(tenants) == 1:
            cluster_key: tuple = (self.model.name, self.plan.label)
        else:
            cluster_key = ("colocated",) + tuple(
                f"{model.name}/{plan.label}" for model, plan in tenants
            )
        self._rng = substream(self.config.seed, "cluster", *cluster_key)
        skew_rng = substream(self.config.seed, "clock-skew", *cluster_key)

        def skew() -> float:
            if self.config.clock_skew_sigma == 0.0:
                return 0.0
            return float(skew_rng.normal(0.0, self.config.clock_skew_sigma))

        self.fabric = Fabric(self.config.fabric_spec, seed=self.config.seed)
        io_threads = self.config.cost_model.io_threads
        self.main = SimServer(
            "main", self.config.main_platform, self.engine,
            self.config.service_workers, skew(), io_threads,
        )
        num_hosts = max(plan.num_shards for _, plan in tenants)
        self.sparse_servers = [
            SimServer(
                f"sparse-{index}", self.config.sparse_platform, self.engine,
                self.config.service_workers, skew(), io_threads,
            )
            for index in range(num_hosts)
        ]
        self.completed: dict[int, float] = {}
        self.on_complete: Callable[[int], None] | None = None
        self.dropped_requests: list[int] = []
        #: Requests handed to the DES (:meth:`submit`) so far.
        self.des_requests = 0
        #: Optional columnar hook for :meth:`run_serial` and
        #: :meth:`run_stream` (see :meth:`_offer` and :meth:`_submit_at`),
        #: installed by
        #: :func:`repro.serving.columnar.idle_arrival_cluster`: called as
        #: ``(cluster, position, tenant, request, now, horizon)`` for a
        #: request that arrives at an idle cluster; returns the
        #: completion time when it replayed and committed the request
        #: (its row, ``completed`` entry and every cluster state the DES
        #: would have left), ``None`` when the DES must replay it.  Its
        #: ``plans(cluster, position, tenant, request)`` gives the DES a
        #: request's plans (``None``: a one-request chunk's).
        self.idle_arrival: _IdleArrivals | None = None
        policy = self.config.resilience
        live_policy = policy is not None and not policy.is_empty
        #: Per-request outcome ledger both fault runtimes write (the
        #: tracer folds it into the outcome columns); ``None`` on healthy
        #: runs, which install neither runtime.
        self.outcomes: OutcomeLedger | None = (
            OutcomeLedger()
            if self.config.chaos is not None or live_policy
            else None
        )
        #: In-flight RPC attempts aborted by mid-service crashes.
        self.aborted_rpcs = 0
        # Chaos layer: replica routing, fault injection, self-healing.
        # Lazily imported so serving never depends on chaos unless a
        # schedule is configured; every chaos RNG draw (replica clock
        # skews, spike jitter) comes from dedicated "chaos" substreams,
        # so the healthy streams above are never perturbed.
        self._chaos = None
        if self.config.chaos is not None:
            from repro.chaos.runtime import ChaosRuntime

            chaos_skew_rng = substream(
                self.config.seed, "chaos", "clock-skew", *cluster_key
            )

            def make_server(name: str) -> SimServer:
                extra_skew = 0.0
                if self.config.clock_skew_sigma != 0.0:
                    extra_skew = float(
                        chaos_skew_rng.normal(
                            0.0, self.config.clock_skew_sigma
                        )
                    )
                return SimServer(
                    name, self.config.sparse_platform, self.engine,
                    self.config.service_workers, extra_skew, io_threads,
                )

            self._chaos = ChaosRuntime(
                self.config.chaos,
                self.engine,
                self.sparse_servers,
                make_server,
                self.outcomes,
                spike_rng=substream(
                    self.config.seed, "chaos", "network", *cluster_key
                ),
                corr_rng=substream(
                    self.config.seed, "chaos", "correlated", *cluster_key
                ),
            )
            # Injection processes spawn before any replay driver process,
            # so same-timestamp fault transitions order before arrivals.
            self._chaos.start()
        # Tail-resilience layer: retries, hedging, deadlines, budget.
        # Empty policies install no runtime at all -- the replay stays on
        # the historical single-attempt RPC path, byte-identical to
        # ``resilience=None``; backoff jitter draws from the dedicated
        # "resilience" substream so healthy streams are never consumed.
        self._resilience = None
        if live_policy:
            from repro.resilience.runtime import ResilienceRuntime

            self._resilience = ResilienceRuntime(
                policy,
                self.engine,
                substream(self.config.seed, "resilience", *cluster_key),
                self.outcomes,
            )
        self.tenants = [
            _Tenant(index, model, plan, self.config)
            for index, (model, plan) in enumerate(tenants)
        ]
        # Per-message serde denominators depend only on the cost model and
        # platforms, which every tenant shares.
        cm = self.config.cost_model
        self._serde_denom_main = (
            cm.serde_bytes_per_sec * self.config.main_platform.relative_clock
        )
        self._serde_denom_sparse = (
            cm.serde_bytes_per_sec * self.config.sparse_platform.relative_clock
        )

    # -- batching ------------------------------------------------------------
    def _batches(self, tenant: _Tenant, request: Request) -> list[_Batch]:
        size = self.config.batch_size or tenant.model.profile.batch_size
        count = min(-(-request.num_items // size), self.config.max_batches)
        edges = [
            round(index * request.num_items / count) for index in range(count)
        ] + [request.num_items]
        return [
            _Batch(i, edges[i], edges[i + 1]) for i in range(count)
        ]

    # -- lookup routing --------------------------------------------------------
    def _partition_split(self, request: Request, table: TableConfig, count: int, parts: int) -> np.ndarray:
        """Split a row-partitioned table's ids across partitions (id % P).

        Keyed per (request, table, parts) -- stateless, so the plan
        builder may draw it for any (request, batch) in any order."""
        rng = substream(
            self.config.seed, "part-split", request.request_id, table.name, parts
        )
        return rng.multinomial(count, [1.0 / parts] * parts)

    # -- request lifecycle -------------------------------------------------------
    def submit(
        self,
        request: Request,
        tenant: int = 0,
        plans: dict[str, list[_NetBatchPlan]] | None = None,
    ) -> Event:
        """Inject one request now (for ``tenant``); returns its completion
        event.  Request ids must be unique across all tenants of a run.
        ``plans`` are the request's precomputed (net -> per-batch) plans;
        ``None`` builds them from a one-request columnar chunk."""
        self.des_requests += 1
        return self.engine.process(
            self._serve_request(self.tenants[tenant], request, plans)
        )

    def _serve_request(
        self,
        tenant: _Tenant,
        request: Request,
        plans: dict[str, list[_NetBatchPlan]] | None,
    ):
        engine, cm, main = self.engine, self.config.cost_model, self.main
        record = self._record
        rid = request.request_id
        t_start = engine.now
        res = self._resilience
        if res is not None:
            res.start_request(rid)

        yield main.workers.acquire()
        t0 = engine.now
        deser = cm.serde_time(
            request_payload_bytes(tenant.model, request),
            main.platform,
            tables=len(request.draws),
        )
        yield deser
        record(rid, MAIN_SHARD, main, _SERDE, "request_deser", t0, engine.now, deser)
        t0 = engine.now
        yield cm.request_handler_fixed
        handler_cpu = cm.request_handler_fixed
        main.workers.release()

        batches = self._batches(tenant, request)
        if plans is None:
            # No chunk holds this request (a bare cluster, or a stream
            # entry the idle-arrival hook did not plan).
            from repro.serving.columnar import build_chunk_plans, row_plans

            plans = row_plans(
                build_chunk_plans(self, tenant, [request]), 0, tenant.net_routing
            )
        batch_events = [
            engine.process(self._run_batch(tenant, request, batch, plans))
            for batch in batches
        ]
        yield engine.all_of(batch_events)

        yield main.workers.acquire()
        t0 = engine.now
        ser = cm.serde_time(ranking_response_bytes(request.num_items), main.platform)
        yield ser
        record(rid, MAIN_SHARD, main, _SERDE, "response_ser", t0, engine.now, ser)
        yield cm.response_handler_fixed
        handler_cpu += cm.response_handler_fixed
        main.workers.release()

        record(
            rid, MAIN_SHARD, main, _SERVICE, "request_e2e",
            t_start, engine.now, handler_cpu,
        )
        if res is not None:
            # Stamp the deadline flag before on_complete folds this
            # request's outcome row into result columns.
            res.finish_request(rid, engine.now - t_start)
        self.completed[rid] = engine.now - t_start
        if self.on_complete is not None:
            self.on_complete(rid)

    def _run_batch(
        self,
        tenant: _Tenant,
        request: Request,
        batch: _Batch,
        plans: dict[str, list[_NetBatchPlan]],
    ):
        engine, cm, main = self.engine, self.config.cost_model, self.main
        record = self._record
        rid = request.request_id
        bindex = batch.index
        singular = tenant.plan.is_singular
        pre_fraction = cm.dense_pre_fraction
        t_batch = engine.now
        yield main.workers.acquire()
        for net_cfg in tenant.model.nets:
            net_name = net_cfg.name
            plan = plans[net_name][bindex]

            t0 = engine.now
            overhead = plan.overhead
            yield overhead
            record(
                rid, MAIN_SHARD, main, _NET_OVERHEAD, "net_sched",
                t0, engine.now, overhead, None, net_name, bindex,
            )

            t0 = engine.now
            pre = plan.dense_total * pre_fraction
            yield pre
            record(
                rid, MAIN_SHARD, main, _OPERATOR, "dense_pre",
                t0, engine.now, pre, _DENSE, net_name, bindex,
            )

            if singular:
                yield from self._local_sparse(request, bindex, net_name, plan.local_work)
            else:
                yield from self._remote_sparse(
                    request, bindex, net_name, plan.targets
                )

            t0 = engine.now
            post = plan.dense_total - pre
            yield post
            record(
                rid, MAIN_SHARD, main, _OPERATOR, "dense_post",
                t0, engine.now, post, _DENSE, net_name, bindex,
            )
        main.workers.release()
        record(
            rid, MAIN_SHARD, main, _BATCH, f"batch_{bindex}",
            t_batch, engine.now, 0.0, None, None, bindex,
        )

    def _local_sparse(self, request: Request, bindex: int, net_name: str, work: float):
        """Singular configuration: SLS ops execute inline on the main shard."""
        engine, main = self.engine, self.main
        record = self._record
        rid = request.request_id
        t0 = engine.now
        yield work
        record(
            rid, MAIN_SHARD, main, _OPERATOR, "sls_local",
            t0, engine.now, work, _SPARSE, net_name, bindex,
        )
        record(
            rid, MAIN_SHARD, main, _EMBEDDED, "embedded",
            t0, engine.now, 0.0, None, net_name, bindex,
        )

    def _remote_sparse(
        self,
        request: Request,
        bindex: int,
        net_name: str,
        targets: list[_ShardLookups],
    ):
        """Distributed: serialize + issue async RPCs, wait, deserialize."""
        engine, main = self.engine, self.main
        record = self._record
        rid = request.request_id
        # The RPC driver: the policy supervisor when a runtime is
        # installed, else the inline failover loop; both drive the one
        # attempt body, :meth:`_rpc_attempt`.  Chosen per call, not
        # bound on the cluster, so a finished cluster holds no reference
        # cycle and is freed as soon as its last user lets go.
        spawn = self._rpc if self._resilience is None else self._rpc_resilient
        t_embedded = engine.now
        responses = []
        for target in targets:
            t0 = engine.now
            ser_total = target.client_ser_total
            yield ser_total
            record(
                rid, MAIN_SHARD, main, _SERDE, "rpc_request_ser",
                t0, engine.now, ser_total, None, net_name, bindex,
            )
            responses.append(
                engine.process(spawn(request, bindex, net_name, target))
            )
        if not responses:
            # Every candidate shard was inactive for this batch; the RPC ops
            # short-circuit and downstream layers read zero-filled blobs.
            return
        main.workers.release()
        yield engine.all_of(responses)
        yield main.workers.acquire()
        record(
            rid, MAIN_SHARD, main, _EMBEDDED, "embedded",
            t_embedded, engine.now, 0.0, None, net_name, bindex,
        )

    def _route(self, shard_index: int) -> SimServer | None:
        """The host an attempt on ``shard_index`` goes to: the shard's
        only server, or with chaos the next live replica (``None`` when
        every replica is down)."""
        if self._chaos is None:
            return self.sparse_servers[shard_index]
        return self._chaos.route(shard_index)

    def _rpc(
        self,
        request: Request,
        bindex: int,
        net_name: str,
        target: _ShardLookups,
    ):
        """One remote call without a resilience policy: inline failover.

        Drives :meth:`_rpc_attempt` with ``yield from`` (no extra process,
        no extra event).  With a chaos runtime, the target host is chosen
        by replica-aware round-robin routing; an attempt that finds its
        host dead -- on arrival or mid-service -- costs the failover
        timeout, and the call retries the next live replica, or -- with
        no replica left -- degrades to a dense-only partial result (the
        request completes without this shard's embeddings, exactly like
        an inactive shard: downstream layers read zero-filled blobs).
        Without chaos the first attempt always delivers.
        """
        chaos = self._chaos
        shard_index = target.shard.index
        t_client = self.engine.now
        while True:
            server = self._route(shard_index)
            if server is None:
                # No live replica at all: pay the connection timeout,
                # then serve this net dense-only (degraded).
                chaos.mark_degraded(request.request_id)
                yield chaos.failover_timeout
                return
            delivered = yield from self._rpc_attempt(
                request, bindex, net_name, target, server, t_client
            )
            if delivered:
                return
            yield chaos.failover_timeout

    def _rpc_resilient(
        self,
        request: Request,
        bindex: int,
        net_name: str,
        target: _ShardLookups,
    ):
        """Policy-supervised remote call: retries, hedging, deadline.

        The RPC driver when a non-empty
        :class:`~repro.resilience.policy.ResiliencePolicy` is active.
        Each attempt runs :meth:`_rpc_attempt` as its own process.  The
        first attempt is issued immediately; this orchestrator then
        supervises the outstanding attempts:

        * a **hedge** issues one speculative duplicate ``hedge_delay``
          seconds after the first send;
        * a **timeout retry** issues a replacement when the latest
          attempt has been outstanding ``rpc_timeout`` seconds (after
          exponential backoff with deterministic jitter);
        * attempts that die (dead-on-arrival or aborted mid-service by
          a crash) are retried as soon as they are observed dead;
        * every extra attempt respects ``max_attempts``, the request
          **deadline**, and the token-bucket **retry budget** -- denials
          are counted, never queued;
        * the **first response wins**; late responses are discarded
          before client-side deserialization, and a request whose every
          permitted attempt died degrades to a dense-only partial
          result exactly like the no-policy failover path.
        """
        engine = self.engine
        res = self._resilience
        policy = res.policy
        chaos = self._chaos
        rid = request.request_id
        shard_index = target.shard.index
        t_client = engine.now
        state: dict = {"winner": None, "delivered": False}
        pending: list[Event] = []
        attempts_made = 0

        def launch() -> bool:
            nonlocal attempts_made
            attempts_made += 1
            server = self._route(shard_index)
            if server is None:
                return False
            res.count_attempt(rid)
            pending.append(
                engine.process(
                    self._rpc_attempt(
                        request, bindex, net_name, target, server,
                        t_client, state,
                    )
                )
            )
            return True

        if not launch():
            # No live replica at all: the historical degraded path.
            chaos.mark_degraded(rid)
            yield chaos.failover_timeout
            return
        last_issue = engine.now
        hedged = False
        timeouts_denied = False
        deadline_at = res.deadline_at(rid)

        while True:
            if state["delivered"]:
                return
            pending = [event for event in pending if not event.triggered]
            now = engine.now
            may_attempt = attempts_made < policy.max_attempts and (
                deadline_at is None or now <= deadline_at
            )

            if state["winner"] is None and not pending:
                # Every attempt so far died (DOA or aborted mid-service
                # by a crash): retry if the policy and budget allow,
                # else degrade to a dense-only partial result.
                if may_attempt and res.try_spend():
                    delay = res.backoff_delay(attempts_made)
                    if delay > 0.0:
                        yield delay
                        if state["winner"] is not None:
                            continue
                    if launch():
                        last_issue = engine.now
                        continue
                if chaos is not None:
                    chaos.mark_degraded(rid)
                    yield chaos.failover_timeout
                return

            if state["winner"] is not None:
                # A response won and is being delivered; just wait.
                yield engine.any_of(pending)
                continue

            # Arm whichever supervision timer fires first.
            timer_at = None
            timer_kind = None
            if policy.hedge_delay is not None and not hedged and may_attempt:
                timer_at = t_client + policy.hedge_delay
                timer_kind = "hedge"
            if (
                policy.rpc_timeout is not None
                and not timeouts_denied
                and may_attempt
            ):
                timeout_at = last_issue + policy.rpc_timeout
                if timer_at is None or timeout_at < timer_at:
                    timer_at = timeout_at
                    timer_kind = "timeout"
            if timer_at is None:
                yield engine.any_of(pending)
                continue
            if timer_at > now:
                index, _ = yield engine.any_of(
                    pending + [engine.timeout(timer_at - now)]
                )
                if index < len(pending):
                    continue  # an attempt finished first; reassess
            if deadline_at is not None and engine.now > deadline_at:
                continue  # the request ran past its deadline meanwhile
            if timer_kind == "hedge":
                # Hedge once per request, spent or denied; the flag set
                # unconditionally keeps a denied hedge from re-arming.
                hedged = True
                if res.try_spend():
                    res.count_hedge(rid)
                    if launch():
                        last_issue = engine.now
            elif res.try_spend():
                delay = res.backoff_delay(attempts_made)
                if delay > 0.0:
                    yield delay
                    if state["winner"] is not None:
                        continue
                if launch():
                    last_issue = engine.now
            else:
                # Budget exhausted: stop arming timeout timers entirely
                # (the anti-retry-storm valve); in-flight attempts keep
                # running and may still win.
                timeouts_denied = True

    def _rpc_attempt(
        self,
        request: Request,
        bindex: int,
        net_name: str,
        target: _ShardLookups,
        server: SimServer,
        t_client: float,
        state: dict | None = None,
    ):
        """One RPC attempt on ``server``: network out, shard service,
        network back, client-side deserialization.

        The single attempt body of both RPC drivers.  Returns whether it
        delivered: a dead host (on arrival or mid-service) simply ends
        the attempt and returns ``False``, and the driver -- the inline
        failover loop of :meth:`_rpc`, or the :meth:`_rpc_resilient`
        supervisor, which passes its shared ``state`` -- decides whether
        a replacement is issued.  A host that crashes *mid-service*
        aborts the attempt at the next segment boundary: the worker is
        released and the attempt's already-recorded spans stay orphaned
        (no ``rpc_outstanding`` span ever binds them).  Each attempt
        carries its own ``rpc_id`` so aborted spans can never be
        confused with the winning attempt's.  Under a supervisor the
        first attempt to finish its network trip back wins the request;
        late responses are discarded before client-side deserialization.
        """
        engine, cm = self.engine, self.config.cost_model
        main = self.main
        rid = request.request_id
        record: Callable[..., None] = self._record
        if state is not None:
            ungated, completed = record, self.completed

            def gated(*args: Any) -> None:
                # A straggling supervised attempt can outlive its request
                # (late response, or a mid-crash abort observed after the
                # winner delivered): spans recorded past finalize_request
                # would re-open the request's accumulator and stale-drain
                # it as incomplete, so post-completion spans are dropped.
                if rid not in completed:
                    ungated(*args)

            record = gated

        shard_index = target.shard.index
        chaos = self._chaos
        rpc_id = next(self._rpc_ids)

        out_delay = main.egress_delay(target.req_bytes) + self.fabric.one_way_delay(
            main.platform, server.platform, 0.0
        )
        if chaos is not None:
            out_delay = chaos.network_delay(out_delay)
        yield out_delay
        if chaos is not None and not chaos.is_live(server):
            # Dead on arrival: the attempt is spent, nothing recorded.
            chaos.count_retry(rid)
            return False

        t_service = engine.now
        yield server.workers.acquire()
        t0 = engine.now
        deser = target.server_deser
        service_fixed = cm.rpc_service_fixed
        if chaos is not None:
            deser = chaos.scale_service(shard_index, deser, server)
        yield deser
        record(
            rid, shard_index, server, _SERDE, "rpc_deser",
            t0, engine.now, deser, None, net_name, bindex, rpc_id,
        )
        if chaos is not None and self._abort_if_dead(server, rid):
            return False
        if chaos is not None:
            service_fixed = chaos.scale_service(
                shard_index, service_fixed, server
            )
        yield service_fixed

        t0 = engine.now
        overhead = target.server_overhead
        if chaos is not None:
            overhead = chaos.scale_service(shard_index, overhead, server)
        yield overhead
        record(
            rid, shard_index, server, _NET_OVERHEAD, "net_sched",
            t0, engine.now, overhead, None, net_name, bindex, rpc_id,
        )
        if chaos is not None and self._abort_if_dead(server, rid):
            return False

        t0 = engine.now
        work = target.sls_work
        if chaos is not None:
            work = chaos.scale_service(shard_index, work, server)
        yield work
        record(
            rid, shard_index, server, _OPERATOR, "sls_remote",
            t0, engine.now, work, _SPARSE, net_name, bindex, rpc_id,
        )
        if chaos is not None and self._abort_if_dead(server, rid):
            return False

        t0 = engine.now
        ser = target.server_resp_ser
        if chaos is not None:
            ser = chaos.scale_service(shard_index, ser, server)
        yield ser
        record(
            rid, shard_index, server, _SERDE, "rpc_resp_ser",
            t0, engine.now, ser, None, net_name, bindex, rpc_id,
        )
        # Response on the wire: the shard-side work is committed even if
        # the host dies right after.
        server.workers.release()
        record(
            rid, shard_index, server, _SERVICE, "rpc_e2e",
            t_service, engine.now, service_fixed, None, net_name, bindex, rpc_id,
        )

        back_delay = server.egress_delay(target.resp_bytes) + self.fabric.one_way_delay(
            server.platform, main.platform, 0.0
        )
        if chaos is not None:
            back_delay = chaos.network_delay(back_delay)
        yield back_delay
        if state is not None:
            if state["winner"] is not None:
                # A sibling attempt already won; discard this response.
                return False
            state["winner"] = rpc_id
        record(
            rid, MAIN_SHARD, main, _RPC_CLIENT, "rpc_outstanding",
            t_client, engine.now, 0.0, None, net_name, bindex, rpc_id,
        )
        # Response tensors deserialize on the client's IO threads, off the
        # request workers, overlapping the waits for slower RPCs.
        yield main.io_threads.acquire()
        t0 = engine.now
        deser = target.client_resp_deser
        yield deser
        record(
            rid, MAIN_SHARD, main, _SERDE, "rpc_response_deser",
            t0, engine.now, deser, None, net_name, bindex, rpc_id,
        )
        main.io_threads.release()
        if state is not None:
            state["delivered"] = True
        return True

    def _abort_if_dead(self, server: SimServer, rid: int) -> bool:
        """Mid-service crash check at a segment boundary: a dead host
        releases the attempt's worker and counts the abort.  The abort
        is also a failover (the client retries a live replica), so it
        counts into the request's ``retries`` too."""
        if self._chaos.is_live(server):
            return False
        server.workers.release()
        self.aborted_rpcs += 1
        self._chaos.count_retry(rid)
        return True

    # -- fault accessors --------------------------------------------------------
    @property
    def chaos_timeline(self) -> tuple:
        """Fault/heal transitions in simulation-time order (empty without
        a chaos runtime)."""
        return () if self._chaos is None else tuple(self._chaos.timeline)

    @property
    def resilience_stats(self) -> dict[str, int]:
        """Replay-level resilience counters, summed from the outcome
        ledger (empty dict without an active runtime)."""
        res = self._resilience
        if res is None:
            return {}
        totals = res.outcomes.totals()
        return {
            "attempts": totals["attempts"],
            "hedges": totals["hedged"],
            "budget_denied": res.budget_denied,
            "deadline_exceeded": totals["deadline_exceeded"],
            "aborted_attempts": self.aborted_rpcs,
        }

    # -- replay drivers ---------------------------------------------------------
    def drain_incomplete(self) -> list[int]:
        """Free trace state of in-flight requests; returns (and records in
        ``dropped_requests``) their ids.

        The abort-safety valve: any exception that unwinds a replay mid-
        flight leaves the tracer holding the interrupted requests' state,
        which would otherwise leak for the rest of a sweep.  The replay
        drivers call this from a ``finally`` via :meth:`_finish_replay`;
        callers driving :meth:`submit` by hand can call it directly.
        """
        stale = self.tracer.drain_incomplete()
        self.dropped_requests.extend(stale)
        return stale

    def _finish_replay(self) -> None:
        """Free trace state of requests that never completed.

        Only applies when completions are consumed incrementally (an
        ``on_complete`` hook pops finished requests): whatever the tracer
        still holds belongs to requests that never finished -- on a clean
        end *and* on an abort, where the replay unwound mid-flight.
        Without a hook the caller owns the trace (e.g. the ``trace``
        CLI), so nothing is dropped.
        """
        if self.on_complete is not None:
            self.drain_incomplete()

    def _offer(
        self, position: int, tenant: int, request: Request, horizon: float
    ) -> float | None:
        """Offer the request at ``position`` to :attr:`idle_arrival`.

        Only a request that arrives while the engine holds no event and
        every earlier request has completed is offered, with the next
        arrival's clock as its ``horizon``.  Returns the completion time
        of a request the hook committed, ``None`` when the DES must
        replay it."""
        idle_arrival = self.idle_arrival
        if (
            idle_arrival is None
            or not self.engine.idle()
            or len(self.completed) != position
        ):
            return None
        return idle_arrival(
            self, position, tenant, request, self.engine.now, horizon
        )

    def _submit_at(self, position: int, tenant: int, request: Request) -> Event:
        """:meth:`submit` the request at stream ``position``, with the
        plans :attr:`idle_arrival` holds for it, if any."""
        idle_arrival = self.idle_arrival
        plans = (
            None if idle_arrival is None
            else idle_arrival.plans(self, position, tenant, request)
        )
        return self.submit(request, tenant, plans)

    def run_serial(self, requests: Iterable[Request]) -> None:
        """Serial blocking replay: next request sent after the previous
        response returns (paper Section VI).

        Every request is offered to the :attr:`idle_arrival` hook first
        (:meth:`_offer`); the next arrival is the request's own
        completion, so the horizon is ``+inf``."""
        engine = self.engine

        def driver():
            for position, request in enumerate(requests):
                t_end = self._offer(position, 0, request, math.inf)
                if t_end is None:
                    yield self._submit_at(position, 0, request)
                else:
                    # The engine holds no event, so moving the clock to
                    # the committed completion reorders nothing: it is
                    # the float the DES driver would resume at.
                    engine.now = t_end

        engine.process(driver())
        try:
            engine.run()
        finally:
            self._finish_replay()

    def run_stream(self, stream: Iterable[tuple[float, int, Request]]) -> None:
        """Open-loop replay (paper Section VII-A): inject
        ``(arrival_time, tenant, request)`` triples in nondecreasing time
        order.  A :class:`~repro.workloads.workload.MixedStream` iterates
        exactly this shape, so co-located tenants contend for the same
        simulated hosts; a single-model schedule passes tenant 0.

        Every request is offered to the :attr:`idle_arrival` hook first
        (:meth:`_offer`); the DES replays it only when the hook declines.
        A committed request finished strictly before the next arrival,
        so no event of the DES could have interleaved with it."""
        engine = self.engine
        last_end = 0.0

        def driver():
            nonlocal last_end
            previous = 0.0
            items = iter(stream)
            item = next(items, None)
            position = 0
            while item is not None:
                at, tenant, request = item
                delay = float(at) - previous
                if delay < 0.0:
                    raise ValueError(
                        f"stream arrivals must be nondecreasing; "
                        f"{at} follows {previous}"
                    )
                yield delay
                previous = float(at)
                item = next(items, None)
                # The next arrival's clock, computed exactly as the
                # engine will compute it from this driver's delay.
                horizon = (
                    math.inf if item is None
                    else engine.now + (float(item[0]) - previous)
                )
                t_end = self._offer(position, int(tenant), request, horizon)
                if t_end is None:
                    self._submit_at(position, int(tenant), request)
                else:
                    last_end = t_end
                position += 1

        engine.process(driver())
        try:
            engine.run()
            # A request committed last completes after the driver's last
            # event; the DES clock would stop at that completion.
            if last_end > engine.now:
                engine.now = last_end
        finally:
            self._finish_replay()
