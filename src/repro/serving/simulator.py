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
DES computes none: it reads them, in seconds, from the request's row of
the :class:`~repro.simulation.vectorized.ChunkPlans` the columnar
evaluator reads, listed to Python floats once when the request starts
(``ChunkPlans.listed``, the evaluator's listing too):
the serde, overhead, SLS and dense-half times, and each RPC message's
wire time, which the sender's egress NIC reserves.  Each replay driver
plans the entries it replays, a chunk of positions at a time, when it
reaches them (:meth:`ClusterSimulation._locate`); the one plan builder
(:func:`repro.serving.columnar.build_chunk_plans`) evaluates the cost
model's formulas with the scalar float-operation order exactly.
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
    integer,
    optional,
)
from repro.core.types import seed as any_seed
from repro.models.config import ModelConfig, TableConfig
from repro.requests.generator import Request
from repro.sharding.plan import ShardingPlan, ShardSpec
from repro.simulation.costmodel import CostModel
from repro.simulation.engine import DEFAULT_KERNEL, KERNELS, Engine, Event
from repro.simulation.network import Fabric, FabricSpec
from repro.simulation.platform import SC_LARGE, Platform
from repro.tracing.aggregate import AggregatingTracer, OutcomeLedger, TraceMode
from repro.tracing.span import MAIN_SHARD, Layer, Tracer

if TYPE_CHECKING:
    from repro.chaos.faults import FaultSchedule
    from repro.resilience.policy import ResiliencePolicy
    from repro.simulation.vectorized import ChunkPlans, SweepEvaluator

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
    counts the rest, the busy periods -- 0 for every serial run).  Runs with chaos or a live resilience policy
    take the ``"batched"`` DES, recording the reason on
    ``RunResult.kernel_fallback``.  ``"batched"`` forces the DES
    (:class:`~repro.simulation.engine.Engine`) for every request; the
    CLI has no kernel switch.  The two kernels are regression-pinned
    bit-identical (``tests/test_kernel_equivalence.py``,
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

    def egress_delay(self, wire: float) -> float:
        """Reserve the egress NIC for a message of ``wire`` seconds on the
        link; returns total delay until the last byte leaves (queueing
        behind in-flight messages + wire)."""
        start = max(self.engine.now, self.egress_free)
        self.egress_free = start + wire
        return (start - self.engine.now) + wire


class _Tenant:
    """One co-located model's execution context on the shared cluster.

    Holds everything that is a pure function of (model, plan, cost model):
    the per-net RPC routing and the per-table SLS per-id costs.  A
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

        # The per-id SLS cost of every table on either tier, which the
        # plan builder gathers over its count planes.
        cm = config.cost_model
        self.per_id_main = {
            table.name: cm.sls_per_id(table, config.main_platform)
            for table in model.tables
        }
        self.per_id_sparse = {
            table.name: cm.sls_per_id(table, config.sparse_platform)
            for table in model.tables
        }


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
        ``sparse-{i}``; the main (dense) tier is one shared server.
        Drive it with :meth:`run_stream`.
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
        self.engine = Engine()
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
        #: Ids of every request the cluster has taken (:meth:`_take`).
        self._taken: set[int] = set()
        #: Requests handed to the DES (:meth:`_start`) so far.
        self.des_requests = 0
        #: Optional columnar evaluator of the ``vectorized`` kernel,
        #: offered every request that arrives at an idle cluster
        #: (:meth:`_arrive`); ``None`` replays every request on the DES.
        #: It commits a request -- its row, ``completed`` entry and every
        #: cluster state the DES would have left -- only when it completes
        #: strictly before the next arrival.
        self.evaluator: SweepEvaluator | None = None
        #: The replay's current chunk (:meth:`_locate`): its first stream
        #: position and, per position, the request's ``(plans, row)``.
        self._chunk: tuple[int, list[Any]] = (0, [])
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
        self._tenant_index = integer(
            f"an integer in [0, {len(tenants)})",
            lambda value: 0 <= value < len(tenants),
        )

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
    def _take(self, request: Request) -> None:
        """Admit a request where the cluster first takes it: its id must
        be new to the cluster."""
        rid = request.request_id
        if rid in self._taken:
            raise ValueError(
                f"request id {rid} was already submitted to this cluster; "
                f"ids must be unique across all tenants of a run"
            )
        self._taken.add(rid)

    def _locate(
        self, entries: list[tuple[Any, Any, Request]], position: int
    ) -> tuple[ChunkPlans, int]:
        """The chunk plans and row of the request at ``entries[position]``.

        A replay plans its ``(arrival, tenant, request)`` entries when it
        reaches them, :data:`repro.serving.columnar.CHUNK_SIZE` positions
        at a time, with one :func:`~repro.serving.columnar.build_chunk_plans`
        call per tenant of the chunk; the previous chunk's rows are
        released first, so one chunk's cost columns are alive at a time.
        A tenant that indexes none of the cluster's tenants raises
        ``ValueError`` here, before any request of its chunk replays."""
        start, rows = self._chunk
        if position - start < len(rows):
            return rows[position - start]
        from repro.serving import columnar

        chunk = entries[position:position + columnar.CHUNK_SIZE]
        offsets_of: dict[int, list[int]] = {}
        for offset, (_at, tenant, _request) in enumerate(chunk):
            tenant = self._tenant_index.check("tenant", tenant)
            offsets_of.setdefault(tenant, []).append(offset)
        rows = [None] * len(chunk)
        # Release the previous chunk's plans before building this one.
        self._chunk = (position, rows)
        for tenant, offsets in sorted(offsets_of.items()):
            plans = columnar.build_chunk_plans(
                self, self.tenants[tenant], [chunk[offset][2] for offset in offsets]
            )
            for row, offset in enumerate(offsets):
                rows[offset] = (plans, row)
        return rows[0]

    def _start(self, request: Request, plans: ChunkPlans, row: int) -> Event:
        """Hand an admitted request to the DES, planned by chunk row
        ``row`` of ``plans``."""
        self.des_requests += 1
        return self.engine.process(self._serve_request(request, plans, row))

    def _serve_request(self, request: Request, chunk: ChunkPlans, row: int):
        engine, cm, main = self.engine, self.config.cost_model, self.main
        record = self._record
        rid = request.request_id
        t_start = engine.now
        res = self._resilience
        if res is not None:
            res.start_request(rid)
        # The request's row, listed once as the evaluator lists it
        # (ChunkPlans.listed).  No reference to the chunk outlives the
        # listing, so the chunk is freed when the replay moves past it.
        head, tail, nb = chunk.head_deser[row], chunk.tail_ser[row], chunk.nb[row]
        nets = chunk.listed(row)
        del chunk

        yield main.workers.acquire()
        t0 = engine.now
        yield head
        record(rid, MAIN_SHARD, main, _SERDE, "request_deser", t0, engine.now, head)
        yield cm.request_handler_fixed
        handler_cpu = cm.request_handler_fixed
        main.workers.release()

        batch_events = [
            engine.process(self._run_batch(request, bindex, nets))
            for bindex in range(nb)
        ]
        yield engine.all_of(batch_events)

        yield main.workers.acquire()
        t0 = engine.now
        yield tail
        record(rid, MAIN_SHARD, main, _SERDE, "response_ser", t0, engine.now, tail)
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

    def _run_batch(self, request: Request, bindex: int, nets: list):
        engine, main = self.engine, self.main
        record = self._record
        rid = request.request_id
        t_batch = engine.now
        yield main.workers.acquire()
        for net_name, overheads, pres, posts, local, slots in nets:
            t0 = engine.now
            overhead = overheads[bindex]
            yield overhead
            record(
                rid, MAIN_SHARD, main, _NET_OVERHEAD, "net_sched",
                t0, engine.now, overhead, None, net_name, bindex,
            )

            t0 = engine.now
            pre = pres[bindex]
            yield pre
            record(
                rid, MAIN_SHARD, main, _OPERATOR, "dense_pre",
                t0, engine.now, pre, _DENSE, net_name, bindex,
            )

            yield from self._sparse(request, bindex, net_name, local, slots)

            t0 = engine.now
            post = posts[bindex]
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

    def _sparse(
        self,
        request: Request,
        bindex: int,
        net_name: str,
        local: list[float] | None,
        slots: list[tuple[int, list]],
    ):
        """The sparse portion of one (batch, net).  A singular net has
        no routing slot: its SLS ops run inline on the main shard
        (``local``).  A distributed net serializes and issues async RPCs
        to its active routing slots, waits, and deserializes.  Both end
        in the same ``embedded`` span; the two bodies stay forked here
        because their span shapes differ."""
        engine, main = self.engine, self.main
        record = self._record
        rid = request.request_id
        t_embedded = engine.now
        if local is not None:
            work = local[bindex]
            yield work
            record(
                rid, MAIN_SHARD, main, _OPERATOR, "sls_local",
                t_embedded, engine.now, work, _SPARSE, net_name, bindex,
            )
            record(
                rid, MAIN_SHARD, main, _EMBEDDED, "embedded",
                t_embedded, engine.now, 0.0, None, net_name, bindex,
            )
            return
        # The RPC driver: the policy supervisor when a runtime is
        # installed, else the inline failover loop; both drive the one
        # attempt body, :meth:`_rpc_attempt`.  Chosen per call, not
        # bound on the cluster, so a finished cluster holds no reference
        # cycle and is freed as soon as its last user lets go.
        spawn = self._rpc if self._resilience is None else self._rpc_resilient
        responses = []
        for shard_index, per_batch in slots:
            costs = per_batch[bindex]
            if not costs[0]:
                continue
            t0 = engine.now
            ser_total = costs[1]
            yield ser_total
            record(
                rid, MAIN_SHARD, main, _SERDE, "rpc_request_ser",
                t0, engine.now, ser_total, None, net_name, bindex,
            )
            responses.append(
                engine.process(
                    spawn(request, bindex, net_name, shard_index, costs)
                )
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
        shard_index: int,
        costs: list[float],
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
                request, bindex, net_name, shard_index, costs, server, t_client
            )
            if delivered:
                return
            yield chaos.failover_timeout

    def _rpc_resilient(
        self,
        request: Request,
        bindex: int,
        net_name: str,
        shard_index: int,
        costs: list[float],
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
                        request, bindex, net_name, shard_index, costs,
                        server, t_client, state,
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
        shard_index: int,
        costs: list[float],
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
        ``costs`` is the routing slot's per-batch cost tuple (see
        :class:`~repro.simulation.vectorized.TargetColumns`).
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

        _active, _cst, deser, overhead, work, ser, resp_deser, req_wire, resp_wire = (
            costs
        )
        chaos = self._chaos
        rpc_id = next(self._rpc_ids)

        out_delay = main.egress_delay(req_wire) + self.fabric.one_way_delay()
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

        back_delay = server.egress_delay(resp_wire) + self.fabric.one_way_delay()
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
        yield resp_deser
        record(
            rid, MAIN_SHARD, main, _SERDE, "rpc_response_deser",
            t0, engine.now, resp_deser, None, net_name, bindex, rpc_id,
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
        drivers call this from a ``finally`` via :meth:`_finish_replay`.
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

    def _arrive(
        self, entries: list[tuple[Any, Any, Request]], position: int,
        horizon: float,
    ) -> float | Event:
        """Take the request at stream ``position`` and locate its chunk
        row (:meth:`_locate`).

        A request that arrives while the engine holds no event and every
        earlier request has completed is offered to the
        :attr:`evaluator`, with the next arrival's clock as its
        ``horizon``.  Returns the completion time of a request the
        evaluator committed, else the completion event of the DES
        replaying it from the same row."""
        request = entries[position][2]
        self._take(request)
        plans, row = self._locate(entries, position)
        evaluator = self.evaluator
        if (
            evaluator is not None
            and self.engine.idle()
            and len(self.completed) == len(self._taken) - 1
        ):
            t_end = evaluator.replay_chunk(plans, self.engine.now, row, horizon)
            if t_end < horizon:
                return t_end
        return self._start(request, plans, row)

    def run_serial(self, requests: Iterable[Request]) -> None:
        """Serial blocking replay: next request sent after the previous
        response returns (paper Section VI).

        Every request is offered to the :attr:`evaluator` first
        (:meth:`_arrive`); the next arrival is the request's own
        completion, so the horizon is ``+inf``.  A repeated request id
        raises ``ValueError``."""
        engine = self.engine
        entries = [(None, 0, request) for request in requests]
        self._chunk = (0, [])  # the chunk state belongs to this replay

        def driver():
            for position in range(len(entries)):
                arrived = self._arrive(entries, position, math.inf)
                if isinstance(arrived, Event):
                    yield arrived
                else:
                    # The engine holds no event, so moving the clock to
                    # the committed completion reorders nothing: it is
                    # the float the DES driver would resume at.
                    engine.now = arrived

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
        simulated hosts; a single-model schedule passes tenant 0.  An
        arrival time that is not finite, a tenant that indexes none of
        the cluster's tenants, or a repeated request id raises
        ``ValueError``.

        Every request is offered to the :attr:`evaluator` first
        (:meth:`_arrive`); the DES replays it when the evaluator declines
        it.  A committed request finished strictly before the next
        arrival, so no event of the DES could have interleaved with it."""
        engine = self.engine
        entries = list(stream)
        self._chunk = (0, [])  # the chunk state belongs to this replay
        last_end = 0.0

        def driver():
            nonlocal last_end
            previous = 0.0
            for position, (at, _tenant, _request) in enumerate(entries):
                at = finite_non_negative.check("arrival time", at, "stream: ")
                delay = at - previous
                if delay < 0.0:
                    raise ValueError(
                        f"stream arrivals must be nondecreasing; "
                        f"{at} follows {previous}"
                    )
                yield delay
                previous = at
                # The next arrival's clock, computed exactly as the
                # engine will compute it from this driver's delay.
                horizon = (
                    math.inf if position + 1 == len(entries)
                    else engine.now + (float(entries[position + 1][0]) - previous)
                )
                arrived = self._arrive(entries, position, horizon)
                if not isinstance(arrived, Event):
                    last_end = arrived

        engine.process(driver())
        try:
            engine.run()
            # A request committed last completes after the driver's last
            # event; the DES clock would stop at that completion.
            if last_end > engine.now:
                engine.now = last_end
        finally:
            self._finish_replay()
