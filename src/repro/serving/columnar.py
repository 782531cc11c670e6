"""Columnar plan builder and driver for the ``vectorized`` replay kernel.

This module is the serving-side half of the vectorized fast path (the
evaluator half lives in :mod:`repro.simulation.vectorized`): it decides
*whether* a run may use the evaluator (:func:`vectorized_ineligibility`),
transposes per-request execution plans into per-chunk numpy columns
(:func:`build_chunk_plans`), and drives requests through the evaluator
in two ways:

* a serial closed-loop run replays every request, chunk by chunk
  (:func:`run_vectorized`);
* an open-loop run or a co-located mix replays on the DES, and every
  request that arrives at an idle cluster is offered to the evaluator
  first (:func:`idle_arrival_cluster`).  Plans are built per tenant over
  chunks of stream positions, only for the batch-count groups that fit
  the worker pools; the evaluator commits a request only if it
  completes strictly before the next arrival, and the DES replays the
  busy periods.  One :class:`VectorizedColumns` collector is the run's
  tracer, so both paths fill one set of columns in completion order.

Bit-exactness
=============

:func:`build_chunk_plans` produces, for every (request, net, batch,
shard-slot), the *same float64 bits* as
:meth:`ClusterSimulation._request_plans
<repro.serving.simulator.ClusterSimulation._request_plans>`: every numpy
expression below keeps the exact left-associated operation order of the
scalar code it mirrors, integer accumulators stay integers until the
same int->float points, and zero-count terms contribute exact ``+0.0``
no-ops precisely where the scalar code *skips* them (adding ``+0.0`` to
a non-negative float accumulator never changes its bits).  Plans with
row-partitioned tables (``TableAssignment.num_parts > 1``) fall back to
calling the scalar plan builder per request -- the partition-split
multinomials are keyed per-(request, table) substreams, so the scalar
path is already vectorization-agnostic -- and only the transposition is
columnar.

Memory flatness
===============

Chunking bounds peak memory at O(chunk_size), not O(num_requests): a
chunk's cost columns are built, replayed and released before the next
chunk is built (for an open-loop stream: when the stream moves past the
chunk's positions), and no cost column outlives the run.  The per-target
RPC costs stay float64 numpy planes until the evaluator turns one
request's rows into Python lists, so boxed floats exist for one request
at a time.  Only the integer count matrices are kept, in a small
bounded LRU (so a multi-configuration sweep over one request sample
reuses them across configurations without holding every chunk; entry
size is bounded by ``repro.experiments.runner.CHUNK_SIZE``), and --
unlike the scalar builder -- nothing is memoized *on* the request
objects.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterable

import numpy as np

from repro.core.types import US
from repro.models.config import FeatureScope, ModelConfig
from repro.requests.generator import Request, request_payload_bytes
from repro.serving.simulator import ClusterSimulation, ServingConfig, _Tenant
from repro.sharding.plan import ShardingPlan
from repro.simulation.costmodel import ranking_response_bytes
from repro.simulation.vectorized import (
    ChunkPlans,
    NetColumns,
    SweepEvaluator,
    TargetColumns,
    VectorizedColumns,
)

__all__ = [
    "build_chunk_plans",
    "idle_arrival_cluster",
    "run_vectorized",
    "vectorized_ineligibility",
]

#: Stable fallback-reason strings, asserted by the gating tests.
REASON_CHAOS = "chaos fault schedule"
REASON_RESILIENCE = "resilience policy active"
REASON_SHALLOW_MAIN = "main worker pool shallower than max_batches"
REASON_SHALLOW_SPARSE = "sparse worker pool shallower than max_batches"


def vectorized_ineligibility(serving: ServingConfig, serial: bool) -> str | None:
    """Why this run cannot use the columnar evaluator (``None`` = it can).

    No run with fault injection or a live resilience policy can: both
    schedule timers on the event loop.  A ``serial`` (closed-loop) run
    replays every request through the evaluator, so its worker pools
    must also be at least ``max_batches`` deep -- with one request in
    flight no ``acquire`` can then block.  An open-loop run or a
    co-located mix needs no pool gate: its replay sends only the
    requests that arrive at an idle cluster and fit the pools through
    the evaluator (:func:`idle_arrival_cluster`), and the DES replays
    the rest.  The trace mode plays no part: every run is attributed by
    the aggregate accumulator the evaluator folds into.  Everything here
    is a pure function of the *configuration* -- never of the request
    sample -- so the same sweep always takes the same path.
    """
    if serving.chaos is not None:
        return REASON_CHAOS
    if serving.resilience is not None and not serving.resilience.is_empty:
        # A live policy supervises per-attempt timers on the event loop;
        # an *empty* policy installs no runtime and stays eligible.
        return REASON_RESILIENCE
    if not serial:
        return None
    if min(serving.service_workers, serving.main_platform.cores) < serving.max_batches:
        return REASON_SHALLOW_MAIN
    if min(serving.service_workers, serving.sparse_platform.cores) < serving.max_batches:
        return REASON_SHALLOW_SPARSE
    return None


# -- chunk-level integer bundles (config-independent, LRU-memoized) -----------
class _ChunkBundle:
    """Per-chunk integer data shared by every configuration of a sweep.

    Everything here is a pure function of (requests, batch policy):
    per-request item counts, per-table per-batch id-count matrices, and
    the batch-count grouping.  Cost columns (which depend on the
    sharding plan and platforms) are rebuilt per configuration from
    these exact integers.  A group's matrices are built on first use, so
    groups no configuration replays through the evaluator are never
    built.
    """

    __slots__ = (
        "requests", "first", "model", "items", "total_ids", "ndraws",
        "by_count", "_groups",
    )

    def __init__(self, requests: list[Request], model: ModelConfig,
                 size: int, max_batches: int) -> None:
        self.requests = requests
        self.first = requests[0]
        self.model = model
        count = len(requests)
        self.items = np.fromiter(
            (request.num_items for request in requests), np.int64, count
        )
        self.total_ids = np.fromiter(
            (request.total_ids for request in requests), np.int64, count
        )
        self.ndraws = np.fromiter(
            (len(request.draws) for request in requests), np.int64, count
        )
        nb = np.minimum(-(-self.items // size), max_batches)
        by_count: dict[int, list[int]] = {}
        for position, batches in enumerate(nb.tolist()):
            by_count.setdefault(batches, []).append(position)
        #: (batch count B, chunk positions), ascending by B.
        self.by_count = sorted(by_count.items())
        self._groups: dict[int, tuple] = {}

    def group(self, batches: int, positions: list[int]) -> tuple:
        """The batch-count-``batches`` group: (items_pb (Rg, B), counts
        {table -> (Rg, B) int64; absent tables omitted})."""
        group = self._groups.get(batches)
        if group is None:
            group = self._groups[batches] = self._build_group(batches, positions)
        return group

    def _build_group(self, batches: int, positions: list[int]) -> tuple:
        requests = self.requests
        group_requests = [requests[position] for position in positions]
        items_g = self.items[np.array(positions, dtype=np.int64)]
        # Batch edges: round(index * num_items / B) is int-exact in
        # float64 (the dividend is far below 2**53) and np.round is the
        # same round-half-even as builtin round().
        index = np.arange(batches, dtype=np.int64)
        left = np.round((items_g[:, None] * index[None, :]) / batches).astype(np.int64)
        edges = np.concatenate([left, items_g[:, None]], axis=1)
        items_pb = edges[:, 1:] - edges[:, :-1]

        # Per-table count matrices, one pass over the chunk's draws.
        # USER-scoped draws broadcast their total over every batch;
        # ITEM-scoped draws slice a per-item cumsum at the batch edges
        # (identical integers to ClusterSimulation._slice_counts).
        user_totals: dict[str, np.ndarray] = {}
        item_rows: dict[str, list[int]] = {}
        item_counts: dict[str, list[np.ndarray]] = {}
        for row, request in enumerate(group_requests):
            for name, draw in request.draws.items():
                if draw.per_item_counts is None:
                    column = user_totals.get(name)
                    if column is None:
                        column = user_totals[name] = np.zeros(
                            len(group_requests), np.int64
                        )
                    column[row] = draw.total_ids
                else:
                    item_rows.setdefault(name, []).append(row)
                    item_counts.setdefault(name, []).append(draw.per_item_counts)
        counts: dict[str, np.ndarray] = {}
        for name, column in user_totals.items():
            counts[name] = np.repeat(column[:, None], batches, axis=1)
        for name, rows in item_rows.items():
            matrix = counts.get(name)
            if matrix is None:
                matrix = counts[name] = np.zeros(
                    (len(group_requests), batches), np.int64
                )
            row_index = np.array(rows, dtype=np.int64)
            lengths = items_g[row_index]
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(lengths, out=offsets[1:])
            flat = np.concatenate(
                [np.asarray(c, dtype=np.int64) for c in item_counts[name]]
            )
            prefix = np.zeros(int(offsets[-1]) + 1, dtype=np.int64)
            np.cumsum(flat, out=prefix[1:])
            at_edges = prefix[offsets[:-1, None] + edges[row_index]]
            matrix[row_index] = at_edges[:, 1:] - at_edges[:, :-1]
        return items_pb, counts


_BUNDLE_CACHE: OrderedDict[tuple, _ChunkBundle] = OrderedDict()
#: Small on purpose: one bundle is O(chunk tables); the cache exists so
#: a multi-configuration sweep reuses the current chunk's integers, not
#: to retain a whole sweep.
_BUNDLE_CACHE_MAX = 4


def _chunk_bundle(
    requests: list[Request], model: ModelConfig, size: int, max_batches: int
) -> _ChunkBundle:
    key = (
        requests[0].request_id, requests[-1].request_id, len(requests),
        model.name, size, max_batches,
    )
    bundle = _BUNDLE_CACHE.get(key)
    # Identity re-check: request ids are only unique per sample, so two
    # sweeps over different samples must not share bundles.
    if bundle is not None and bundle.first is requests[0] and bundle.model is model:
        _BUNDLE_CACHE.move_to_end(key)
        return bundle
    bundle = _ChunkBundle(requests, model, size, max_batches)
    _BUNDLE_CACHE[key] = bundle
    while len(_BUNDLE_CACHE) > _BUNDLE_CACHE_MAX:
        _BUNDLE_CACHE.popitem(last=False)
    return bundle


# -- columnar plan building ---------------------------------------------------
def _scatter(destination: list, positions: list[int], rows: Iterable) -> None:
    # C-level scatter: map(__setitem__) avoids a Python-level loop over
    # thousands of chunk positions per (slot, field).
    _consume(map(destination.__setitem__, positions, rows))


_consume = deque(maxlen=0).extend


def build_chunk_plans(
    sim: ClusterSimulation, tenant: _Tenant, requests: list[Request]
) -> ChunkPlans:
    """Transpose one chunk's execution plans into evaluator columns.

    Bit-for-bit equal to calling ``sim._request_plans`` per request (see
    the module docstring); requests are grouped by batch count so every
    numpy expression runs over rectangular (request, batch) matrices.
    Only the groups whose batches fit the worker pools are built; the
    other requests keep ``nb == 0`` (see :func:`_pool_fit`).
    """
    config = sim.config
    model = tenant.model
    cm = config.cost_model
    size = config.batch_size or model.profile.batch_size
    bundle = _chunk_bundle(requests, model, size, config.max_batches)
    count = len(requests)
    fit = _pool_fit(sim, tenant)

    rc_main = config.main_platform.relative_clock
    denom_main = sim._serde_denom_main
    denom_sparse = sim._serde_denom_sparse
    items_f = bundle.items.astype(np.float64)
    payload = (
        256.0
        + model.profile.dense_feature_bytes * items_f
        + 8.0 * bundle.total_ids.astype(np.float64)
        + 24.0 * bundle.ndraws.astype(np.float64)
    )
    head = (
        cm.serde_fixed
        + (cm.serde_per_table * bundle.ndraws.astype(np.float64)) / rc_main
        + payload / denom_main
    )
    # serde_time(tables=0): the per-table term is an exact +0.0 no-op.
    tail = cm.serde_fixed + (64.0 + 8.0 * items_f) / denom_main

    singular = tenant.plan.is_singular
    nb_list = [0] * count
    nets = [NetColumns() for _ in model.nets]
    if not singular:
        for net_index, net_cfg in enumerate(model.nets):
            nets[net_index].targets = [
                TargetColumns(shard.index)
                for shard, _ in tenant.net_routing[net_cfg.name]
            ]
    placeholder: list = [None] * count
    for net_columns in nets:
        # Every fitting position is scattered exactly once (the groups
        # partition the chunk), so plain placeholders beat per-request
        # empties.
        net_columns.overhead = placeholder.copy()
        net_columns.dense = placeholder.copy()
        net_columns.local = placeholder.copy()
        for target in net_columns.targets:
            target.rows = placeholder.copy()

    serde_fixed = cm.serde_fixed
    dispatch_fixed = cm.rpc_dispatch_fixed
    sls_dispatch = cm.sls_dispatch_per_table
    tbl_client = np.asarray(tenant.serde_tbl_client, dtype=np.float64)
    tbl_server = np.asarray(tenant.serde_tbl_server, dtype=np.float64)
    per_id_main = tenant.per_id_main
    per_id_sparse = tenant.per_id_sparse

    for batches, positions in bundle.by_count:
        if batches > fit:
            continue
        items_pb, counts = bundle.group(batches, positions)
        for position in positions:
            nb_list[position] = batches
        items_pb_f = items_pb.astype(np.float64)
        for net_index, net_cfg in enumerate(model.nets):
            net_columns = nets[net_index]
            net_tables = model.tables_for_net(net_cfg.name)
            n_net = len(net_tables)
            micros = net_cfg.dense_us_fixed + net_cfg.dense_us_per_item * items_pb_f
            dense = micros * US / rc_main
            _scatter(net_columns.dense, positions, dense.tolist())

            if singular:
                net_columns.singular_overhead = cm.net_overhead(n_net + 12)
                gather = np.zeros(items_pb.shape)
                # Tables outer, batches inner -- the scalar builder's
                # transposed accumulation order; absent tables are
                # skipped identically, zero counts add exact +0.0.
                for table in net_tables:
                    table_counts = counts.get(table.name)
                    if table_counts is None:
                        continue
                    gather += table_counts * per_id_main[table.name]
                local = sls_dispatch * n_net + gather
                _scatter(net_columns.local, positions, local.tolist())
                continue

            n_names = np.zeros(items_pb.shape, np.int64)
            for table in net_tables:
                table_counts = counts.get(table.name)
                if table_counts is None:
                    continue
                n_names += table_counts > 0
            active_targets = np.zeros(items_pb.shape, np.int64)
            for slot, (_shard, pairs) in enumerate(tenant.net_routing[net_cfg.name]):
                ids = np.zeros(items_pb.shape, np.int64)
                ntab = np.zeros(items_pb.shape, np.int64)
                resp_extra = np.zeros(items_pb.shape, np.int64)
                gather = np.zeros(items_pb.shape)
                has_item = np.zeros(items_pb.shape, bool)
                for table, _assignment in pairs:
                    table_counts = counts.get(table.name)
                    if table_counts is None:
                        continue
                    mask = table_counts > 0
                    ids += table_counts
                    ntab += mask
                    gather += table_counts * per_id_sparse[table.name]
                    dim4 = table.dim * 4
                    if table.scope is FeatureScope.ITEM:
                        has_item |= mask
                        resp_extra += mask * (24 + items_pb * dim4)
                    else:
                        resp_extra += mask * (24 + dim4)
                active = ntab > 0
                segments = np.where(has_item, items_pb, 1)
                req_bytes = 64.0 + ids * 8.0 + ntab * (segments * 4.0 + 24.0)
                resp_bytes = 64.0 + resp_extra
                client_tbl = tbl_client[ntab]
                server_tbl = tbl_server[ntab]
                cst = serde_fixed + client_tbl + req_bytes / denom_main + dispatch_fixed
                sdes = serde_fixed + server_tbl + req_bytes / denom_sparse
                sov = cm.net_overhead_fixed + cm.net_overhead_per_op * (ntab + 2)
                slw = sls_dispatch * ntab + gather
                srs = serde_fixed + server_tbl + resp_bytes / denom_sparse
                crd = serde_fixed + client_tbl + resp_bytes / denom_main
                active_targets += active
                target = net_columns.targets[slot]
                # One evaluator row per request: stack the nine per-batch
                # cost planes request-major (axis=1 keeps each request's
                # (9, batches) row a contiguous view).  The rows stay
                # float64 until the evaluator lists one request at a
                # time.  The active plane becomes float 0.0/1.0 -- the
                # evaluator only tests its truthiness.
                stacked = np.stack((
                    active, cst, sdes, sov, slw, srs, crd,
                    req_bytes, resp_bytes,
                ), axis=1)
                _scatter(target.rows, positions, stacked)
            overhead = cm.net_overhead_fixed + cm.net_overhead_per_op * (
                n_net + 12 + active_targets
            )
            overhead = overhead + cm.fill_per_table * (n_net - n_names)
            _scatter(net_columns.overhead, positions, overhead.tolist())

    return ChunkPlans(
        singular,
        [request.request_id for request in requests],
        nb_list,
        head.tolist(),
        tail.tolist(),
        nets,
        [net_cfg.name for net_cfg in model.nets],
    )


def _pool_fit(sim: ClusterSimulation, tenant: _Tenant) -> int:
    """The largest batch count no ``acquire`` can block on when a
    request runs alone: every batch holds one main worker, and at most
    one RPC per batch is in service on any sparse host."""
    fit = sim.main.workers.capacity
    if not tenant.plan.is_singular:
        for server in sim.sparse_servers:
            fit = min(fit, server.workers.capacity)
    return fit


#: _ShardLookups attributes in evaluator row order (rows 1-8; row 0 is
#: the active plane).
_PLAN_FIELDS = (
    "client_ser_total", "server_deser", "server_overhead", "sls_work",
    "server_resp_ser", "client_resp_deser", "req_bytes", "resp_bytes",
)


def _scalar_chunk_plans(
    sim: ClusterSimulation, tenant: _Tenant, requests: list[Request]
) -> ChunkPlans:
    """Per-request scalar fallback for plans with row-partitioned tables.

    The partition-split multinomials are keyed per (request, table)
    substreams inside ``_request_plans``, so building plans one request
    at a time is exactly the reference computation; only the
    transposition into evaluator columns is new.  (Not memory-flat to
    the same degree: ``_request_plans`` memoizes slice counts on the
    request objects, like every scalar-kernel sweep does.)  Requests
    whose batches do not fit the pools get ``nb == 0`` and no plan.
    """
    model = tenant.model
    fit = _pool_fit(sim, tenant)
    cm = sim.config.cost_model
    main_platform = sim.config.main_platform
    names = [net_cfg.name for net_cfg in model.nets]
    singular = tenant.plan.is_singular
    nets = [NetColumns() for _ in names]
    slot_of: list[dict[int, int]] = []
    if not singular:
        for net_index, name in enumerate(names):
            routing = tenant.net_routing[name]
            nets[net_index].targets = [
                TargetColumns(shard.index) for shard, _ in routing
            ]
            slot_of.append(
                {shard.index: slot for slot, (shard, _) in enumerate(routing)}
            )
    rids: list[int] = []
    nb_list: list[int] = []
    heads: list[float] = []
    tails: list[float] = []
    for request in requests:
        batches = sim._batches(tenant, request)
        num_batches = len(batches)
        rids.append(request.request_id)
        if num_batches > fit:
            nb_list.append(0)
            heads.append(0.0)
            tails.append(0.0)
            for net_columns in nets:
                net_columns.dense.append(None)
                if singular:
                    net_columns.local.append(None)
                    continue
                net_columns.overhead.append(None)
                for target in net_columns.targets:
                    target.rows.append(None)
            continue
        plans = sim._request_plans(tenant, request, batches)
        nb_list.append(num_batches)
        heads.append(
            cm.serde_time(
                request_payload_bytes(model, request),
                main_platform,
                tables=len(request.draws),
            )
        )
        tails.append(
            cm.serde_time(ranking_response_bytes(request.num_items), main_platform)
        )
        for net_index, name in enumerate(names):
            net_columns = nets[net_index]
            per_batch = plans[name]
            net_columns.dense.append([plan.dense_total for plan in per_batch])
            if singular:
                net_columns.singular_overhead = per_batch[0].overhead
                net_columns.local.append([plan.local_work for plan in per_batch])
                continue
            net_columns.overhead.append([plan.overhead for plan in per_batch])
            # The same (9, batches) float64 rows build_chunk_plans emits:
            # the active plane, then the eight cost fields.
            rows = np.zeros((len(net_columns.targets), 9, num_batches))
            for batch_index, plan in enumerate(per_batch):
                for lookup in plan.targets:
                    row = rows[slot_of[net_index][lookup.shard.index]]
                    row[0, batch_index] = 1.0
                    for field, attr in enumerate(_PLAN_FIELDS, 1):
                        row[field, batch_index] = getattr(lookup, attr)
            for target, row in zip(net_columns.targets, rows):
                target.rows.append(row)
    return ChunkPlans(singular, rids, nb_list, heads, tails, nets, names)


def _has_partitions(plan: ShardingPlan) -> bool:
    if plan.is_singular:
        return False
    return any(
        assignment.num_parts > 1
        for shard in plan.shards
        for assignment in shard.assignments
    )


# -- drivers ------------------------------------------------------------------
def _plan_builder(plan: ShardingPlan):
    # Looked up at call time, so a replaced module attribute is honoured.
    return _scalar_chunk_plans if _has_partitions(plan) else build_chunk_plans


def _evaluator(
    cluster: ClusterSimulation, collector: VectorizedColumns
) -> SweepEvaluator:
    return SweepEvaluator(
        cluster.fabric,
        cluster.main,
        cluster.sparse_servers,
        cluster.config.cost_model,
        collector,
        cluster.completed,
    )


def run_vectorized(
    model: ModelConfig,
    plan: ShardingPlan,
    requests: list[Request],
    serving: ServingConfig,
    chunk_size: int,
) -> tuple[VectorizedColumns, ClusterSimulation]:
    """Replay ``requests`` serially through the columnar evaluator.

    Constructs the same :class:`ClusterSimulation` a DES run would (so
    every substream -- clock skews, fabric jitter -- is primed
    identically), then replays chunk by chunk.  The returned collector
    holds the finished aggregate columns (``RunResult.adopt_aggregate``
    consumes it); the cluster is returned for its timeline accessors,
    with the clock at the last completion, as the DES would leave it.
    """
    collector = VectorizedColumns(len(requests))
    cluster = ClusterSimulation(model, plan, serving, tracer=collector)
    tenant = cluster.tenants[0]
    evaluator = _evaluator(cluster, collector)
    build = _plan_builder(plan)
    now = 0.0
    for start in range(0, len(requests), chunk_size):
        # No name binds a chunk's plans, so they are freed as soon as
        # the chunk is replayed -- before the next chunk is built.
        now = evaluator.replay_chunk(
            build(cluster, tenant, requests[start : start + chunk_size]), now
        )
    cluster.engine.now = now
    return collector, cluster


class _IdleArrivals:
    """The evaluator hook :meth:`ClusterSimulation.run_stream` calls.

    Called with the cluster, a stream position, the tenant and request
    the stream holds there, the driver's clock and the next arrival's
    clock (the horizon) when a request arrives at an idle cluster.
    Plans are built per chunk of ``chunk_size`` stream positions, per
    tenant, when the first idle arrival of the chunk asks for one, and
    released when the stream moves to the next chunk.  Returns the
    completion time of a committed request, or ``None`` when the DES
    must replay it (the stream's request is not the one planned at that
    position, its batches do not fit the pools, or it would not finish
    strictly before the next arrival).  The hook holds no reference to
    the cluster, so a finished cluster is freed at once.
    """

    def __init__(
        self,
        evaluator: SweepEvaluator,
        tenants: list[int],
        requests: list[Request],
        chunk_size: int,
    ) -> None:
        self.evaluator = evaluator
        self.tenants = tenants
        self.requests = requests
        self.chunk_size = chunk_size
        self._chunk = -1
        #: Chunk offset -> (the tenant's plans, row in them).
        self._rows: list[tuple[ChunkPlans, int]] = []

    def _build(self, cluster: ClusterSimulation, chunk: int) -> None:
        start = chunk * self.chunk_size
        stop = start + self.chunk_size
        offsets_of: dict[int, list[int]] = {}
        for offset, tenant in enumerate(self.tenants[start:stop]):
            offsets_of.setdefault(tenant, []).append(offset)
        requests = self.requests[start:stop]
        rows: list = [None] * len(requests)
        # Release the previous chunk's plans before building this one.
        self._rows = rows
        for tenant_index, offsets in sorted(offsets_of.items()):
            tenant = cluster.tenants[tenant_index]
            plans = _plan_builder(tenant.plan)(
                cluster, tenant, [requests[offset] for offset in offsets]
            )
            for row, offset in enumerate(offsets):
                rows[offset] = (plans, row)
        self._chunk = chunk

    def __call__(
        self, cluster: ClusterSimulation, position: int, tenant: int,
        request: Request, now: float, horizon: float,
    ) -> float | None:
        # Plans exist only for the requests the cluster was built with;
        # any other stream entry is the DES's to replay.
        if (
            position >= len(self.requests)
            or self.requests[position] is not request
            or self.tenants[position] != tenant
        ):
            return None
        chunk, offset = divmod(position, self.chunk_size)
        if chunk != self._chunk:
            self._build(cluster, chunk)
        plans, row = self._rows[offset]
        if not plans.nb[row]:
            return None
        t_end = self.evaluator.replay_chunk(plans, now, row, horizon)
        return t_end if t_end < horizon else None


def idle_arrival_cluster(
    tenants: list[tuple[ModelConfig, ShardingPlan]],
    serving: ServingConfig,
    stream_tenants: list[int],
    requests: list[Request],
    chunk_size: int,
) -> tuple[VectorizedColumns, ClusterSimulation]:
    """A cluster whose open-loop replay is columnar at idle arrivals.

    ``requests[p]`` (of tenant ``stream_tenants[p]``) is the request at
    stream position ``p`` of the stream the caller then passes to
    :meth:`ClusterSimulation.run_stream`; a stream entry that is not
    that request object of that tenant is left to the DES.  The returned
    collector is the
    cluster's tracer, so the DES's spans and the evaluator's folds land
    in one set of columns in completion order; the caller wires
    ``on_complete`` to its ``finalize_request`` as for any DES replay.
    """
    collector = VectorizedColumns(len(requests))
    cluster = ClusterSimulation.colocated(tenants, serving, tracer=collector)
    cluster.idle_arrival = _IdleArrivals(
        _evaluator(cluster, collector), stream_tenants, requests, chunk_size
    )
    return collector, cluster
