"""The plan builder of every replay, and the ``vectorized`` kernel's gate.

This module is the serving-side half of the vectorized fast path (the
evaluator half lives in :mod:`repro.simulation.vectorized`): it decides
*whether* a run may use the evaluator (:func:`vectorized_ineligibility`)
and builds every execution plan as per-chunk numpy columns
(:func:`build_chunk_plans`, the only plan builder, whose
:class:`ChunkPlans` is the one plan object both replay paths read).
Every replay -- serial closed-loop, open-loop, or a co-located mix,
under any kernel, on a bare cluster too -- runs on the DES driver,
which plans the entries it replays per tenant, :data:`CHUNK_SIZE`
stream positions at a time, when it reaches them
(:meth:`ClusterSimulation._locate`).  Under the ``vectorized`` kernel
the cluster carries an evaluator (``ClusterSimulation.evaluator``),
offered every request that arrives at an idle cluster; it commits a
request if it completes strictly before the next arrival (for a serial
run the next arrival is the request's own completion, so the horizon is
``+inf``) -- its batches queueing FIFO for the worker pools, unless two
acquires on one pool tie at one exact time and one waits -- and the DES
replays the rest from the same chunk row, so one build serves both
paths.  One :class:`~repro.tracing.aggregate.AggregatingTracer` is the
run's tracer, and both replay paths attribute into it through its
``finalize_request``, so they fill one set of columns in completion
order.

Bit-exactness
=============

:func:`build_chunk_plans` produces, for every (request, net, batch,
shard-slot), the *same float64 bits* as building each request's plans
one table and one batch at a time in Python floats (the scalar oracle
``tests/plan_oracle.py`` pins it).  Every cost formula is the one in
:mod:`repro.simulation.costmodel` (and
:func:`~repro.requests.generator.request_payload_bytes`), called here on
whole numpy columns and by the oracle on plain numbers.  That is
bit-identical because a numpy elementwise operation on float64 is the
same IEEE operation a Python float operation is: each function's
expression runs the same left-associated operations on the same
operands, whatever their container, and an int64 operand converts to
the float a Python int would.  The builder only reduces over the table
axis: integer sums (ids, active tables, summed dims, distinct tables,
active targets) stay integers until they enter a formula, so they may
be reduced in any order, and every byte count is an integer far below
2**53, exact in any association.  The one float sum, the SLS gather, is
``np.add.accumulate`` along the table axis -- the scalar sequential
left-to-right adds, in pair order -- and its last element is the
gather.  A table a request does not draw, a table absent from the whole
group (a zero plane of the count stack) and the padding of a routing
slot's table index (the trailing zero plane) all contribute exact
``+0.0`` terms precisely where the scalar code *skips* them (adding
``+0.0`` to a non-negative float accumulator never changes its bits).
A row-partitioned table (``TableAssignment.num_parts > 1``) gets one
count plane per part, each positive (request, batch) count split by the
keyed multinomial
:meth:`~repro.serving.simulator.ClusterSimulation._partition_split`
(stateless, so any draw order gives the same integers); a part the split
leaves empty is a zero, skipped like any other.

Memory flatness
===============

Chunking bounds peak memory at O(chunk_size), not O(num_requests): a
chunk's cost columns are built, replayed and released when the replay
moves past the chunk's positions, before the next chunk is built, and
no cost column outlives the run.  The per-target RPC costs stay
float64 numpy planes until a replay path starts a request: the
evaluator, or the DES for a request the evaluator declines, lists that
one request's rows into Python floats, so boxed floats exist only for
the requests in flight.
Only the integer counts are kept: per batch-count group, one int64
stack per net of shape (tables + 1, requests, batches) -- a plane per
table in ``tables_for_net`` order, zero for a table the group never
draws, plus one zero padding plane -- in a small bounded LRU (so a
multi-configuration sweep over one request sample reuses them across
configurations without holding every chunk; entry size is bounded by
:data:`CHUNK_SIZE`).  The (slot, table, request,
batch) temporaries of one (group, net) pass are released before the
next.  Nothing is memoized *on* the request objects.

The one input a sweep holds for its whole run is its request stream,
so its footprint is what chunking leaves to bound.  An ITEM-scoped
draw keeps one int64 item index per id
(:attr:`~repro.requests.generator.SparseFeatureDraw.item_ids`), not a
count per candidate item: per-item rates are tiny, so a DRM1 stream of
1000 requests holds 4.8 MiB (``tracemalloc``), where dense per-item
counts held 34.0 MiB, 30 MB of it zeros
(``tests/test_stream_memory.py``).  The builder scatters those ids
straight into its count planes, with no per-item scratch either.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Iterable

import numpy as np

from repro.core.types import Num
from repro.models.config import FeatureScope, ModelConfig, TableConfig
from repro.requests.generator import Request, request_payload_bytes
from repro.serving.simulator import ClusterSimulation, ServingConfig, _Tenant
from repro.simulation.costmodel import (
    ranking_response_bytes,
    rpc_request_bytes,
    rpc_response_bytes,
    wire_time,
)
from repro.simulation.vectorized import ChunkPlans, NetColumns, TargetColumns

__all__ = [
    "CHUNK_SIZE",
    "build_chunk_plans",
    "vectorized_ineligibility",
]

#: Requests per chunk: a replay plans its stream this many positions at
#: a time (:meth:`ClusterSimulation._locate`, which reads it per chunk),
#: so peak memory is O(chunk), not O(stream) -- 2048 keeps
#: million-request sweeps flat while amortizing numpy dispatch.
#: Chunking changes only how many requests are columnarized per numpy
#: pass, never the replay arithmetic, so any chunk size yields
#: bit-identical results.
CHUNK_SIZE = 2048

#: Stable fallback-reason strings, asserted by the gating tests.
REASON_CHAOS = "chaos fault schedule"
REASON_RESILIENCE = "resilience policy active"


def vectorized_ineligibility(serving: ServingConfig) -> str | None:
    """Why this run cannot use the columnar evaluator (``None`` = it can).

    No run with fault injection or a live resilience policy can: both
    schedule timers on the event loop.  No pool gate is needed: the
    evaluator models FIFO worker queueing, the replay offers it only the
    requests that arrive at an idle cluster
    (``ClusterSimulation._arrive``), and the DES replays the rest.  The
    trace mode plays no part: every run is attributed by the aggregate
    accumulator the evaluator folds into.  Everything here is a pure
    function of the *configuration* -- never of the request sample -- so
    the same sweep always takes the same path.
    """
    if serving.chaos is not None:
        return REASON_CHAOS
    if serving.resilience is not None and not serving.resilience.is_empty:
        # A live policy supervises per-attempt timers on the event loop;
        # an *empty* policy installs no runtime and stays eligible.
        return REASON_RESILIENCE
    return None


# -- chunk-level integer bundles (config-independent, LRU-memoized) -----------
class _ChunkBundle:
    """Per-chunk integer data shared by every configuration of a sweep.

    Everything here is a pure function of (requests, batch policy):
    per-request item counts, per-batch id-count stacks, and the
    batch-count grouping.  Cost columns (which depend on the sharding
    plan and platforms) are rebuilt per configuration from these exact
    integers.  Every batch-count group is built, and both replay paths
    read every group.
    """

    __slots__ = ("first", "model", "items", "total_ids", "ndraws", "groups")

    def __init__(self, requests: list[Request], model: ModelConfig,
                 size: int, max_batches: int) -> None:
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
        #: (batch count B, chunk positions, items_pb (Rg, B), stacks),
        #: ascending by B.  ``stacks[n]`` is net ``n``'s (T+1, Rg, B)
        #: int64 id counts, one plane per table in ``tables_for_net``
        #: order (zero for a table no request of the group draws), then
        #: one zero plane that pads the routing-slot table index.
        self.groups = [
            (batches, positions)
            + self._build_group(requests, batches, positions)
            for batches, positions in sorted(by_count.items())
        ]

    def _build_group(
        self, requests: list[Request], batches: int, positions: list[int]
    ) -> tuple[np.ndarray, list[np.ndarray]]:
        group_requests = [requests[position] for position in positions]
        rows = len(group_requests)
        items_g = self.items[np.array(positions, dtype=np.int64)]
        # Batch edges: round(index * num_items / B) is int-exact in
        # float64 (the dividend is far below 2**53) and np.round is the
        # same round-half-even as builtin round().
        index = np.arange(batches, dtype=np.int64)
        left = np.round((items_g[:, None] * index[None, :]) / batches).astype(np.int64)
        edges = np.concatenate([left, items_g[:, None]], axis=1)
        items_pb = edges[:, 1:] - edges[:, :-1]

        stacks = []
        plane_of: dict[str, tuple[int, int]] = {}  # table -> (net, plane)
        for n, net_cfg in enumerate(self.model.nets):
            tables = self.model.tables_for_net(net_cfg.name)
            stacks.append(np.zeros((len(tables) + 1, rows, batches), np.int64))
            for plane, table in enumerate(tables):
                plane_of[table.name] = (n, plane)

        # Per-table count planes, one pass over the chunk's draws.
        # USER-scoped draws broadcast their total over every batch; an
        # ITEM-scoped id counts in the batch of its item, whose index is
        # the number of inner batch edges at or below the item.
        user_totals: dict[str, np.ndarray] = {}
        item_ids: list[list[np.ndarray]] = [[] for _ in stacks]
        item_keys: list[list[tuple[int, int, int]]] = [[] for _ in stacks]
        for row, request in enumerate(group_requests):
            for name, draw in request.draws.items():
                if draw.item_ids is None:
                    column = user_totals.get(name)
                    if column is None:
                        column = user_totals[name] = np.zeros(rows, np.int64)
                    column[row] = draw.total_ids
                else:
                    n, plane = plane_of[name]
                    item_ids[n].append(draw.item_ids)
                    item_keys[n].append((plane, row, len(draw.item_ids)))
        for name, column in user_totals.items():
            n, plane = plane_of[name]
            stacks[n][plane] = column[:, None]
        inner = left[:, 1:]
        for stack, ids, keys in zip(stacks, item_ids, item_keys):
            if not keys:
                continue
            planes, owners, sizes = np.array(keys, dtype=np.int64).T
            owners = np.repeat(owners, sizes)
            flat = np.concatenate(ids)
            batch = np.count_nonzero(inner[owners] <= flat[:, None], axis=1)
            np.add.at(stack, (np.repeat(planes, sizes), owners, batch), 1)
        return items_pb, stacks


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


def _listed(column: Num) -> list:
    """A cost column's Python floats (``tolist`` keeps the float64 bits)."""
    return np.asarray(column).tolist()


def _slot_tables(
    tenant: _Tenant, net_name: str
) -> tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray,
    list[tuple[TableConfig, int, int]],
]:
    """Net ``net_name``'s routing slots as a padded (slots, kmax) table
    index into its count stack, in pair order, with per-entry constants:
    the sparse per-id SLS cost and the table's dim, split into its ITEM
    and USER parts.  Padding points at the stack's trailing zero plane
    and carries zero constants.

    A row-partitioned pair points at its part's plane: every
    ``(table, num_parts)`` of the routing, in first-use order, appends
    ``num_parts`` planes after the padding plane, listed as
    ``(table, num_parts, table's stack plane)`` (:func:`_part_planes`)."""
    model = tenant.model
    plane_of = {
        table.name: plane
        for plane, table in enumerate(model.tables_for_net(net_name))
    }
    routing = tenant.net_routing[net_name]
    shape = (len(routing), max((len(pairs) for _, pairs in routing), default=1))
    index = np.full(shape, len(plane_of), np.int64)
    per_id = np.zeros(shape)
    dim_item = np.zeros(shape, np.int64)
    dim_user = np.zeros(shape, np.int64)
    partitions: list[tuple[TableConfig, int, int]] = []
    first_part: dict[tuple[str, int], int] = {}
    next_plane = len(plane_of) + 1  # past the padding plane
    for slot, (_shard, pairs) in enumerate(routing):
        for entry, (table, assignment) in enumerate(pairs):
            plane = plane_of[table.name]
            parts = assignment.num_parts
            if parts > 1:
                key = (table.name, parts)
                if key not in first_part:
                    first_part[key] = next_plane
                    next_plane += parts
                    partitions.append((table, parts, plane))
                plane = first_part[key] + assignment.part_index
            index[slot, entry] = plane
            per_id[slot, entry] = tenant.per_id_sparse[table.name]
            if table.scope is FeatureScope.ITEM:
                dim_item[slot, entry] = table.dim
            else:
                dim_user[slot, entry] = table.dim
    # Trailing (Rg, B) axes, so every constant broadcasts over a group.
    return (
        index,
        per_id[..., None, None],
        dim_item[..., None, None],
        dim_user[..., None, None],
        partitions,
    )


def _part_planes(
    sim: ClusterSimulation,
    requests: list[Request],
    counts: np.ndarray,
    table: TableConfig,
    parts: int,
) -> np.ndarray:
    """A row-partitioned table's (parts, Rg, B) id counts: every positive
    (request, batch) count of ``counts`` split across the parts by the
    keyed multinomial :meth:`ClusterSimulation._partition_split`; a zero
    count stays zero on every part."""
    planes = np.zeros((parts,) + counts.shape, np.int64)
    rows, batches = np.nonzero(counts)
    for row, b in zip(rows.tolist(), batches.tolist()):
        planes[:, row, b] = sim._partition_split(
            requests[row], table, int(counts[row, b]), parts
        )
    return planes


def build_chunk_plans(
    sim: ClusterSimulation, tenant: _Tenant, requests: list[Request]
) -> ChunkPlans:
    """Build one chunk's execution plans as evaluator columns.

    Bit-for-bit equal to the scalar per-request computation (see the
    module docstring); requests are grouped by batch count, and one
    numpy pass per (group, net) computes every routing slot at once over
    (slot, table, request, batch) arrays.  Every request gets a row, read
    by the evaluator or, for a request it declines, by the DES
    (:meth:`ClusterSimulation._serve_request`); both read the same
    fields of the same row.
    """
    config = sim.config
    model = tenant.model
    cm = config.cost_model
    main = config.main_platform
    sparse = config.sparse_platform
    size = config.batch_size or model.profile.batch_size
    bundle = _chunk_bundle(requests, model, size, config.max_batches)
    count = len(requests)

    head = cm.serde_time(
        request_payload_bytes(
            model, bundle.items, bundle.total_ids, bundle.ndraws
        ),
        main,
        tables=bundle.ndraws,
    )
    tail = cm.serde_time(ranking_response_bytes(bundle.items), main)

    singular = tenant.plan.is_singular
    nb_list = [0] * count
    nets = [NetColumns() for _ in model.nets]
    slot_tables = []
    net_tables = [model.tables_for_net(net_cfg.name) for net_cfg in model.nets]
    if singular:
        # The main per-id costs in stack order, padding plane included.
        per_id_main = [
            np.array(
                [tenant.per_id_main[table.name] for table in tables] + [0.0]
            )[:, None, None]
            for tables in net_tables
        ]
    else:
        for net_index, net_cfg in enumerate(model.nets):
            nets[net_index].targets = [
                TargetColumns(shard.index)
                for shard, _ in tenant.net_routing[net_cfg.name]
            ]
            slot_tables.append(_slot_tables(tenant, net_cfg.name))
    placeholder: list = [None] * count
    for net_columns in nets:
        # Every position is scattered exactly once (the groups partition
        # the chunk), so plain placeholders beat per-request empties.
        net_columns.overhead = placeholder.copy()
        net_columns.pre = placeholder.copy()
        net_columns.post = placeholder.copy()
        net_columns.local = placeholder.copy()
        for target in net_columns.targets:
            target.rows = placeholder.copy()

    for batches, positions, items_pb, stacks in bundle.groups:
        for position in positions:
            nb_list[position] = batches
        group_requests = [requests[position] for position in positions]
        for net_index, net_cfg in enumerate(model.nets):
            net_columns = nets[net_index]
            stack = stacks[net_index]
            n_net = len(net_tables[net_index])
            pre, post = cm.dense_halves(net_cfg, items_pb, main)
            _scatter(net_columns.pre, positions, _listed(pre))
            _scatter(net_columns.post, positions, _listed(post))

            if singular:
                net_overhead = cm.net_overhead(n_net + 12)
                _scatter(
                    net_columns.overhead, positions,
                    ([net_overhead] * batches for _ in positions),
                )
                # A per-batch gather adds tables left to right;
                # accumulate runs the same sequential adds.
                gather = np.add.accumulate(
                    stack * per_id_main[net_index], axis=0
                )[-1]
                local = cm.sls_time(n_net, gather)
                _scatter(net_columns.local, positions, _listed(local))
                continue

            index, per_id, dim_item, dim_user, partitions = (
                slot_tables[net_index]
            )
            # (slot, table, request, batch) counts; padding reads zeros,
            # a partitioned pair its part's split counts.
            split = stack
            if partitions:
                split = np.concatenate([stack] + [
                    _part_planes(sim, group_requests, stack[plane], table, parts)
                    for table, parts, plane in partitions
                ])
            counts = split[index]
            mask = counts > 0
            ids = counts.sum(axis=1)
            ntab = mask.sum(axis=1)
            # Integer sums over the active tables (exact in any order).
            user_dims = (mask * dim_user).sum(axis=1)
            item_dims = (mask * dim_item).sum(axis=1)
            gather = np.add.accumulate(counts * per_id, axis=1)[:, -1]
            active = ntab > 0
            # An active ITEM table (every dim is positive) sends one id
            # segment per item of the batch.
            segments = np.where(item_dims > 0, items_pb, 1)
            req_bytes = rpc_request_bytes(ids, ntab, segments)
            resp_bytes = rpc_response_bytes(ntab, user_dims, item_dims, items_pb)
            cst = (
                cm.serde_time(req_bytes, main, ntab, client_side=True)
                + cm.rpc_dispatch_fixed
            )
            sdes = cm.serde_time(req_bytes, sparse, ntab)
            sov = cm.net_overhead(ntab + 2)
            slw = cm.sls_time(ntab, gather)
            srs = cm.serde_time(resp_bytes, sparse, ntab)
            crd = cm.serde_time(resp_bytes, main, ntab, client_side=True)
            # One evaluator row per (slot, request): the nine per-batch
            # planes stacked request-major (axis=2 keeps each request's
            # (9, batches) row a contiguous view).  The rows stay float64
            # until a request is listed.  The active plane becomes float
            # 0.0/1.0 -- only its truthiness is read.
            stacked = np.stack((
                active, cst, sdes, sov, slw, srs, crd,
                wire_time(req_bytes, main), wire_time(resp_bytes, sparse),
            ), axis=2)
            for target, rows in zip(net_columns.targets, stacked):
                _scatter(target.rows, positions, rows)
            # Distinct active tables read the unsplit planes: a positive
            # count has a positive part somewhere.
            n_names = (stack > 0).sum(axis=0)
            overhead = cm.net_overhead(n_net + 12 + active.sum(axis=0))
            overhead = overhead + cm.zero_fill_time(n_net - n_names)
            _scatter(net_columns.overhead, positions, _listed(overhead))

    return ChunkPlans(
        singular,
        [request.request_id for request in requests],
        nb_list,
        _listed(head),
        _listed(tail),
        nets,
        [net_cfg.name for net_cfg in model.nets],
    )
