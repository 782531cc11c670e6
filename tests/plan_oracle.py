"""Plan oracle: the scalar per-request plan builder.

Every replay reads its execution plans from the columnar chunk
(:func:`~repro.serving.columnar.build_chunk_plans`), which computes a
whole chunk with numpy passes.  This module keeps the straightforward
computation it replaced -- one request at a time, one table and one
batch at a time, in plain Python floats -- and the tests compare the
two bit for bit, field by field.  It keeps its own batch split and
plan records, so nothing here reads the code under test.  Both sides
call the cost formulas' one home, :mod:`repro.simulation.costmodel`
(with :func:`~repro.requests.generator.request_payload_bytes`): the
builder over numpy columns, the oracle with plain numbers.  The
row-partition split is the one keyed multinomial both sides draw,
:meth:`~repro.serving.simulator.ClusterSimulation._partition_split`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import FeatureScope
from repro.requests.generator import Request
from repro.serving.simulator import ClusterSimulation, _Tenant
from repro.sharding.plan import ShardSpec
from repro.simulation.costmodel import (
    rpc_request_bytes,
    rpc_response_bytes,
    wire_time,
)

#: ShardLookups cost fields in chunk row order (rows 1-8 of a
#: TargetColumns row; row 0 is the active plane), which is also the
#: record's field order after ``shard``.
PLAN_FIELDS = (
    "client_ser_total", "server_deser", "server_overhead", "sls_work",
    "server_resp_ser", "client_resp_deser", "req_wire", "resp_wire",
)


@dataclass(frozen=True)
class Batch:
    """One batch of a request: items ``[start_item, stop_item)``."""

    index: int
    start_item: int
    stop_item: int

    @property
    def items(self) -> int:
        return self.stop_item - self.start_item


@dataclass(frozen=True)
class ShardLookups:
    """One active (batch, net, shard) RPC with all its costs."""

    shard: ShardSpec
    client_ser_total: float
    server_deser: float
    server_overhead: float
    sls_work: float
    server_resp_ser: float
    client_resp_deser: float
    req_wire: float
    resp_wire: float


@dataclass(frozen=True)
class NetBatchPlan:
    """The execution plan of one (request, net, batch)."""

    overhead: float
    dense_pre: float
    dense_post: float
    targets: list[ShardLookups]
    local_work: float


def batch_split(sim: ClusterSimulation, tenant: _Tenant, request: Request) -> list[Batch]:
    """Section VI-F's batch split: ``ceil(items / batch size)`` batches,
    capped at ``max_batches``, with balanced round-half-even edges."""
    size = sim.config.batch_size or tenant.model.profile.batch_size
    count = min(-(-request.num_items // size), sim.config.max_batches)
    edges = [
        round(index * request.num_items / count) for index in range(count)
    ] + [request.num_items]
    return [Batch(i, edges[i], edges[i + 1]) for i in range(count)]


def slice_counts(draw, batches: list[Batch]) -> list[int]:
    """Per-batch id counts for one feature draw: each id counts in the
    batch whose items hold its item, found one id at a time."""
    if draw.item_ids is None:
        return [draw.total_ids] * len(batches)
    counts = [0] * len(batches)
    for item in draw.item_ids.tolist():
        for b, batch in enumerate(batches):
            if batch.start_item <= item < batch.stop_item:
                counts[b] += 1
    return counts


def request_plans(
    sim: ClusterSimulation, tenant: _Tenant, request: Request
) -> dict[str, list[NetBatchPlan]]:
    """Every (net, batch) execution plan of one request, scalar."""
    batches = batch_split(sim, tenant, request)
    cm = sim.config.cost_model
    singular = tenant.plan.is_singular
    main = sim.config.main_platform
    sparse = sim.config.sparse_platform
    all_counts = {
        name: slice_counts(draw, batches) for name, draw in request.draws.items()
    }
    nb = len(batches)
    batch_range = range(nb)
    items_per_batch = [batch.items for batch in batches]

    def dense_halves(net_cfg, b):
        # The DES's dense split: the pre half, then the rest.
        dense = cm.dense_time(net_cfg, items_per_batch[b], main)
        pre = dense * cm.dense_pre_fraction
        return pre, dense - pre

    plans: dict[str, list[NetBatchPlan]] = {}
    for net_cfg in tenant.model.nets:
        net_name = net_cfg.name
        net_tables = tenant.model.tables_for_net(net_name)
        n_net_tables = len(net_tables)

        if singular:
            # Each batch's SLS gather adds tables in tables_for_net order.
            gather = [0.0] * nb
            for table in net_tables:
                counts = all_counts.get(table.name)
                if counts is None:
                    continue
                per_id = tenant.per_id_main[table.name]
                for b in batch_range:
                    if counts[b] > 0:
                        gather[b] += counts[b] * per_id
            overhead = cm.net_overhead(n_net_tables + 12)
            plans[net_name] = [
                NetBatchPlan(
                    overhead,
                    *dense_halves(net_cfg, b),
                    (),
                    cm.sls_time(n_net_tables, gather[b]),
                )
                for b in batch_range
            ]
            continue

        batch_targets: list[list[ShardLookups]] = [[] for _ in batch_range]
        # Distinct active tables per batch (the zero-fill term), counted
        # on the unsplit counts: a positive count has a positive part.
        n_names = [0] * nb
        for table in net_tables:
            counts = all_counts.get(table.name)
            if counts is None:
                continue
            for b in batch_range:
                if counts[b] > 0:
                    n_names[b] += 1
        for shard, pairs in tenant.net_routing[net_name]:
            ids = [0] * nb
            ntab = [0] * nb
            user_dims = [0] * nb
            item_dims = [0] * nb
            gather = [0.0] * nb
            has_item = [False] * nb
            for table, assignment in pairs:
                counts = all_counts.get(table.name)
                if counts is None:
                    continue
                per_id = tenant.per_id_sparse[table.name]
                is_item = table.scope is FeatureScope.ITEM
                for b in batch_range:
                    count = counts[b]
                    if count > 0 and assignment.num_parts > 1:
                        split = sim._partition_split(
                            request, table, count, assignment.num_parts
                        )
                        count = int(split[assignment.part_index])
                    if count == 0:
                        continue
                    ids[b] += count
                    ntab[b] += 1
                    gather[b] += count * per_id
                    if is_item:
                        has_item[b] = True
                        item_dims[b] += table.dim
                    else:
                        user_dims[b] += table.dim
            for b in batch_range:
                n_tables = ntab[b]
                if n_tables == 0:
                    continue
                segments = items_per_batch[b] if has_item[b] else 1
                req_bytes = rpc_request_bytes(ids[b], n_tables, segments)
                resp_bytes = rpc_response_bytes(
                    n_tables, user_dims[b], item_dims[b], items_per_batch[b]
                )
                batch_targets[b].append(ShardLookups(
                    shard,
                    cm.serde_time(req_bytes, main, n_tables, client_side=True)
                    + cm.rpc_dispatch_fixed,
                    cm.serde_time(req_bytes, sparse, n_tables),
                    cm.net_overhead(n_tables + 2),
                    cm.sls_time(n_tables, gather[b]),
                    cm.serde_time(resp_bytes, sparse, n_tables),
                    cm.serde_time(resp_bytes, main, n_tables, client_side=True),
                    wire_time(req_bytes, main),
                    wire_time(resp_bytes, sparse),
                ))
        per_batch = []
        for b in batch_range:
            targets = batch_targets[b]
            overhead = cm.net_overhead(n_net_tables + 12 + len(targets))
            overhead += cm.zero_fill_time(n_net_tables - n_names[b])
            per_batch.append(
                NetBatchPlan(overhead, *dense_halves(net_cfg, b), targets, 0.0)
            )
        plans[net_name] = per_batch
    return plans
