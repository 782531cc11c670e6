"""The columnar plan builder == the scalar oracle, bit for bit, field by field.

``build_chunk_plans`` computes every routing slot of a (batch group,
net) in one numpy pass over padded (slot, table, request, batch) count
arrays; the evaluator and the DES both read a request's costs from its
row (the replay driver's ``_locate`` finds it).  Every row must equal
the scalar oracle (``plan_oracle.request_plans``) exactly, for every
request -- including
the requests with more batches than a worker pool has workers (their
batches queue), tables no request of a group draws (zero planes), slots
with no active table in a batch, and row-partitioned tables (DRM3 NSBP),
whose split may leave a part of a positive count empty.

The second half pins where the DES's plans come from: every replay,
under any kernel and on a bare cluster too, builds one chunk per chunk
of stream positions and reads the DES's plans from it, a second replay
on one cluster plans its own stream, and the chunk is the DES's only
cost source.  The last test pins the widest plan a chunk accepts: no
field width bounds its nets, slots or batches.
"""

import collections

import numpy as np
import pytest

from plan_oracle import PLAN_FIELDS, batch_split, request_plans, slice_counts
from test_kernel_equivalence import assert_run_identical

from repro.experiments import (
    ShardingConfiguration,
    build_plan,
    paper_configurations,
    run_configuration,
)
from repro.models import drm1, drm2, drm3
from repro.models.config import FeatureScope
from repro.requests import ReplaySchedule, RequestGenerator
from repro.requests.generator import Request, SparseFeatureDraw
from repro.serving import ServingConfig
from repro.serving import columnar
from repro.serving.columnar import _chunk_bundle
from repro.serving.simulator import ClusterSimulation
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.costmodel import CostModel, ranking_response_bytes
from repro.simulation.platform import SC_LARGE, SC_SMALL
from repro.simulation.vectorized import ChunkPlans, NetColumns, TargetColumns
from repro.tracing import Tracer
from repro.requests.generator import request_payload_bytes

FACTORIES = {"DRM1": drm1, "DRM2": drm2, "DRM3": drm3}


def _bits(values):
    """Exact float64 bit patterns (``==`` would equate 0.0 and -0.0)."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _configurations(name):
    model = FACTORIES[name]()
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    plans = [build_plan(model, c, pooling) for c in paper_configurations(name)]
    requests = RequestGenerator(model, seed=3).generate_many(48)
    return model, plans, requests


def _partitions(plan):
    """The (table name, parts) pairs a plan row-partitions."""
    return {
        (assignment.table_name, assignment.num_parts)
        for shard in plan.shards
        for assignment in shard.assignments
        if assignment.num_parts > 1
    }


def _assert_row_matches(sim, chunk, row, request, seen, label):
    """Chunk ``chunk``'s row ``row`` holds ``request``'s plans: every
    field the replay paths read, against the scalar oracle, bit for
    bit.  ``seen`` counts the queued requests and the idle slots."""
    model = sim.model
    tenant = sim.tenants[0]
    cm = sim.config.cost_model
    main = sim.config.main_platform
    scalar = request_plans(sim, tenant, request)
    nb = len(batch_split(sim, tenant, request))
    assert chunk.rids[row] == request.request_id, label
    assert chunk.nb[row] == nb, label
    seen["queued"] += nb > sim.main.workers.capacity
    assert _bits([chunk.head_deser[row], chunk.tail_ser[row]]) == _bits([
        cm.serde_time(
            request_payload_bytes(
                model, request.num_items, request.total_ids,
                len(request.draws),
            ),
            main,
            tables=len(request.draws),
        ),
        cm.serde_time(ranking_response_bytes(request.num_items), main),
    ]), label
    assert chunk.net_names == [net_cfg.name for net_cfg in model.nets], label
    for net_cfg, net in zip(model.nets, chunk.nets):
        want = scalar[net_cfg.name]
        assert _bits(net.pre[row]) == _bits(
            [p.dense_pre for p in want]
        ), label
        assert _bits(net.post[row]) == _bits(
            [p.dense_post for p in want]
        ), label
        assert _bits(net.overhead[row]) == _bits(
            [p.overhead for p in want]
        ), label
        if sim.plan.is_singular:
            assert not net.targets, label
            assert _bits(net.local[row]) == _bits(
                [p.local_work for p in want]
            ), label
            continue
        assert [target.shard for target in net.targets] == [
            shard.index for shard, _ in tenant.net_routing[net_cfg.name]
        ], label
        for target in net.targets:
            rows = target.rows[row]
            assert rows.shape == (9, nb), label
            for b, batch_plan in enumerate(want):
                lookups = [
                    t for t in batch_plan.targets
                    if t.shard.index == target.shard
                ]
                assert bool(rows[0, b]) == bool(lookups), label
                if not lookups:
                    # No replay path reads a cost of an idle slot.
                    seen["idle_slot"] += 1
                    continue
                assert _bits(rows[1:, b]) == _bits(
                    [getattr(lookups[0], f) for f in PLAN_FIELDS]
                ), label


@pytest.mark.parametrize(
    "sparse_platform", [SC_LARGE, SC_SMALL], ids=lambda p: p.name
)
@pytest.mark.parametrize("workers", [32, 2])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_chunk_columns_match_the_scalar_builder(name, workers, sparse_platform):
    """Every request of every paper configuration: the chunk's columns,
    and the row the replay driver locates for both replay paths, against
    the scalar oracle.  An SC-Small sparse tier gives the two tiers different
    clocks and NICs, so a cost charged at the other tier's rate shows."""
    model, plans, requests = _configurations(name)
    seen = {"queued": 0, "absent_table": 0, "idle_slot": 0, "empty_part": 0}
    for plan in plans:
        sim = ClusterSimulation(
            model, plan,
            ServingConfig(
                seed=1, service_workers=workers,
                sparse_platform=sparse_platform,
            ),
        )
        tenant = sim.tenants[0]
        chunk = columnar.build_chunk_plans(sim, tenant, requests)
        entries = [(None, 0, request) for request in requests]
        for row, request in enumerate(requests):
            label = (name, workers, plan.label, row)
            for table_name, parts in _partitions(plan):
                draw = request.draws.get(table_name)
                if draw is None:
                    continue
                batches = batch_split(sim, tenant, request)
                for count in slice_counts(draw, batches):
                    if count > 0:
                        split = sim._partition_split(
                            request, model.table(table_name), count, parts
                        )
                        seen["empty_part"] += bool((split == 0).any())
            _assert_row_matches(sim, chunk, row, request, seen, label)
            # The row the driver locates: a separate build of the same
            # requests, at the request's own position.
            located_chunk, located_row = sim._locate(entries, row)
            assert located_row == row, label
            _assert_row_matches(
                sim, located_chunk, located_row, request, seen, label
            )
        bundle = _chunk_bundle(
            requests, model, model.profile.batch_size, sim.config.max_batches
        )
        for _batches, _positions, _items_pb, stacks in bundle.groups:
            for stack in stacks:
                assert not stack[-1].any()  # the padding plane
                seen["absent_table"] += int(
                    (~stack[:-1].any(axis=(1, 2))).sum()
                )
    # The inputs reach every corner the numpy pass has to get right
    # (DRM3's requests all fit one batch; only its NSBP plans partition).
    assert seen["absent_table"] > 0, seen
    assert seen["idle_slot"] > 0, seen
    if name == "DRM3":
        assert seen["empty_part"] > 0, seen
    else:
        assert seen["queued"] > 0 or workers == 32, seen


#: 700 items over 8 batches: 87.5 items a batch, so the round-half-even
#: edges round one half up (88) and one down (262).
_EDGES = [0, 88, 175, 262, 350, 438, 525, 612, 700]
#: An id on the first and the last item of every batch (the request's
#: last item included), and three on item 100, in batch 1.
_ITEM_IDS = sorted(
    [*_EDGES[:-1], *(edge - 1 for edge in _EDGES[1:]), 100, 100, 100]
)
_PER_BATCH = [2, 5, 2, 2, 2, 2, 2, 2]


def _constructed_request(model, sample):
    """``sample``'s USER-scoped draws and the ids of ``_ITEM_IDS`` on
    every ITEM-scoped table, over ``_EDGES[-1]`` items."""
    draws = {
        name: draw for name, draw in sample.draws.items()
        if draw.item_ids is None
    }
    ids = np.array(_ITEM_IDS, dtype=np.int64)
    for table in model.tables:
        if table.scope is FeatureScope.ITEM:
            draws[table.name] = SparseFeatureDraw(table.name, len(ids), ids)
    return Request(10_000, 0.0, _EDGES[-1], draws)


@pytest.mark.parametrize("label", ["singular", "load-bal 8 shards"])
def test_constructed_batch_split_matches_the_scalar_builder(label):
    """A constructed DRM1 request, inside a chunk of sampled ones, whose
    ids sit on both edges of every batch: each id counts in the batch
    that holds its item, in the oracle, in the chunk's count planes and
    in every plan field."""
    model, plans, requests = _configurations("DRM1")
    plan = next(plan for plan in plans if plan.label == label)
    position = 5
    request = _constructed_request(model, requests[position])
    requests = requests[:position] + [request] + requests[position:]
    sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
    tenant = sim.tenants[0]
    batches = batch_split(sim, tenant, request)
    assert [batch.start_item for batch in batches] == _EDGES[:-1]
    for draw in request.draws.values():
        if draw.item_ids is not None:
            assert slice_counts(draw, batches) == _PER_BATCH
    bundle = _chunk_bundle(
        requests, model, model.profile.batch_size, sim.config.max_batches
    )
    nb, positions, _items_pb, stacks = next(
        group for group in bundle.groups if position in group[1]
    )
    assert nb == len(_PER_BATCH)
    row = positions.index(position)
    for net_cfg, stack in zip(model.nets, stacks):
        for plane, table in enumerate(model.tables_for_net(net_cfg.name)):
            if table.scope is FeatureScope.ITEM:
                assert stack[plane, row].tolist() == _PER_BATCH, table.name
    chunk = columnar.build_chunk_plans(sim, tenant, requests)
    seen = {"queued": 0, "idle_slot": 0}
    for row, each in enumerate(requests):
        _assert_row_matches(sim, chunk, row, each, seen, (label, row))


def _count_chunk_builds(monkeypatch, chunks=None):
    """The request count of every chunk ``build_chunk_plans`` builds
    (the chunks themselves appended to ``chunks``, if given)."""
    sizes = []
    build = columnar.build_chunk_plans

    def counted(sim, tenant, requests):
        sizes.append(len(requests))
        chunk = build(sim, tenant, requests)
        if chunks is not None:
            chunks.append(chunk)
        return chunk

    monkeypatch.setattr(columnar, "build_chunk_plans", counted)
    return sizes


def test_open_loop_des_requests_read_the_chunk(monkeypatch):
    """DRM1 open loop on the 2-worker hosts of the Fig. 16 replay: the
    DES replays most requests, and under either kernel every plan comes
    from one chunk of the whole sample -- no request is planned alone."""
    model, plans, requests = _configurations("DRM1")
    schedule = ReplaySchedule.open_loop(25.0, seed=2)
    sizes = _count_chunk_builds(monkeypatch)
    for plan in plans:
        def replay(kernel):
            serving = ServingConfig(seed=1, kernel=kernel, service_workers=2)
            del sizes[:]
            result = run_configuration(model, plan, requests, serving, schedule)
            assert sizes == [len(requests)], (plan.label, kernel)
            return result

        hybrid = replay("vectorized")
        assert hybrid.kernel_used == "vectorized", plan.label
        assert hybrid.des_requests > 0, plan.label
        batched = replay("batched")
        assert batched.des_requests == len(requests), plan.label
        assert_run_identical(batched, hybrid, plan.label)


def test_partitioned_plans_read_the_chunk(monkeypatch):
    """DRM3 NSBP splits a table across shards through keyed
    multinomials; its chunk holds the split counts, so the DES's plans
    come from it as for any other plan."""
    model = drm3()
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    plan = build_plan(model, ShardingConfiguration("NSBP", 4), pooling)
    assert _partitions(plan)
    requests = RequestGenerator(model, seed=3).generate_many(48)
    schedule = ReplaySchedule.open_loop(200.0, seed=2)
    sizes = _count_chunk_builds(monkeypatch)

    def replay(kernel):
        serving = ServingConfig(seed=1, kernel=kernel, service_workers=2)
        del sizes[:]
        result = run_configuration(model, plan, requests, serving, schedule)
        assert sizes == [len(requests)], kernel
        return result

    hybrid = replay("vectorized")
    assert hybrid.des_requests > 0
    assert_run_identical(replay("batched"), hybrid, plan.label)


@pytest.mark.parametrize("chunk_size", [1, 8])
@pytest.mark.parametrize("name", ["DRM1", "DRM3"])
def test_bare_cluster_plans_match_the_oracle(name, chunk_size, monkeypatch):
    """A bare cluster plans its replay ``CHUNK_SIZE`` positions at a
    time, as an experiment replay does: one-request chunks at size 1,
    one chunk for the stream at size 8.  Every row equals the scalar
    oracle (DRM3 includes the partitioned NSBP plans and the singular
    one)."""
    model, plans, requests = _configurations(name)
    requests = requests[:8]
    monkeypatch.setattr(columnar, "CHUNK_SIZE", chunk_size)
    chunks = []
    sizes = _count_chunk_builds(monkeypatch, chunks)
    seen = {"queued": 0, "idle_slot": 0}
    for plan in plans:
        sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
        del sizes[:]
        del chunks[:]
        sim.run_serial(requests)
        assert sizes == [chunk_size] * (len(requests) // chunk_size), plan.label
        assert sim.des_requests == len(requests), plan.label
        for position, request in enumerate(requests):
            chunk, row = divmod(position, chunk_size)
            _assert_row_matches(
                sim, chunks[chunk], row, request, seen,
                (name, plan.label, request.request_id),
            )
    assert seen["idle_slot"] > 0, seen


def test_second_replay_on_one_cluster_plans_its_own_stream(monkeypatch):
    """A replay's chunk state is its own: a second ``run_serial`` on one
    cluster plans its own requests, so each reads the chunk row and
    records the spans it does on a fresh cluster -- their times aside
    (the clock and the jitter cursor have moved on), every span and its
    CPU charge."""
    model, plans, requests = _configurations("DRM1")
    plan = next(plan for plan in plans if plan.num_shards == 4)
    first, second = requests[:8], requests[8:16]
    chunks = []
    _count_chunk_builds(monkeypatch, chunks)

    def replay(*streams):
        del chunks[:]
        sim = ClusterSimulation(
            model, plan, ServingConfig(seed=1), tracer=Tracer()
        )
        for stream in streams:
            sim.run_serial(stream)
        located = {
            rid: (chunk, row)
            for chunk in chunks
            for row, rid in enumerate(chunk.rids)
        }
        rows, spans = {}, {}
        for request in second:
            rid = request.request_id
            chunk, row = located[rid]
            rows[rid] = (
                chunk.nb[row], chunk.head_deser[row], chunk.tail_ser[row],
                chunk.listed(row),
            )
            spans[rid] = collections.Counter(
                (span.shard, span.layer, span.name, span.net, span.batch,
                 span.cpu_time)
                for span in sim.tracer.for_request(rid)
            )
        return rows, spans

    reused_rows, reused_spans = replay(first, second)
    fresh_rows, fresh_spans = replay(second)
    assert reused_rows == fresh_rows
    assert reused_spans == fresh_spans


def test_des_reads_serde_from_the_chunk(monkeypatch):
    """A batched DES replay charges the serde the chunk holds: with
    ``CostModel.serde_time`` raising outside the plan builder, a DRM1
    singular and a distributed replay still complete, with the same
    columns."""
    model, plans, requests = _configurations("DRM1")
    requests = requests[:12]
    chosen = [plan for plan in plans if plan.is_singular][:1] + [
        plan for plan in plans if not plan.is_singular
    ][:1]
    assert len(chosen) == 2
    serving = ServingConfig(seed=1, kernel="batched", service_workers=2)
    healthy = [
        run_configuration(model, plan, requests, serving) for plan in chosen
    ]

    building = [False]
    build = columnar.build_chunk_plans
    serde_time = CostModel.serde_time

    def flagged(sim, tenant, requests):
        building[0] = True
        try:
            return build(sim, tenant, requests)
        finally:
            building[0] = False

    def raising(self, *args, **kwargs):
        if not building[0]:
            raise AssertionError("the DES recomputed a serde time")
        return serde_time(self, *args, **kwargs)

    monkeypatch.setattr(columnar, "build_chunk_plans", flagged)
    monkeypatch.setattr(CostModel, "serde_time", raising)
    for plan, want in zip(chosen, healthy):
        got = run_configuration(model, plan, requests, serving)
        assert got.des_requests == len(requests), plan.label
        assert_run_identical(want, got, plan.label)


def _chunk(nets=1, slots=0, nb=1):
    columns = []
    for _ in range(nets):
        net = NetColumns()
        net.targets = [TargetColumns(0) for _ in range(slots)]
        columns.append(net)
    return ChunkPlans(
        False, [0], [nb], [0.0], [0.0], columns,
        [f"net{n}" for n in range(nets)],
    )


def test_chunk_plans_accept_any_net_slot_or_batch_count():
    """The evaluator orders its events by dispatch keys, not packed
    integer codes, and a CPU-charge record names its net, so nets, slots
    and batches have no field width: plans past the old 64-net,
    16384-slot and 32768-batch limits build."""
    _chunk(nets=65)
    _chunk(slots=16385)
    _chunk(nb=32769)
