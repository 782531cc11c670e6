"""The columnar plan builder == the scalar one, bit for bit, field by field.

``build_chunk_plans`` computes every routing slot of a (batch group,
net) in one numpy pass over padded (slot, table, request, batch) count
arrays; the DES reads its per-request plans back out of those rows
(``_IdleArrivals.plans``).  Both must equal
``ClusterSimulation._request_plans`` exactly, for every request --
including the requests with more batches than a worker pool has
workers (their batches queue), tables no request of a group draws
(zero planes), and slots with no active table in a batch.

The second half pins which path builds the DES's plans: under the
default kernel an open-loop replay never calls the scalar builder, the
``batched`` oracle calls it once per request, and row-partitioned plans
keep it.
"""

import numpy as np
import pytest

from test_kernel_equivalence import assert_run_identical

from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    paper_configurations,
    run_configuration,
)
from repro.experiments.runner import suite_requests
from repro.models import drm1, drm2, drm3
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig
from repro.serving import columnar
from repro.serving.columnar import _IdleArrivals, _chunk_bundle
from repro.serving.simulator import ClusterSimulation
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.costmodel import ranking_response_bytes
from repro.requests.generator import request_payload_bytes

FACTORIES = {"DRM1": drm1, "DRM2": drm2, "DRM3": drm3}

#: _ShardLookups attributes in evaluator row order (rows 1-8).
FIELDS = columnar._PLAN_FIELDS


def _bits(values):
    """Exact float64 bit patterns (``==`` would equate 0.0 and -0.0)."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def _configurations(name):
    model = FACTORIES[name]()
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    plans = [build_plan(model, c, pooling) for c in paper_configurations(name)]
    requests = suite_requests(
        model, SuiteSettings(num_requests=48, pooling_requests=150)
    )
    return model, [p for p in plans if not columnar._has_partitions(p)], requests


def _assert_plans_equal(expected, actual, label):
    """Two (net -> per-batch plan) dicts, field by field, bit for bit."""
    assert list(expected) == list(actual), label
    for name, scalar_batches in expected.items():
        batches = actual[name]
        assert len(batches) == len(scalar_batches), (label, name)
        for b, (want, got) in enumerate(zip(scalar_batches, batches)):
            where = (label, name, b)
            assert _bits([got.overhead, got.dense_total, got.local_work]) == _bits(
                [want.overhead, want.dense_total, want.local_work]
            ), where
            assert [t.shard for t in got.targets] == [
                t.shard for t in want.targets
            ], where
            for want_t, got_t in zip(want.targets, got.targets):
                assert _bits([getattr(got_t, f) for f in FIELDS]) == _bits(
                    [getattr(want_t, f) for f in FIELDS]
                ), where


@pytest.mark.parametrize("workers", [32, 2])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_chunk_columns_match_the_scalar_builder(name, workers):
    """Every request of every non-partitioned paper configuration: the
    chunk's columns, and the DES plans read from them, against
    ``_request_plans``."""
    model, plans, requests = _configurations(name)
    seen = {"queued": 0, "absent_table": 0, "idle_slot": 0}
    for plan in plans:
        sim = ClusterSimulation(
            model, plan, ServingConfig(seed=1, service_workers=workers)
        )
        tenant = sim.tenants[0]
        chunk = columnar.build_chunk_plans(sim, tenant, requests)
        hook = _IdleArrivals(None, [0] * len(requests), requests, len(requests))
        cm = sim.config.cost_model
        main = sim.config.main_platform
        for row, request in enumerate(requests):
            label = (name, workers, plan.label, row)
            batches = sim._batches(tenant, request)
            scalar = sim._request_plans(tenant, request, batches)
            nb = len(batches)
            assert chunk.rids[row] == request.request_id, label
            assert chunk.nb[row] == nb, label
            seen["queued"] += nb > sim.main.workers.capacity
            assert _bits([chunk.head_deser[row], chunk.tail_ser[row]]) == _bits([
                cm.serde_time(
                    request_payload_bytes(model, request), main,
                    tables=len(request.draws),
                ),
                cm.serde_time(ranking_response_bytes(request.num_items), main),
            ]), label
            for net_cfg, net in zip(model.nets, chunk.nets):
                want = scalar[net_cfg.name]
                assert _bits(net.dense[row]) == _bits(
                    [p.dense_total for p in want]
                ), label
                if plan.is_singular:
                    assert _bits([net.singular_overhead]) == _bits(
                        [want[0].overhead]
                    ), label
                    assert _bits(net.local[row]) == _bits(
                        [p.local_work for p in want]
                    ), label
                    continue
                assert _bits(net.overhead[row]) == _bits(
                    [p.overhead for p in want]
                ), label
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
                            # The evaluator reads no cost of an idle slot.
                            seen["idle_slot"] += 1
                            continue
                        assert _bits(rows[1:, b]) == _bits(
                            [getattr(lookups[0], f) for f in FIELDS]
                        ), label
            _assert_plans_equal(
                scalar, hook.plans(sim, row, 0, request), label
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
    # (DRM3's requests all fit one batch, and its only distributed
    # non-partitioned plan is one shard holding every table).
    assert seen["absent_table"] > 0, seen
    if name != "DRM3":
        assert seen["idle_slot"] > 0, seen
        assert seen["queued"] > 0 or workers == 32, seen


def _count_scalar_builds(monkeypatch):
    calls = []
    scalar = ClusterSimulation._request_plans

    def counted(self, tenant, request, batches):
        calls.append(request.request_id)
        return scalar(self, tenant, request, batches)

    monkeypatch.setattr(ClusterSimulation, "_request_plans", counted)
    return calls


def test_open_loop_des_requests_read_the_chunk(monkeypatch):
    """DRM1 open loop on the 2-worker hosts of the Fig. 16 replay: the
    DES replays most requests, and none of them calls the scalar
    builder; the ``batched`` oracle calls it once per request."""
    model, plans, requests = _configurations("DRM1")
    schedule = ReplaySchedule.open_loop(25.0, seed=2)
    calls = _count_scalar_builds(monkeypatch)
    for plan in plans:
        def replay(kernel):
            serving = ServingConfig(seed=1, kernel=kernel, service_workers=2)
            return run_configuration(model, plan, requests, serving, schedule)

        del calls[:]
        hybrid = replay("vectorized")
        assert hybrid.kernel_used == "vectorized", plan.label
        assert hybrid.des_requests > 0, plan.label
        assert calls == [], plan.label
        batched = replay("batched")
        assert sorted(calls) == sorted(r.request_id for r in requests), plan.label
        assert_run_identical(batched, hybrid, plan.label)


def test_partitioned_plans_keep_the_scalar_builder(monkeypatch):
    """DRM3 NSBP splits tables across shards through keyed multinomials,
    so its chunks and the DES's plans come from ``_request_plans``."""
    model = drm3()
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    plan = build_plan(model, ShardingConfiguration("NSBP", 4), pooling)
    assert columnar._has_partitions(plan)
    requests = suite_requests(
        model, SuiteSettings(num_requests=48, pooling_requests=150)
    )
    schedule = ReplaySchedule.open_loop(200.0, seed=2)
    calls = _count_scalar_builds(monkeypatch)

    def replay(kernel):
        serving = ServingConfig(seed=1, kernel=kernel, service_workers=2)
        return run_configuration(model, plan, requests, serving, schedule)

    hybrid = replay("vectorized")
    assert hybrid.des_requests > 0
    assert calls
    assert_run_identical(replay("batched"), hybrid, plan.label)
