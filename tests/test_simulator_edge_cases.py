"""Edge-case and failure-injection tests for the serving simulator."""

import dataclasses

import numpy as np
import pytest

from repro.models import drm1, drm3
from repro.models.config import (
    FeatureScope,
    ModelConfig,
    NetConfig,
    RequestProfile,
    TableConfig,
)
from repro.requests import ReplaySchedule, RequestGenerator
from repro.requests.generator import Request
from repro.serving import ClusterSimulation, ServingConfig
from repro.sharding import STRATEGIES, ShardingError, singular_plan
from repro.sharding.plan import ShardingPlan, ShardSpec, TableAssignment
from repro.tracing import Layer, MAIN_SHARD, attribute_request


def minimal_model(activation=1.0):
    """A one-net, two-table model for boundary testing."""
    return ModelConfig(
        name="MINI",
        nets=(NetConfig("net1", dense_us_per_item=1.0, dense_us_fixed=20.0),),
        tables=(
            TableConfig(
                "mini_a", "net1", 1000, 16,
                scope=FeatureScope.USER, activation_prob=activation, mean_ids=3,
            ),
            TableConfig(
                "mini_b", "net1", 1000, 16,
                scope=FeatureScope.ITEM, activation_prob=activation * 0.5, mean_ids=0.2,
            ),
        ),
        profile=RequestProfile(median_items=8, sigma_items=0.3, batch_size=16),
    )


class TestBoundaryModels:
    def test_single_item_requests(self):
        model = minimal_model()
        requests = [
            dataclasses.replace(r, num_items=1)
            for r in RequestGenerator(model, seed=1).generate_many(5)
        ]
        # ITEM draws carry per-item arrays sized to the original item
        # count; regenerate cleanly instead.
        requests = [
            Request(r.request_id, r.timestamp, 1, {}) for r in requests
        ]
        sim = ClusterSimulation(model, singular_plan(model), ServingConfig(seed=1))
        sim.run_serial(requests)
        assert len(sim.completed) == 5

    def test_request_with_no_sparse_features(self):
        """A fully-dense request must still serve (and issue no RPCs)."""
        model = minimal_model(activation=0.0)
        generator = RequestGenerator(model, seed=1)
        requests = generator.generate_many(5)
        assert all(not r.draws for r in requests)
        plan = STRATEGIES["1-shard"].build_plan(model, 1)
        sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
        sim.run_serial(requests)
        for request in requests:
            att = attribute_request(sim.tracer.pop_request(request.request_id))
            assert att.rpcs == 0
            assert att.e2e > 0

    def test_single_worker_serializes_batches(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(5)
        fat = [r for r in requests if r.num_items > 200]
        assert fat
        config = ServingConfig(seed=1, service_workers=1)
        sim = ClusterSimulation(model, singular_plan(model), config)
        sim.run_serial(fat)
        spans = sim.tracer.for_request(fat[0].request_id)
        # Batch spans include worker-queue wait and may overlap, but
        # operator execution holds the single worker: op windows must be
        # strictly serialized.
        ops = sorted(
            ((s.start, s.end) for s in spans if s.layer is Layer.OPERATOR)
        )
        for (_, prev_end), (next_start, _) in zip(ops, ops[1:]):
            assert next_start >= prev_end - 1e-12

    def test_extreme_clock_skew_does_not_break_simulation(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(5)
        pooling = {t.name: 1.0 for t in model.tables}
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        config = ServingConfig(seed=1, clock_skew_sigma=10.0)  # +/- tens of s
        sim = ClusterSimulation(model, plan, config)
        sim.run_serial(requests)
        for request in requests:
            att = attribute_request(sim.tracer.pop_request(request.request_id))
            assert 0 < att.e2e < 1.0  # attribution unaffected by skew

    def test_overload_storm_completes(self):
        """Open-loop far beyond capacity must still drain (no deadlock)."""
        model = drm3()
        requests = RequestGenerator(model, seed=3).generate_many(40)
        config = ServingConfig(seed=1, service_workers=1)
        sim = ClusterSimulation(model, singular_plan(model), config)
        arrivals = ReplaySchedule.open_loop(qps=50_000.0, seed=2).arrival_times(40)
        sim.run_stream(zip(arrivals, [0] * 40, requests))
        assert len(sim.completed) == 40
        latencies = np.array(list(sim.completed.values()))
        # The backlog drains in arrival order: late arrivals queue behind
        # the storm while the earliest request sails through.
        assert latencies.max() > 3 * latencies.min()

    def test_mismatched_plan_rejected(self):
        model = drm1()
        other = minimal_model()
        plan = STRATEGIES["1-shard"].build_plan(other, 1)
        with pytest.raises(ShardingError):
            ClusterSimulation(model, plan, ServingConfig(seed=1))

    def test_partitioned_table_ids_split_conserved(self):
        """Multinomial id routing conserves the total lookup count."""
        model = drm3()
        plan = STRATEGIES["NSBP"].build_plan(model, 8)
        sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
        request = RequestGenerator(model, seed=3).generate(0)
        dominant = max(model.tables, key=lambda t: t.nbytes)
        parts = plan.assignments_for_table(dominant.name)
        split = sim._partition_split(
            request, dominant, 17, parts[0].num_parts
        )
        assert split.sum() == 17
        again = sim._partition_split(request, dominant, 17, parts[0].num_parts)
        np.testing.assert_array_equal(split, again)  # deterministic


class TestTracerVolume:
    def test_incremental_pop_keeps_memory_flat(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(20)
        pooling = {t.name: 1.0 for t in model.tables}
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
        popped = []
        sim.on_complete = lambda rid: popped.append(
            len(sim.tracer.pop_request(rid))
        )
        sim.run_serial(requests)
        assert len(popped) == 20
        assert all(count > 0 for count in popped)
        assert sim.tracer.request_ids() == []  # nothing retained

    def test_span_count_scales_with_fanout(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(5)
        pooling = {t.name: 1.0 for t in model.tables}

        def spans_for(plan):
            sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
            sim.run_serial(requests)
            return sim.tracer.spans_recorded

        single = spans_for(STRATEGIES["1-shard"].build_plan(model, 1))
        eight = spans_for(STRATEGIES["load-bal"].build_plan(model, 8, pooling))
        assert eight > 2 * single
