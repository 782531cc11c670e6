"""Tests for the serving simulator: structure, queueing, determinism."""

import numpy as np
import pytest

from repro.models import drm1, drm3
from repro.requests import RequestGenerator, ReplaySchedule
from repro.serving import ClusterSimulation, ServingConfig
from repro.sharding import STRATEGIES, estimate_pooling_factors, singular_plan
from repro.tracing import Layer, MAIN_SHARD, attribute_request


@pytest.fixture(scope="module")
def model():
    return drm1()


@pytest.fixture(scope="module")
def requests(model):
    return RequestGenerator(model, seed=3).generate_many(25)


@pytest.fixture(scope="module")
def pooling(model):
    return estimate_pooling_factors(model, num_requests=200, seed=42)


def run(model, plan, requests, config=None):
    sim = ClusterSimulation(model, plan, config or ServingConfig(seed=1))
    sim.run_serial(requests)
    return sim


class TestStructure:
    def test_all_requests_complete(self, model, requests):
        sim = run(model, singular_plan(model), requests)
        assert sorted(sim.completed) == [r.request_id for r in requests]

    def test_singular_has_no_rpc_spans(self, model, requests):
        sim = run(model, singular_plan(model), requests)
        spans = sim.tracer.for_request(requests[0].request_id)
        assert not any(s.layer is Layer.RPC_CLIENT for s in spans)
        assert all(s.shard == MAIN_SHARD for s in spans)

    def test_distributed_touches_sparse_shards(self, model, requests, pooling):
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        sim = run(model, plan, requests)
        spans = sim.tracer.for_request(requests[0].request_id)
        shards_touched = {s.shard for s in spans if s.shard != MAIN_SHARD}
        assert shards_touched <= {0, 1, 2, 3}
        assert len(shards_touched) >= 2

    def test_rpc_count_matches_fanout(self, model, requests, pooling):
        """Every (batch, net, active shard) triple issues exactly one RPC."""
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        sim = run(model, plan, requests)
        for request in requests[:5]:
            spans = sim.tracer.for_request(request.request_id)
            clients = [s for s in spans if s.layer is Layer.RPC_CLIENT]
            shard_services = [
                s for s in spans if s.layer is Layer.SERVICE and s.shard != MAIN_SHARD
            ]
            assert len(clients) == len(shard_services)
            keys = {(s.batch, s.net, s.rpc_id) for s in clients}
            assert len(keys) == len(clients)

    def test_nsbp_issues_fewer_rpcs_than_load_balanced(self, model, requests, pooling):
        nsbp = run(model, STRATEGIES["NSBP"].build_plan(model, 4), requests)
        load = run(model, STRATEGIES["load-bal"].build_plan(model, 4, pooling), requests)

        def rpcs(sim):
            return sum(
                1
                for r in requests
                for s in sim.tracer.for_request(r.request_id)
                if s.layer is Layer.RPC_CLIENT
            )

        assert rpcs(nsbp) < rpcs(load)

    def test_drm3_touches_two_shards_per_request(self):
        """Paper Section VI-E1: only one partition of the dominant table
        plus the small-tables shard are accessed per inference."""
        model = drm3()
        plan = STRATEGIES["NSBP"].build_plan(model, 8)
        reqs = RequestGenerator(model, seed=3).generate_many(20)
        sim = run(model, plan, reqs)
        for request in reqs:
            spans = sim.tracer.for_request(request.request_id)
            touched = {s.shard for s in spans if s.shard != MAIN_SHARD}
            assert len(touched) == 2

    def test_batch_cap_respected(self, model):
        big = [r for r in RequestGenerator(model, seed=3).generate_many(200)
               if r.num_items > 1000]
        assert big, "need at least one tail-sized request"
        sim = run(model, singular_plan(model), big[:2])
        for request in big[:2]:
            spans = sim.tracer.for_request(request.request_id)
            batches = [s for s in spans if s.layer is Layer.BATCH]
            assert len(batches) == 8  # ServingConfig.max_batches default

    def test_single_batch_mode(self, model, requests):
        config = ServingConfig(seed=1).with_batch_size(10**9)
        sim = run(model, singular_plan(model), requests, config)
        spans = sim.tracer.for_request(requests[0].request_id)
        assert sum(1 for s in spans if s.layer is Layer.BATCH) == 1


class TestDeterminismAndOrdering:
    def test_identical_seeds_identical_latencies(self, model, requests):
        a = run(model, singular_plan(model), requests).completed
        b = run(model, singular_plan(model), requests).completed
        assert a == b

    def test_different_seed_different_latencies(self, model, requests, pooling):
        # Distributed latencies depend on sampled network jitter; singular
        # runs are deterministic functions of the request sample alone.
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        a = run(model, plan, requests).completed
        b = run(model, plan, requests, ServingConfig(seed=9)).completed
        assert a != b
        sa = run(model, singular_plan(model), requests).completed
        sb = run(model, singular_plan(model), requests, ServingConfig(seed=9)).completed
        assert sa == sb

    def test_serial_replay_never_overlaps(self, model, requests):
        """Serial blocking: request n+1 starts after request n completes."""
        sim = run(model, singular_plan(model), requests)
        windows = []
        for request in requests:
            spans = sim.tracer.for_request(request.request_id)
            service = next(
                s for s in spans if s.layer is Layer.SERVICE and s.shard == MAIN_SHARD
            )
            windows.append((service.start, service.end))
        windows.sort()
        for (_, prev_end), (next_start, _) in zip(windows, windows[1:]):
            assert next_start >= prev_end

    def test_open_loop_overlaps_under_load(self, model, requests):
        config = ServingConfig(seed=1, service_workers=2)
        sim = ClusterSimulation(model, singular_plan(model), config)
        schedule = ReplaySchedule.open_loop(qps=2000.0, seed=4)
        arrivals = schedule.arrival_times(len(requests))
        sim.run_stream(zip(arrivals, [0] * len(requests), requests))
        windows = []
        for request in requests:
            spans = sim.tracer.for_request(request.request_id)
            service = next(
                s for s in spans if s.layer is Layer.SERVICE and s.shard == MAIN_SHARD
            )
            windows.append((service.start, service.end))
        windows.sort()
        overlaps = sum(
            1 for (_, e), (s, _) in zip(windows, windows[1:]) if s < e
        )
        assert overlaps > 0


class TestLatencyPhysics:
    def test_distributed_slower_serially(self, model, requests, pooling):
        """Paper: serial blocking requests always lose with distribution."""
        base = np.median(list(run(model, singular_plan(model), requests).completed.values()))
        for strategy, shards in (("1-shard", 1), ("load-bal", 8), ("NSBP", 2)):
            plan = STRATEGIES[strategy].build_plan(model, shards, pooling)
            dist = np.median(list(run(model, plan, requests).completed.values()))
            assert dist > base

    def test_more_shards_lower_latency_overhead(self, model, requests, pooling):
        plans = {
            n: STRATEGIES["load-bal"].build_plan(model, n, pooling) for n in (2, 8)
        }
        medians = {
            n: np.median(list(run(model, plan, requests).completed.values()))
            for n, plan in plans.items()
        }
        assert medians[8] < medians[2]

    def test_network_latency_positive_everywhere(self, model, requests, pooling):
        plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
        sim = run(model, plan, requests)
        for request in requests[:10]:
            att = attribute_request(sim.tracer.for_request(request.request_id))
            assert att.embedded_stack["Network Latency"] > 0

    def test_sc_small_similar_shard_op_latency(self, model, requests, pooling):
        """Paper Figure 15: per-shard operator latencies nearly identical
        across server platforms (lookups are DRAM-latency bound)."""
        from repro.simulation.platform import SC_SMALL

        plan = STRATEGIES["load-bal"].build_plan(model, 8, pooling)
        large = run(model, plan, requests)
        small = run(
            model, plan, requests, ServingConfig(seed=1, sparse_platform=SC_SMALL)
        )

        def mean_op(sim):
            total = count = 0.0
            for r in requests:
                for s in sim.tracer.for_request(r.request_id):
                    if s.layer is Layer.OPERATOR and s.shard != MAIN_SHARD:
                        total += s.duration
                        count += 1
            return total / count

        ratio = mean_op(small) / mean_op(large)
        assert 0.9 < ratio < 1.15
