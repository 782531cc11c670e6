"""Cross-subsystem property tests (hypothesis-driven invariants).

These tie subsystems together: any strategy's plan must survive
serialization, partition numerics, and simulation; analysis identities
must hold for arbitrary samples; the batch split the replay paths read
must cover every item exactly once for any request size.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from span_oracle import assert_matches_oracle, oracle_configuration

from repro.analysis import overhead_vs_baseline, quantile
from repro.models import drm1, drm2, drm3
from repro.requests import RequestGenerator
from repro.requests.generator import Request
from repro.serving import ServingConfig
from repro.serving.columnar import _ChunkBundle
from repro.sharding import (
    STRATEGIES,
    ShardingError,
    dump_plan,
    estimate_pooling_factors,
    load_plan,
)


@pytest.fixture(scope="module")
def models():
    return {"DRM1": drm1(), "DRM2": drm2(), "DRM3": drm3()}


@pytest.fixture(scope="module")
def poolings(models):
    return {
        name: estimate_pooling_factors(model, 120, seed=42)
        for name, model in models.items()
    }


class TestPlanProperties:
    @given(
        model_name=st.sampled_from(["DRM1", "DRM2"]),
        strategy=st.sampled_from(["cap-bal", "load-bal", "NSBP"]),
        num_shards=st.sampled_from([2, 3, 4, 6, 8, 12]),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_plan_serializes_and_validates(
        self, models, poolings, model_name, strategy, num_shards
    ):
        model = models[model_name]
        try:
            plan = STRATEGIES[strategy].build_plan(
                model, num_shards, poolings[model_name]
            )
        except ShardingError:
            return  # infeasible combination is a legal outcome
        restored = load_plan(dump_plan(plan), model)  # validates on load
        assert restored.num_shards == plan.num_shards
        # Capacity is conserved through serialization.
        assert sum(restored.capacity_by_shard(model)) == pytest.approx(
            model.sparse_bytes, rel=1e-6
        )

    @given(num_shards=st.sampled_from([2, 4, 6, 8, 10]))
    @settings(max_examples=5, deadline=None)
    def test_nsbp_never_mixes_nets_property(self, models, num_shards):
        model = models["DRM2"]
        plan = STRATEGIES["NSBP"].build_plan(model, num_shards)
        for shard in plan.shards:
            assert len(shard.nets_present(model)) == 1

    def test_strategies_cover_capacity_exactly(self, models, poolings):
        for name, model in models.items():
            for strategy in ("cap-bal", "load-bal", "NSBP"):
                try:
                    plan = STRATEGIES[strategy].build_plan(model, 4, poolings[name])
                except ShardingError:
                    continue
                assert sum(plan.capacity_by_shard(model)) == pytest.approx(
                    model.sparse_bytes, rel=1e-6
                )


class TestBatchingProperties:
    """The batch split both replay paths read: the chunk bundle's
    ``items_pb`` (Section VI-F)."""

    @staticmethod
    def _items_per_batch(items, batch_size, cap):
        model = drm3()
        requests = [
            Request(request_id=i, timestamp=0.0, num_items=n, draws={})
            for i, n in enumerate(items)
        ]
        bundle = _ChunkBundle(requests, model, batch_size, cap)
        sizes = {}
        for batches, positions, items_pb, _stacks in bundle.groups:
            assert items_pb.shape == (len(positions), batches)
            for position, row in zip(positions, items_pb.tolist()):
                assert position not in sizes
                sizes[position] = row
        assert sorted(sizes) == list(range(len(items)))
        return [sizes[position] for position in range(len(items))]

    @given(items=st.lists(st.integers(1, 5000), min_size=1, max_size=6),
           batch_size=st.sampled_from([8, 72, 512]), cap=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_batches_partition_items_exactly(self, items, batch_size, cap):
        for num_items, sizes in zip(
            items, self._items_per_batch(items, batch_size, cap)
        ):
            assert len(sizes) == min(-(-num_items // batch_size), cap)
            assert len(sizes) <= cap
            assert all(size > 0 for size in sizes)
            assert sum(sizes) == num_items
            assert max(sizes) - min(sizes) <= 1

    def test_batch_sizes_balanced(self):
        [sizes] = self._items_per_batch([1000], drm3().profile.batch_size, 8)
        assert len(sizes) == 8
        assert max(sizes) - min(sizes) <= 1


class TestAnalysisIdentities:
    @given(
        seed=st.integers(0, 1000),
        q=st.sampled_from([50, 90, 99]),
        scale=st.floats(0.5, 3.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_overhead_identity_under_scaling(self, seed, q, scale):
        """overhead(scale * x, x) == scale - 1 for any sample and quantile."""
        rng = np.random.default_rng(seed)
        baseline = rng.lognormal(0, 0.5, size=100)
        assert overhead_vs_baseline(scale * baseline, baseline, q) == pytest.approx(
            scale - 1.0, rel=1e-9
        )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_quantiles_monotone(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=50)
        values = [quantile(samples, q) for q in (1, 25, 50, 75, 99)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


class TestEndToEndDeterminism:
    def test_full_pipeline_reproducible(self, models, poolings):
        """model -> plan -> requests -> simulation -> attribution is a pure
        function of seeds, twice over."""
        from repro.experiments.runner import run_configuration

        model = models["DRM1"]
        plan = STRATEGIES["load-bal"].build_plan(model, 4, poolings["DRM1"])
        requests = RequestGenerator(model, seed=3).generate_many(10)

        def run_once():
            return run_configuration(model, plan, requests, ServingConfig(seed=1))

        first, second = run_once(), run_once()
        assert first.e2e.tolist() == second.e2e.tolist()
        assert first.cpu.tolist() == second.cpu.tolist()
        # ...and the columns are the span attribution of the same replay.
        assert_matches_oracle(
            first, oracle_configuration(model, plan, requests, ServingConfig(seed=1))
        )

    def test_request_sample_independent_of_plan(self, models, poolings):
        """Plans must not perturb the request stream (same draws seen)."""
        model = models["DRM2"]
        requests_a = RequestGenerator(model, seed=5).generate_many(10)
        requests_b = RequestGenerator(model, seed=5).generate_many(10)
        for a, b in zip(requests_a, requests_b):
            assert a.num_items == b.num_items
            assert set(a.draws) == set(b.draws)
