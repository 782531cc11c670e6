"""Tests for plan serialization and the paging-from-disk model."""

import dataclasses

import pytest

from repro.core.types import US
from repro.models import drm1, drm3
from repro.requests import RequestGenerator
from repro.requests.access_trace import collect_access_trace
from repro.serving.paging import (
    PagingAssessment,
    SsdSpec,
    assess_paging,
    paging_vs_distributed_stall,
)
from repro.sharding import STRATEGIES, estimate_pooling_factors
from repro.sharding.serialization import (
    SerializationError,
    dump_plan,
    load_plan,
    plan_to_dict,
)


@pytest.fixture(scope="module")
def model():
    return drm1()


@pytest.fixture(scope="module")
def plan(model):
    pooling = estimate_pooling_factors(model, 150, seed=42)
    return STRATEGIES["load-bal"].build_plan(model, 4, pooling)


class TestPlanSerialization:
    def test_round_trip(self, model, plan):
        restored = load_plan(dump_plan(plan), model)
        assert restored.model_name == plan.model_name
        assert restored.strategy == plan.strategy
        assert restored.num_shards == plan.num_shards
        for original, loaded in zip(plan.shards, restored.shards):
            assert original.assignments == loaded.assignments

    def test_round_trip_with_partitions(self):
        model = drm3()
        plan = STRATEGIES["NSBP"].build_plan(model, 8)
        restored = load_plan(dump_plan(plan), model)
        dominant = max(model.tables, key=lambda t: t.nbytes)
        assert len(restored.assignments_for_table(dominant.name)) > 1

    def test_validation_on_load(self, model, plan):
        payload = plan_to_dict(plan)
        payload["shards"][0]["assignments"].pop()  # drop one table
        import json

        with pytest.raises(Exception):
            load_plan(json.dumps(payload), model)

    def test_wrong_model_rejected(self, plan):
        with pytest.raises(SerializationError, match="built for"):
            load_plan(dump_plan(plan), drm3())

    def test_wrong_kind_rejected(self, model):
        with pytest.raises(SerializationError, match="kind"):
            load_plan('{"kind": "nope", "version": 1}', model)

    def test_wrong_version_rejected(self, model):
        with pytest.raises(SerializationError, match="version"):
            load_plan('{"kind": "sharding-plan", "version": 99}', model)

    def test_load_without_model_skips_validation(self, plan):
        restored = load_plan(dump_plan(plan))
        assert restored.num_shards == plan.num_shards


class TestPaging:
    @pytest.fixture(scope="class")
    def trace(self, model):
        requests = RequestGenerator(model, seed=3).generate_many(150)
        return collect_access_trace(model, requests, seed=7)

    def test_more_coverage_fewer_stalls(self, model, trace):
        small = assess_paging(model, trace, resident_coverage=0.05)
        large = assess_paging(model, trace, resident_coverage=0.5)
        assert large.hit_rate > small.hit_rate
        assert large.expected_stall_per_request < small.expected_stall_per_request

    def test_full_coverage_zero_stall(self, model, trace):
        assessment = assess_paging(model, trace, resident_coverage=1.0)
        assert assessment.hit_rate == pytest.approx(1.0)
        assert assessment.expected_stall_per_request == pytest.approx(0.0)

    def test_skew_makes_small_caches_effective(self, model, trace):
        """The Bandana effect at model level: 10% of the working set
        captures a disproportionate share of accesses.  (Model-level rates
        sit below hot-table rates because cold tables' working sets are
        all singletons.)"""
        assessment = assess_paging(model, trace, resident_coverage=0.10)
        assert assessment.hit_rate > 0.40

    def test_stall_scales_with_ssd_latency(self, model, trace):
        slow = assess_paging(model, trace, 0.2, SsdSpec(read_latency=200 * US))
        fast = assess_paging(model, trace, 0.2, SsdSpec(read_latency=50 * US))
        assert slow.expected_stall_per_request == pytest.approx(
            4 * fast.expected_stall_per_request, rel=1e-6
        )

    def test_invalid_coverage_rejected(self, model, trace):
        with pytest.raises(ValueError):
            assess_paging(model, trace, resident_coverage=0.0)

    def test_comparison_ratio(self, model, trace):
        assessment = assess_paging(model, trace, resident_coverage=0.2)
        ratio = paging_vs_distributed_stall(assessment, 300e-6)
        assert ratio == pytest.approx(
            assessment.expected_stall_per_request / 300e-6
        )
        with pytest.raises(ValueError):
            paging_vs_distributed_stall(assessment, 0.0)
