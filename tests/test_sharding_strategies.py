"""Tests for sharding plans, strategies, and pooling estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import GIB
from repro.models import drm1, drm2, drm3
from repro.models.config import ModelConfig
from repro.sharding import (
    STRATEGIES,
    ShardingError,
    ShardingPlan,
    ShardSpec,
    TableAssignment,
    estimate_pooling_factors,
    pooling_by_shard,
    singular_plan,
)
from repro.sharding.strategies import NetSpecificBinPacking


@pytest.fixture(scope="module")
def model_drm1():
    return drm1()


@pytest.fixture(scope="module")
def pooling_drm1(model_drm1):
    return estimate_pooling_factors(model_drm1, num_requests=300, seed=42)


class TestPlanValidation:
    def test_singular_plan_valid(self, model_drm1):
        plan = singular_plan(model_drm1)
        plan.validate(model_drm1)
        assert plan.is_singular and plan.num_shards == 0
        assert plan.label == "singular"

    def test_missing_table_rejected(self, model_drm1):
        names = [t.name for t in model_drm1.tables][:-1]  # drop one
        plan = ShardingPlan(
            "DRM1", "test", [ShardSpec(0, [TableAssignment(n, 0) for n in names])]
        )
        with pytest.raises(ShardingError, match="unassigned"):
            plan.validate(model_drm1)

    def test_duplicate_table_rejected(self, model_drm1):
        names = [t.name for t in model_drm1.tables]
        assignments = [TableAssignment(n, 0) for n in names]
        assignments.append(TableAssignment(names[0], 0))
        plan = ShardingPlan("DRM1", "test", [ShardSpec(0, assignments)])
        with pytest.raises(ShardingError):
            plan.validate(model_drm1)

    def test_incomplete_partition_rejected(self, model_drm1):
        names = [t.name for t in model_drm1.tables]
        assignments = [TableAssignment(n, 0) for n in names[1:]]
        assignments.append(TableAssignment(names[0], 0, part_index=0, num_parts=3))
        plan = ShardingPlan("DRM1", "test", [ShardSpec(0, assignments)])
        with pytest.raises(ShardingError, match="partitions"):
            plan.validate(model_drm1)

    def test_empty_shard_rejected(self, model_drm1):
        names = [t.name for t in model_drm1.tables]
        plan = ShardingPlan(
            "DRM1",
            "test",
            [ShardSpec(0, [TableAssignment(n, 0) for n in names]), ShardSpec(1, [])],
        )
        with pytest.raises(ShardingError, match="empty"):
            plan.validate(model_drm1)

    def test_bad_partition_index_rejected(self):
        with pytest.raises(ShardingError):
            TableAssignment("t", 0, part_index=2, num_parts=2)


class TestOneShard:
    def test_all_tables_on_one_shard(self, model_drm1):
        plan = STRATEGIES["1-shard"].build_plan(model_drm1, 1)
        assert plan.num_shards == 1
        assert len(plan.shards[0].assignments) == len(model_drm1.tables)
        assert plan.label == "1 shard"

    def test_rejects_other_counts(self, model_drm1):
        with pytest.raises(ShardingError):
            STRATEGIES["1-shard"].build_plan(model_drm1, 2)


class TestCapacityBalanced:
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_capacity_within_tolerance(self, model_drm1, num_shards):
        plan = STRATEGIES["cap-bal"].build_plan(model_drm1, num_shards)
        capacities = plan.capacity_by_shard(model_drm1)
        mean = np.mean(capacities)
        # LPT on 257 tables balances tightly.
        assert max(capacities) / min(capacities) < 1.15
        assert sum(capacities) == pytest.approx(model_drm1.sparse_bytes, rel=1e-6)
        assert mean == pytest.approx(model_drm1.sparse_bytes / num_shards, rel=1e-6)

    def test_rejects_dominant_table_model(self):
        # Paper: DRM3 is only sharded with NSBP because its 178.8 GB table
        # cannot be balanced without row partitioning.
        with pytest.raises(ShardingError, match="row partitioning"):
            STRATEGIES["cap-bal"].build_plan(drm3(), 4)

    def test_load_imbalance_documented(self, model_drm1, pooling_drm1):
        """Capacity balance leaves large pooling imbalance (Table II: up to
        371% between shards in the 8-shard configuration)."""
        plan = STRATEGIES["cap-bal"].build_plan(model_drm1, 8)
        loads = pooling_by_shard(plan.shards, pooling_drm1)
        assert max(loads) / min(loads) > 1.5


class TestLoadBalanced:
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_pooling_within_tolerance(self, model_drm1, pooling_drm1, num_shards):
        plan = STRATEGIES["load-bal"].build_plan(model_drm1, num_shards, pooling_drm1)
        loads = pooling_by_shard(plan.shards, pooling_drm1)
        assert max(loads) / min(loads) < 1.1

    def test_capacity_varies(self, model_drm1, pooling_drm1):
        """Load balance trades capacity balance (paper: up to 50% variance)."""
        plan = STRATEGIES["load-bal"].build_plan(model_drm1, 8, pooling_drm1)
        capacities = plan.capacity_by_shard(model_drm1)
        assert max(capacities) / min(capacities) > 1.1

    def test_requires_pooling(self, model_drm1):
        with pytest.raises(ShardingError, match="pooling"):
            STRATEGIES["load-bal"].build_plan(model_drm1, 2)

    def test_missing_table_pooling_rejected(self, model_drm1):
        with pytest.raises(ShardingError):
            STRATEGIES["load-bal"].build_plan(model_drm1, 2, {"not_a_table": 1.0})


class TestNSBP:
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_shards_never_mix_nets(self, model_drm1, num_shards):
        plan = STRATEGIES["NSBP"].build_plan(model_drm1, num_shards)
        assert plan.num_shards == num_shards
        for shard in plan.shards:
            assert len(shard.nets_present(model_drm1)) == 1

    def test_two_shards_one_per_net(self, model_drm1):
        """Table II: NSBP-2 puts net1 (33.58 GiB) and net2 (160.47 GiB) on
        their own shards; net2's shard holds ~4.75x the capacity."""
        plan = STRATEGIES["NSBP"].build_plan(model_drm1, 2)
        capacities = plan.capacity_by_shard(model_drm1)
        ratio = max(capacities) / min(capacities)
        assert ratio == pytest.approx(4.75, rel=0.05)

    def test_two_shard_pooling_skew(self, model_drm1, pooling_drm1):
        """Table II: the big (net2) shard does ~6.3% of net1's work."""
        plan = STRATEGIES["NSBP"].build_plan(model_drm1, 2)
        loads = pooling_by_shard(plan.shards, pooling_drm1)
        assert min(loads) / max(loads) == pytest.approx(0.063, rel=0.35)

    def test_drm3_partitions_dominant_table(self):
        model = drm3()
        plan = STRATEGIES["NSBP"].build_plan(model, 8)
        dominant = max(model.tables, key=lambda t: t.nbytes)
        partition_shards = [
            s
            for s in plan.shards
            if any(a.table_name == dominant.name for a in s.assignments)
        ]
        # Paper Fig. 11a: shard 1 holds all small tables; the dominant table
        # is split across the remaining 7 shards.
        assert len(partition_shards) == 7
        others = [s for s in plan.shards if s not in partition_shards]
        assert len(others) == 1

    def test_drm3_four_shards(self):
        plan = STRATEGIES["NSBP"].build_plan(drm3(), 4)
        assert plan.num_shards == 4

    def test_requires_shard_per_net(self, model_drm1):
        with pytest.raises(ShardingError):
            STRATEGIES["NSBP"].build_plan(model_drm1, 1)

    @pytest.mark.parametrize("model_factory", [drm1, drm2, drm3])
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_search_stops_at_its_fixed_point(
        self, model_factory, num_shards, monkeypatch
    ):
        """The bisection stops once a step leaves its bracket unchanged;
        limit and plan equal those of the full 200-step loop."""
        model = model_factory()
        calls = []
        pack = NetSpecificBinPacking._pack

        def counting_pack(model, limit):
            calls.append(limit)
            return pack(model, limit)

        expected = _outcome(_FullBisectionNSBP(), model, num_shards)
        assert _outcome(NetSpecificBinPacking(), model, num_shards) == expected
        monkeypatch.setattr(NetSpecificBinPacking, "_pack", staticmethod(counting_pack))
        NetSpecificBinPacking()._search_limit(model, num_shards)
        assert len(calls) <= 60  # 55-57 on these models, 201 without the exit


def _outcome(strategy, model, num_shards):
    """(limit, plan) of an NSBP search, or its error message."""
    try:
        return strategy._search_limit(model, num_shards), strategy.build_plan(
            model, num_shards
        )
    except ShardingError as error:
        return str(error)


class _FullBisectionNSBP(NetSpecificBinPacking):
    """The limit search with no early exit: always 200 bisection steps."""

    def _search_limit(self, model: ModelConfig, num_shards: int) -> float:
        total = sum(t.nbytes for t in model.tables)
        lo, hi = total / (4 * num_shards), total * 1.01

        def count(limit: float) -> int:
            return len(self._pack(model, limit))

        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if count(mid) > num_shards:
                lo = mid
            else:
                hi = mid
        if count(hi) == num_shards:
            return hi
        for factor in [1.0 + k * 0.002 for k in range(-150, 151)]:
            limit = hi * factor
            if limit > 0 and count(limit) == num_shards:
                return limit
        raise ShardingError(
            f"NSBP: no size limit yields exactly {num_shards} shards for {model.name}"
        )


class TestPoolingEstimator:
    def test_covers_all_tables(self, model_drm1, pooling_drm1):
        assert set(pooling_drm1) == {t.name for t in model_drm1.tables}

    def test_deterministic(self, model_drm1):
        a = estimate_pooling_factors(model_drm1, num_requests=50, seed=1)
        b = estimate_pooling_factors(model_drm1, num_requests=50, seed=1)
        assert a == b

    def test_net1_dominates_net2(self, model_drm1, pooling_drm1):
        per_net = {"net1": 0.0, "net2": 0.0}
        for table in model_drm1.tables:
            per_net[table.net] += pooling_drm1[table.name]
        assert per_net["net1"] > 10 * per_net["net2"]

    def test_scales_with_request_count(self, model_drm1):
        small = sum(estimate_pooling_factors(model_drm1, 50, seed=1).values())
        large = sum(estimate_pooling_factors(model_drm1, 200, seed=1).values())
        assert large == pytest.approx(4 * small, rel=0.3)

    def test_rejects_zero_requests(self, model_drm1):
        with pytest.raises(ValueError):
            estimate_pooling_factors(model_drm1, num_requests=0)


class TestAllStrategiesProduceValidPlans:
    @pytest.mark.parametrize("strategy_name", ["cap-bal", "load-bal", "NSBP"])
    @pytest.mark.parametrize("num_shards", [2, 4, 8])
    def test_plan_valid_for_drm1_drm2(
        self, strategy_name, num_shards, model_drm1, pooling_drm1
    ):
        plan = STRATEGIES[strategy_name].build_plan(
            model_drm1, num_shards, pooling_drm1
        )
        plan.validate(model_drm1)  # would raise on any coverage violation
        assert plan.num_shards == num_shards

    @given(num_shards=st.integers(2, 12))
    @settings(max_examples=11, deadline=None)
    def test_capacity_balanced_property(self, num_shards):
        model = drm2()
        plan = STRATEGIES["cap-bal"].build_plan(model, num_shards)
        plan.validate(model)
        capacities = plan.capacity_by_shard(model)
        assert sum(capacities) == pytest.approx(model.sparse_bytes, rel=1e-6)
        assert max(capacities) <= 1.5 * model.sparse_bytes / num_shards
