"""Tests for the extension subsystems: trace visualization, SLA modeling,
and the automatic sharding workflow (paper future work)."""

import numpy as np
import pytest

from repro.core.types import GIB
from repro.models import drm1, drm3
from repro.requests import RequestGenerator
from repro.planning import SlaPolicy, evaluate_sla
from repro.serving import ClusterSimulation, ServingConfig
from repro.sharding import (
    AutoShardObjective,
    STRATEGIES,
    auto_shard,
    estimate_pooling_factors,
    singular_plan,
)
from repro.tracing import render_trace


@pytest.fixture(scope="module")
def traced_request():
    model = drm1()
    request = RequestGenerator(model, seed=3).generate(0)
    pooling = estimate_pooling_factors(model, 100, seed=42)
    plan = STRATEGIES["load-bal"].build_plan(model, 4, pooling)
    sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
    sim.run_serial([request])
    return sim.tracer.for_request(0)


class TestTraceVisualization:
    def test_render_has_all_lanes(self, traced_request):
        text = render_trace(traced_request)
        assert "main request" in text
        assert "main batch 0" in text
        for shard in range(1, 5):
            assert f"sparse shard {shard}" in text

    def test_render_shows_all_layers(self, traced_request):
        text = render_trace(traced_request)
        for glyph in ("=", "#", "S", "+", "~", ".", "-"):
            assert glyph in text, glyph

    def test_lane_width_consistent(self, traced_request):
        text = render_trace(traced_request, width=60)
        lanes = [line for line in text.splitlines() if line.endswith("|")]
        widths = {len(line[line.index("|"):]) for line in lanes}
        assert widths == {62}  # 60 columns + 2 pipes

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            render_trace([])


class TestSla:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SlaPolicy(target_latency=0.0)

    def test_from_baseline_quantile(self):
        baseline = np.linspace(1.0, 2.0, 100)
        policy = SlaPolicy.from_baseline_quantile(baseline, quantile=99, slack=1.2)
        assert policy.target_latency == pytest.approx(np.percentile(baseline, 99) * 1.2)

    def test_evaluate_sla_drop_rate(self):
        latencies = np.array([1.0, 1.0, 1.0, 5.0])
        report = evaluate_sla("cfg", latencies, SlaPolicy(2.0))
        assert report.drop_rate == pytest.approx(0.25)
        assert not report.met_p99
        assert report.headroom_p50 == pytest.approx(2.0)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            evaluate_sla("cfg", [], SlaPolicy(1.0))

    def test_distributed_drops_more_under_tight_sla(self):
        """Serving-quality view of Figure 6: under a tight SLA derived from
        the singular tail, distributed configs fall back more often."""
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(60)
        pooling = estimate_pooling_factors(model, 150, seed=42)

        def latencies(plan):
            sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
            sim.run_serial(requests)
            return np.array(list(sim.completed.values()))

        base = latencies(singular_plan(model))
        dist = latencies(STRATEGIES["1-shard"].build_plan(model, 1))
        policy = SlaPolicy.from_baseline_quantile(base, quantile=90, slack=1.05)
        base_report = evaluate_sla("singular", base, policy)
        dist_report = evaluate_sla("1 shard", dist, policy)
        assert dist_report.drop_rate > base_report.drop_rate


class TestAutoShard:
    @pytest.fixture(scope="class")
    def outcome(self):
        objective = AutoShardObjective(
            shard_dram_budget=55 * GIB,
            max_p99_latency_overhead=0.35,
            shard_counts=(2, 4, 8),
            profile_requests=30,
        )
        return auto_shard(drm1(), objective, ServingConfig(seed=1))

    def test_chooses_a_plan(self, outcome):
        assert outcome.chosen is not None

    def test_capacity_budget_enforced(self, outcome):
        """2-shard plans (~97 GiB/shard) must be rejected on capacity."""
        model = drm1()
        for evaluation in outcome.evaluations:
            if evaluation.plan.num_shards == 2:
                assert not evaluation.feasible_capacity
        chosen_caps = outcome.chosen.capacity_by_shard(model)
        assert max(chosen_caps) <= 55 * GIB

    def test_prefers_fewest_shards_meeting_sla(self, outcome):
        """The heuristic minimizes shards (resource cost) subject to SLA."""
        viable = [
            e for e in outcome.evaluations if e.feasible_capacity and e.meets_sla
        ]
        assert viable
        assert outcome.chosen.num_shards == min(e.plan.num_shards for e in viable)

    def test_infeasible_budget_returns_none(self):
        objective = AutoShardObjective(
            shard_dram_budget=1 * GIB,  # nothing fits
            shard_counts=(2, 4),
            profile_requests=10,
        )
        outcome = auto_shard(drm1(), objective, ServingConfig(seed=1))
        assert outcome.chosen is None
        assert all(not e.feasible_capacity for e in outcome.evaluations)

    def test_drm3_skips_infeasible_strategies(self):
        """cap-bal/load-bal raise on the dominant table; auto-sharding must
        fall through to NSBP instead of crashing."""
        objective = AutoShardObjective(
            shard_dram_budget=80 * GIB,
            max_p99_latency_overhead=0.5,
            shard_counts=(4,),
            profile_requests=15,
        )
        outcome = auto_shard(drm3(), objective, ServingConfig(seed=1))
        assert outcome.chosen is not None
        assert outcome.chosen.strategy == "NSBP"
