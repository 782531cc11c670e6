"""Tests for the repro.planning package: per-shard columnar demand, the
closed-loop CapacityPlanner, and SLA/elasticity validation."""

import importlib

import numpy as np
import pytest
from span_oracle import oracle_configuration

from repro.cli import main
from repro.experiments import (
    RunResult,
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    paper_configurations,
    run_mix_suite,
    run_suite,
)
from repro.models import drm1, drm2
from repro.planning import (
    CandidateSpace,
    CapacityPlanner,
    ElasticityReport,
    NoFeasiblePlanError,
    PerShardDemandError,
    PlanningError,
    ReplicationDemand,
    SlaPolicy,
    assess_elasticity,
    diurnal_qps_curve,
    plan_replication,
)
from repro.requests import RequestGenerator
from repro.serving import ServingConfig, TraceMode
from repro.sharding import estimate_pooling_factors, singular_plan
from repro.workloads import (
    PiecewiseRateArrivals,
    PoissonArrivals,
    SerialArrivals,
    Workload,
    WorkloadMix,
)

SETTINGS = SuiteSettings(
    num_requests=25, pooling_requests=100, serving=ServingConfig(seed=1)
)
AGGREGATE_SETTINGS = SuiteSettings(
    num_requests=25,
    pooling_requests=100,
    serving=ServingConfig(seed=1),
    trace_mode=TraceMode.AGGREGATE,
)


def small_mix() -> WorkloadMix:
    return WorkloadMix(
        (
            Workload(
                "drm1-diurnal", drm1(),
                PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
            ),
            Workload(
                "drm2-diurnal", drm2(),
                PiecewiseRateArrivals.diurnal(30.0, trough_fraction=0.5, seed=8),
                request_seed=4,
            ),
        )
    )


SMALL_SPACE = CandidateSpace(
    configurations=(
        ShardingConfiguration("singular"),
        ShardingConfiguration("load-bal", 4),
        ShardingConfiguration("NSBP", 8),
    )
)


@pytest.fixture(scope="module")
def suite_pair():
    """The DRM1 paper sweep in both trace modes (shared across tests)."""
    model = drm1()
    return model, run_suite(model, SETTINGS), run_suite(model, AGGREGATE_SETTINGS)


class TestPerShardColumns:
    def test_full_equals_aggregate_bitwise(self, suite_pair):
        _, full, aggregate = suite_pair
        for label in full:
            assert (
                full[label].mean_cpu_by_shard()
                == aggregate[label].mean_cpu_by_shard()
            ), label
            assert (
                full[label].mean_per_shard_op_time()
                == aggregate[label].mean_per_shard_op_time()
            ), label

    def test_matches_historical_attribution_accumulation(self, suite_pair):
        """The columnar means reproduce the per-attribution Python-loop
        accumulation bit-for-bit (sequential sums, exact +0.0 padding)."""
        model, full, _ = suite_pair
        requests = RequestGenerator(
            model, seed=SETTINGS.request_seed
        ).generate_many(SETTINGS.num_requests)
        pooling = estimate_pooling_factors(model, num_requests=100, seed=42)
        for configuration in paper_configurations(model.name):
            plan = build_plan(model, configuration, pooling)
            result = full[plan.label]
            rows, _ = oracle_configuration(model, plan, requests, SETTINGS.serving)
            cpu_totals: dict[int, float] = {}
            op_totals: dict[int, float] = {}
            for attribution, _ in rows:
                for shard, value in attribution.per_shard_cpu.items():
                    cpu_totals[shard] = cpu_totals.get(shard, 0.0) + value
                for shard, value in attribution.per_shard_op_time.items():
                    op_totals[shard] = op_totals.get(shard, 0.0) + value
            count = len(rows)
            label = plan.label
            assert result.mean_cpu_by_shard() == {
                shard: total / count for shard, total in sorted(cpu_totals.items())
            }, label
            assert result.mean_per_shard_op_time() == {
                shard: total / count for shard, total in sorted(op_totals.items())
            }, label

    def test_per_workload_demand_partitions_the_mix(self):
        """Each tenant's label-column demand is its own; the mix-wide mean
        is the request-count-weighted combination."""
        mix = small_mix()
        results = run_mix_suite(
            mix, SETTINGS, (ShardingConfiguration("load-bal", 4),)
        )
        result = results["load-bal 4 shards"]
        per_tenant = {
            name: result.mean_cpu_by_shard(workload=name) for name in mix.labels()
        }
        counts = {
            name: int(np.count_nonzero(result.workload_mask(name)))
            for name in mix.labels()
        }
        combined = result.mean_cpu_by_shard()
        for shard, value in combined.items():
            weighted = sum(
                per_tenant[name].get(shard, 0.0) * counts[name]
                for name in mix.labels()
            ) / len(result)
            assert weighted == pytest.approx(value, rel=1e-12), shard

    def test_empty_result_has_no_demand(self):
        model = drm1()
        empty = RunResult(model.name, "singular", singular_plan(model))
        assert empty.mean_cpu_by_shard() == {}
        assert empty.mean_per_shard_op_time() == {}

    def test_unknown_workload_label_rejected(self, suite_pair):
        _, full, _ = suite_pair
        with pytest.raises(ValueError):
            full["singular"].mean_cpu_by_shard(workload="nope")


class TestPlanReplication:
    def test_full_and_aggregate_plans_identical(self, suite_pair):
        """The latent AGGREGATE bug, fixed: plans no longer silently size
        to one replica without attributions."""
        model, full, aggregate = suite_pair
        demand = ReplicationDemand(qps=20000.0)
        for label in full:
            assert plan_replication(
                model, full[label], demand
            ) == plan_replication(model, aggregate[label], demand), label

    def test_aggregate_distributed_plan_actually_replicates(self, suite_pair):
        """Regression: before the columnar demand, AGGREGATE results sized
        every tier to exactly one replica."""
        model, _, aggregate = suite_pair
        plan = plan_replication(
            model, aggregate["load-bal 8 shards"], ReplicationDemand(qps=50000.0)
        )
        assert plan.main_replicas > 1

    def test_unavailable_demand_raises_clearly(self):
        model = drm1()
        empty = RunResult(model.name, "singular", singular_plan(model))
        with pytest.raises(PerShardDemandError, match="no completed requests"):
            plan_replication(model, empty, ReplicationDemand(qps=100.0))


class TestSlaValidation:
    def test_derived_policy_requires_valid_inputs(self):
        baseline = [0.01, 0.02, 0.03]
        with pytest.raises(ValueError, match="non-empty"):
            SlaPolicy.from_baseline_quantile([])
        with pytest.raises(ValueError, match="quantile"):
            SlaPolicy.from_baseline_quantile(baseline, quantile=0.0)
        with pytest.raises(ValueError, match="quantile"):
            SlaPolicy.from_baseline_quantile(baseline, quantile=101.0)
        with pytest.raises(ValueError, match="slack"):
            SlaPolicy.from_baseline_quantile(baseline, slack=0.0)

    def test_derived_policy_valid_inputs(self):
        policy = SlaPolicy.from_baseline_quantile([1.0, 2.0, 3.0], quantile=100.0, slack=2.0)
        assert policy.target_latency == pytest.approx(6.0)


class TestElasticity:
    @pytest.fixture(scope="class")
    def sized_result(self):
        model = drm1()
        results = run_suite(
            model, SETTINGS, (ShardingConfiguration("load-bal", 4),)
        )
        return model, results["load-bal 4 shards"]

    def test_arrival_conditioned_equals_hourly_array(self, sized_result):
        """A PiecewiseRateArrivals at one-hour resolution is the identical
        rate function: sizing it equals sizing the raw curve."""
        model, result = sized_result
        curve = diurnal_qps_curve(peak_qps=40_000.0)
        arrivals = PiecewiseRateArrivals(
            rates=tuple(curve), interval_seconds=3600.0
        )
        from_array = assess_elasticity(model, result, curve)
        from_process = assess_elasticity(model, result, arrivals)
        assert from_process.hourly_servers == from_array.hourly_servers
        assert from_process.server_hours == from_array.server_hours
        assert from_process.dram_byte_hours == from_array.dram_byte_hours

    def test_finer_resolution_weights_by_interval(self, sized_result):
        """Half-hour segments weigh half an hour each: a flat curve gives
        the same resource-hours at any resolution."""
        model, result = sized_result
        hourly = assess_elasticity(
            model, result,
            PiecewiseRateArrivals(rates=(25_000.0,) * 24, interval_seconds=3600.0),
        )
        half_hourly = assess_elasticity(
            model, result,
            PiecewiseRateArrivals(rates=(25_000.0,) * 48, interval_seconds=1800.0),
        )
        assert half_hourly.server_hours == pytest.approx(hourly.server_hours)
        assert half_hourly.dram_byte_hours == pytest.approx(hourly.dram_byte_hours)

    def test_empty_curve_is_well_defined(self, sized_result):
        model, result = sized_result
        report = assess_elasticity(model, result, np.empty(0))
        assert report.hourly_servers == []
        assert report.peak_servers == 0 and report.trough_servers == 0
        assert report.elasticity_ratio == 1.0

    def test_zero_trough_ratio_clamped(self):
        report = ElasticityReport(
            label="x", server_hours=1.0, dram_byte_hours=1.0,
            peak_servers=4, trough_servers=0,
        )
        assert report.elasticity_ratio == 4.0


class TestPlannersLiveInPlanning:
    """The planners have one home: the historical ``repro.serving``
    paths are gone rather than silently re-exporting."""

    @pytest.mark.parametrize("module", ["sla", "replication", "elasticity"])
    def test_serving_module_is_gone(self, module):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.serving.{module}")
        assert importlib.import_module(f"repro.planning.{module}")

    def test_serving_package_does_not_reexport_planners(self):
        import repro.planning as planning
        import repro.serving as serving

        for name in ("SlaPolicy", "evaluate_sla",
                     "plan_replication", "ReplicationDemand",
                     "assess_elasticity", "diurnal_qps_curve"):
            assert hasattr(planning, name), name
            assert not hasattr(serving, name), name


class TestArrivalRates:
    def test_open_loop_rates(self):
        assert PoissonArrivals(25.0).peak_rate() == 25.0
        diurnal = PiecewiseRateArrivals.diurnal(100.0, trough_fraction=0.5)
        assert diurnal.peak_rate() == pytest.approx(100.0, rel=1e-3)

    def test_serial_has_no_rate(self):
        assert SerialArrivals().peak_rate() is None


class TestCapacityPlanner:
    @pytest.fixture(scope="class")
    def planned(self):
        def build(trace_mode):
            return CapacityPlanner(
                space=SMALL_SPACE,
                settings=SuiteSettings(
                    num_requests=25,
                    pooling_requests=100,
                    serving=ServingConfig(seed=1),
                    trace_mode=trace_mode,
                ),
            )

        mix = small_mix()
        return {
            "full": build(None).plan(mix),
            "aggregate": build(TraceMode.AGGREGATE).plan(mix, max_workers=1),
            "parallel": build(TraceMode.AGGREGATE).plan(mix, max_workers=2),
        }

    def test_returns_a_feasible_sla_meeting_plan(self, planned):
        plan = planned["full"]
        chosen = plan.require()
        assert chosen.meets_sla and chosen.fits_memory
        # Per-workload replica counts are present for every tenant.
        assert {s.workload for s in chosen.workloads} == {
            "drm1-diurnal", "drm2-diurnal"
        }
        for sizing in chosen.workloads:
            assert sizing.standalone.main_replicas >= 1
            assert sizing.sla.met_p99

    def test_capacity_drives_scale_out(self, planned):
        """The paper's thesis, closed-loop: the singular deployment meets
        the SLA but cannot pin DRM1+DRM2 in one server's DRAM, so the
        chosen plan is distributed."""
        plan = planned["full"]
        singular = [c for c in plan.candidates if c.label == "singular"]
        assert singular and all(c.meets_sla for c in singular)
        assert all(not c.fits_memory for c in singular)
        assert plan.require().label != "singular"

    def test_bit_identical_across_trace_modes_and_parallelism(self, planned):
        assert planned["full"] == planned["aggregate"] == planned["parallel"]

    def test_explicit_policy_and_minimum_server_choice(self, planned):
        plan = planned["full"]
        feasible = [c for c in plan.candidates if c.feasible]
        chosen = plan.require()
        assert chosen.total_servers == min(c.total_servers for c in feasible)
        ties = [c for c in feasible if c.total_servers == chosen.total_servers]
        assert chosen.total_memory_bytes == min(c.total_memory_bytes for c in ties)

    def test_single_workload_plan(self):
        planner = CapacityPlanner(
            policy=SlaPolicy(10.0),  # generous: every config qualifies
            space=CandidateSpace(
                configurations=(
                    ShardingConfiguration("singular"),
                    ShardingConfiguration("load-bal", 2),
                )
            ),
            settings=SuiteSettings(
                num_requests=10, pooling_requests=100, serving=ServingConfig(seed=1)
            ),
        )
        plan = planner.plan(
            Workload("drm1", drm1(), PoissonArrivals(25.0, seed=2), request_seed=3)
        )
        # DRM1 alone fits in one SC-Large, so the 1-server singular wins.
        assert plan.require().label == "singular"

    def test_serial_arrivals_rejected(self):
        planner = CapacityPlanner(policy=SlaPolicy(1.0))
        with pytest.raises(PlanningError, match="closed-loop"):
            planner.plan(Workload("w", drm1(), SerialArrivals()))

    def test_infeasible_sla_raises_on_require(self):
        planner = CapacityPlanner(
            policy=SlaPolicy(1e-9),  # impossible window
            space=SMALL_SPACE,
            settings=SuiteSettings(
                num_requests=10, pooling_requests=100, serving=ServingConfig(seed=1)
            ),
        )
        plan = planner.plan(small_mix())
        assert not plan.feasible
        with pytest.raises(NoFeasiblePlanError, match="no candidate"):
            plan.require()

    def test_candidate_space_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            CandidateSpace(utilization_targets=())
        with pytest.raises(ValueError, match="utilization"):
            CandidateSpace(utilization_targets=(1.5,))

    def test_infeasible_message_diagnoses_every_candidate(self):
        """The NoFeasiblePlanError message must say *why* each candidate
        fell out -- the SLA target, and per candidate either the DRAM
        verdict or its worst drop rate."""
        planner = CapacityPlanner(
            policy=SlaPolicy(1e-9),
            space=SMALL_SPACE,
            settings=SuiteSettings(
                num_requests=10, pooling_requests=100, serving=ServingConfig(seed=1)
            ),
        )
        plan = planner.plan(small_mix())
        with pytest.raises(NoFeasiblePlanError) as excinfo:
            plan.require()
        message = str(excinfo.value)
        assert f"target {planner.policy.target_latency * 1e3:.2f} ms" in message
        for candidate in plan.candidates:
            assert candidate.label in message
        # the singular candidate fails on DRAM, the sharded ones on SLA
        assert "does not fit DRAM" in message
        assert "drop rate" in message


class TestPlanCli:
    def test_plan_command_smoke(self, capsys):
        code = main(
            [
                "plan", "--models", "DRM1", "DRM2", "--requests", "15",
                "--pooling-requests", "100",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "closed-loop search" in out
        assert "chosen:" in out
        assert "per-workload sizing" in out

    def test_plan_command_infeasible_exit_code(self, capsys):
        code = main(
            [
                "plan", "--models", "DRM1", "--arrivals", "poisson",
                "--requests", "10", "--pooling-requests", "100",
                "--target-ms", "0.0001",
            ]
        )
        assert code == 1
        assert "no feasible deployment" in capsys.readouterr().out
