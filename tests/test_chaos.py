"""Tests for the chaos layer: fault validation, empty-schedule
byte-identity, failover/degradation accounting, healing, availability
sweeps, abort draining, and the input-validation satellite."""

import dataclasses

import numpy as np
import pytest

from repro.chaos import (
    CorrelatedFailure,
    FaultSchedule,
    HealingPolicy,
    HostCrash,
    NetworkSpike,
    StragglerShard,
    availability_report,
    availability_sweep,
    format_assessment,
    format_timeline,
    nines,
)
from repro.experiments import (
    RunResult,
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    run_configuration,
)
from repro.models import drm1
from repro.planning import CandidateSpace, CapacityPlanner, SlaPolicy
from repro.resilience import ResiliencePolicy
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig, TraceMode
from span_oracle import assert_matches_oracle, oracle_configuration
from test_kernel_equivalence import assert_run_identical
from repro.serving.simulator import ClusterSimulation, SimServer
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.costmodel import CostModel
from repro.simulation.network import FabricSpec
from repro.simulation.platform import SC_LARGE, Platform
from repro.workloads import PoissonArrivals, Workload

pytestmark = pytest.mark.filterwarnings("error")


def drm1_plan(shards: int = 4):
    model = drm1()
    pooling = estimate_pooling_factors(model, num_requests=100, seed=42)
    return model, build_plan(model, ShardingConfiguration("load-bal", shards), pooling)


def open_loop_inputs(num_requests: int = 60, qps: float = 80.0):
    """Requests drawn the way every open-loop verb draws them
    (``Workload.sample``: timestamps are the arrival times), and the
    fixed-QPS schedule that replays them at those times."""
    model, plan = drm1_plan()
    workload = Workload("ranking", model, PoissonArrivals(qps, seed=7))
    _, requests = workload.sample(num_requests)
    return model, plan, requests, ReplaySchedule.open_loop(qps, seed=7)


CRASH = FaultSchedule(experiments=(HostCrash(shard=0, at=0.2),))


class TestFaultValidation:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError, match="at"):
            HostCrash(shard=0, at=-1.0)
        with pytest.raises(ValueError, match="restart_after"):
            HostCrash(shard=0, at=0.0, restart_after=-0.5)
        with pytest.raises(ValueError, match="duration"):
            StragglerShard(shard=0, start=0.0, duration=-1.0)
        with pytest.raises(ValueError, match="start"):
            NetworkSpike(start=float("nan"), duration=1.0)

    def test_main_tier_faults_rejected(self):
        with pytest.raises(ValueError, match="main-tier"):
            HostCrash(shard=-1, at=0.0)

    @pytest.mark.parametrize("shard", [2.7, float("nan"), True])
    @pytest.mark.parametrize(
        "make",
        [
            lambda shard: HostCrash(shard=shard, at=0.0),
            lambda shard: HostCrash(shard=shard, at=0.0, replica=1),
            lambda shard: StragglerShard(shard=shard, start=0.0, duration=1.0),
        ],
        ids=["crash", "replica-crash", "straggler"],
    )
    def test_non_integral_shard_rejected(self, make, shard):
        """A fractional shard used to build, then miss every runtime
        lookup (``KeyError 2.7``) after the healthy replay had run."""
        with pytest.raises(ValueError, match="integers >= 0"):
            make(shard)

    def test_integral_float_shard_is_stored_as_int(self):
        for experiment in (
            HostCrash(shard=2.0, at=0.0),
            StragglerShard(shard=1.0, start=0.0, duration=1.0),
        ):
            assert type(experiment.shard) is int

    def test_straggler_needs_slowdown(self):
        with pytest.raises(ValueError, match="multiplier"):
            StragglerShard(shard=0, start=0.0, duration=1.0, multiplier=0.5)

    def test_schedule_validates_members(self):
        with pytest.raises(TypeError, match="FaultExperiment"):
            FaultSchedule(experiments=("crash",))
        with pytest.raises(ValueError, match="replicas"):
            FaultSchedule(replicas=0)
        with pytest.raises(ValueError, match="failover_timeout"):
            FaultSchedule(failover_timeout=-1.0)

    def test_healing_policy_validation(self):
        with pytest.raises(ValueError, match="check_interval"):
            HealingPolicy(check_interval=0.0)
        with pytest.raises(ValueError, match="consecutive_misses"):
            HealingPolicy(consecutive_misses=0)

    def test_schedule_horizon_and_emptiness(self):
        assert FaultSchedule().is_empty
        assert FaultSchedule().horizon() == 0.0
        schedule = FaultSchedule(
            experiments=(
                HostCrash(shard=0, at=0.5, restart_after=1.0),
                StragglerShard(shard=1, start=0.2, duration=0.4),
            )
        )
        assert not schedule.is_empty
        assert schedule.horizon() == pytest.approx(1.5)

    def test_out_of_range_shard_rejected_at_setup(self):
        model, plan = drm1_plan(shards=2)
        config = ServingConfig(
            chaos=FaultSchedule(experiments=(HostCrash(shard=5, at=0.1),))
        )
        with pytest.raises(ValueError, match="only 2 sparse shard"):
            ClusterSimulation(model, plan, config)

    def test_out_of_range_replica_rejected_at_setup(self):
        model, plan = drm1_plan(shards=2)
        config = ServingConfig(
            chaos=FaultSchedule(
                experiments=(HostCrash(shard=0, at=0.1, replica=3),), replicas=2
            )
        )
        with pytest.raises(ValueError, match="replica"):
            ClusterSimulation(model, plan, config)


class TestEmptyScheduleIdentity:
    """An empty FaultSchedule exercises the chaos code path but must be
    byte-identical to a run without the chaos layer at all."""

    @pytest.mark.parametrize("mode", [TraceMode.FULL, TraceMode.AGGREGATE])
    def test_byte_identical_columns(self, mode):
        model, plan, requests, schedule = open_loop_inputs(40)
        base = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=mode, clock_skew_sigma=1e-6),
            schedule,
        )
        empty = run_configuration(
            model, plan, requests,
            ServingConfig(
                trace_mode=mode, clock_skew_sigma=1e-6, chaos=FaultSchedule()
            ),
            schedule,
        )
        assert np.array_equal(base.e2e, empty.e2e)
        assert np.array_equal(base.cpu, empty.cpu)
        assert np.array_equal(base.request_ids, empty.request_ids)
        for kind in ("latency", "embedded", "cpu"):
            for bucket, column in base.stack_columns(kind).items():
                assert np.array_equal(column, empty.stack_columns(kind)[bucket])
        assert not empty.status.any()
        assert not empty.degraded.any()
        assert not empty.retries.any()
        assert empty.chaos_timeline == ()

    def test_healthy_run_has_chaos_columns_zeroed(self):
        model, plan, requests, schedule = open_loop_inputs(20)
        result = run_configuration(model, plan, requests, None, schedule)
        assert not result.status.any()
        assert np.array_equal(
            np.sort(result.request_ids), np.arange(len(result), dtype=np.int64)
        )


class TestFailoverAndDegradation:
    def test_crash_without_replicas_degrades(self):
        model, plan, requests, schedule = open_loop_inputs()
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=CRASH),
            schedule,
        )
        degraded = result.status == 1
        assert degraded.any()
        assert np.array_equal(result.degraded > 0, degraded)
        assert (result.retries == 0).all()
        assert len(result) == len(requests)  # degraded, not dropped

    def test_crash_with_replica_fails_over(self):
        model, plan, requests, schedule = open_loop_inputs()
        schedule_2r = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.2),), replicas=2
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=schedule_2r),
            schedule,
        )
        assert not (result.status == 1).any()

    def test_inflight_rpcs_retry_on_crash(self):
        # Stretch RPC flight time with a spike so the crash catches
        # requests mid-flight: they must retry onto the live replica.
        model, plan, requests, schedule = open_loop_inputs()
        chaos = FaultSchedule(
            experiments=(
                NetworkSpike(start=0.1, duration=0.4, extra_latency=0.05),
                HostCrash(shard=0, at=0.2, restart_after=0.3),
            ),
            replicas=2,
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        assert (result.retries > 0).any()
        assert not (result.status == 1).any()

    @pytest.mark.parametrize(
        "chaos",
        [
            CRASH,
            FaultSchedule(experiments=(HostCrash(shard=0, at=0.2),), replicas=2),
            FaultSchedule(
                experiments=(
                    NetworkSpike(start=0.1, duration=0.4, extra_latency=0.05),
                    HostCrash(shard=0, at=0.2, restart_after=0.3),
                ),
                replicas=2,
            ),
        ],
        ids=["degrade", "failover", "retry"],
    )
    def test_columns_match_span_oracle_under_chaos(self, chaos):
        model, plan, requests, schedule = open_loop_inputs()
        serving = ServingConfig(chaos=chaos)
        result = run_configuration(model, plan, requests, serving, schedule)
        assert_matches_oracle(
            result, oracle_configuration(model, plan, requests, serving, schedule)
        )

    def test_straggler_and_spike_raise_latency(self):
        model, plan, requests, schedule = open_loop_inputs()
        base = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE),
            schedule,
        )
        straggler = FaultSchedule(
            experiments=(
                StragglerShard(shard=1, start=0.0, duration=10.0, multiplier=8.0),
            )
        )
        spike = FaultSchedule(
            experiments=(
                NetworkSpike(start=0.0, duration=10.0, extra_latency=0.01),
            )
        )
        for chaos in (straggler, spike):
            faulted = run_configuration(
                model, plan, requests,
                ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
                schedule,
            )
            assert faulted.e2e.mean() > base.e2e.mean()
            assert not (faulted.status == 1).any()

    def test_restart_ends_degradation(self):
        model, plan, requests, schedule = open_loop_inputs(80, qps=100.0)
        chaos = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.1, restart_after=0.2),)
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        degraded_ids = set(result.request_ids[result.status == 1].tolist())
        assert degraded_ids
        arrivals = PoissonArrivals(100.0, seed=7).arrival_times(80)
        assert all(arrivals[rid] >= 0.1 for rid in degraded_ids)
        late = [rid for rid in range(80) if arrivals[rid] > 0.35]
        assert late and not (set(late) & degraded_ids)


class TestHealing:
    def test_crash_detected_healed_order_and_recovery(self):
        model, plan, requests, schedule = open_loop_inputs(80, qps=100.0)
        policy = HealingPolicy(
            check_interval=0.05, consecutive_misses=2, recovery_lag=0.1
        )
        chaos = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.2),), healing=policy
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        kinds = [event.kind for event in result.chaos_timeline]
        assert kinds == ["crash", "detected", "healed"]
        crash, detected, healed = result.chaos_timeline
        assert crash.time == pytest.approx(0.2)
        # detection takes between (misses - 1) and misses heartbeats
        # depending on how the crash aligns with the tick grid
        assert crash.time < detected.time
        assert detected.time <= crash.time + policy.detection_lag() + policy.check_interval
        assert healed.time == pytest.approx(detected.time + policy.recovery_lag)
        assert "0/1 live" in detected.detail
        assert healed.server.startswith("sparse-0-h")

        unhealed = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=CRASH),
            schedule,
        )
        assert (result.status == 1).sum() < (unhealed.status == 1).sum()

        arrivals = PoissonArrivals(100.0, seed=7).arrival_times(80)
        degraded_ids = result.request_ids[result.status == 1]
        assert all(arrivals[rid] <= healed.time for rid in degraded_ids)

    def test_healing_noop_when_replicas_survive(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        chaos = FaultSchedule(
            experiments=(),
            healing=HealingPolicy(check_interval=0.05),
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        assert result.chaos_timeline == ()
        assert not result.status.any()


class TestAvailabilityReport:
    def test_report_classification(self):
        model, plan, requests, schedule = open_loop_inputs()
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=CRASH),
            schedule,
        )
        arrivals = PoissonArrivals(80.0, seed=7).arrival_times(len(requests))
        report = availability_report(result, arrivals, slo_latency=10.0)
        assert report.total == len(requests)
        assert report.degraded == int((result.status == 1).sum())
        assert report.ok + report.slow + report.degraded + report.failed == report.total
        assert report.availability == pytest.approx(
            (report.ok + report.slow) / report.total
        )
        assert report.slo_retention <= report.availability
        assert sum(window.arrived for window in report.windows) == report.total

    def test_report_validation_and_nines(self):
        model, plan, requests, schedule = open_loop_inputs(20)
        result = run_configuration(model, plan, requests, None, schedule)
        arrivals = np.zeros(len(requests))
        with pytest.raises(ValueError, match="slo_latency"):
            availability_report(result, arrivals, slo_latency=0.0)
        with pytest.raises(ValueError, match="window"):
            availability_report(result, arrivals, slo_latency=1.0, window=0.0)
        assert nines(0.999) == pytest.approx(3.0)
        assert nines(1.0) == 9.0
        assert nines(0.0) == 0.0

    def test_format_timeline_mentions_events_and_windows(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        chaos = FaultSchedule(
            experiments=(HostCrash(shard=0, at=0.1),),
            healing=HealingPolicy(check_interval=0.05, recovery_lag=0.1),
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        arrivals = PoissonArrivals(80.0, seed=7).arrival_times(len(requests))
        report = availability_report(result, arrivals, slo_latency=10.0)
        lines = format_timeline(result.chaos_timeline, report)
        text = "\n".join(lines)
        assert "crash" in text and "healed" in text and "availability" in text


class TestAvailabilitySweep:
    @pytest.fixture(scope="class")
    def assessment(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        return availability_sweep(
            workload,
            ShardingConfiguration("load-bal", 4),
            (HostCrash(shard=0, at=0.1),),
            replica_counts=(1, 2, 3),
            settings=SuiteSettings(num_requests=80, pooling_requests=100),
            max_workers=1,
        )

    def test_slo_retention_monotone_in_replicas(self, assessment):
        retention = [
            outcome.report.slo_retention for outcome in assessment.outcomes
        ]
        assert all(a <= b for a, b in zip(retention, retention[1:]))
        assert retention[0] < 1.0  # the crash hurts at one replica
        assert retention[-1] > retention[0]  # replication actually helps

    def test_replicas_for_target(self, assessment):
        needed = assessment.replicas_for(0.9)
        assert needed is not None
        by_count = {
            outcome.replicas: outcome.report.slo_retention
            for outcome in assessment.outcomes
        }
        assert by_count[needed] >= 0.9
        assert all(
            by_count[count] < 0.9
            for count in by_count
            if count < needed
        )
        assert assessment.replicas_for(2.0) is None

    def test_serial_equals_parallel(self, assessment):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        parallel = availability_sweep(
            workload,
            ShardingConfiguration("load-bal", 4),
            (HostCrash(shard=0, at=0.1),),
            replica_counts=(1, 2, 3),
            settings=SuiteSettings(num_requests=80, pooling_requests=100),
            max_workers=2,
        )
        for serial_out, parallel_out in zip(assessment.outcomes, parallel.outcomes):
            assert np.array_equal(serial_out.result.e2e, parallel_out.result.e2e)
            assert np.array_equal(
                serial_out.result.status, parallel_out.result.status
            )
            assert (
                serial_out.report.slo_retention == parallel_out.report.slo_retention
            )
        assert parallel.slo_latency == assessment.slo_latency

    def test_format_assessment_reports_the_answer(self, assessment):
        lines = format_assessment(assessment)
        text = "\n".join(lines)
        assert "replicas for" in text
        assert "timeline (replicas=1):" in text

    def test_rejects_bad_inputs(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        with pytest.raises(ValueError, match="replica_counts"):
            availability_sweep(
                workload, ShardingConfiguration("load-bal", 4), (), replica_counts=()
            )
        with pytest.raises(ValueError, match="serving.chaos"):
            availability_sweep(
                workload,
                ShardingConfiguration("load-bal", 4),
                (),
                settings=SuiteSettings(
                    serving=ServingConfig(chaos=FaultSchedule())
                ),
            )

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"replica_counts": (1, 0)}, "replicas"),
            ({"domains": 0}, "domains"),
            ({"experiments": (CorrelatedFailure(domain=2, at=0.1),), "domains": 2},
             "domain 2"),
            ({"window": 0.0}, "window"),
            ({"slo_latency": 0.0}, "slo_latency"),
            ({"slo_slack": -1.0}, "slo_slack"),
        ],
        ids=["replicas", "domains", "correlated-domain", "window", "slo", "slack"],
    )
    def test_validates_before_any_replay(self, monkeypatch, kwargs, match):
        """Every bad input fails before the first replay, in the parent:
        no cluster task is ever handed to the pool."""
        from repro.chaos import experiment

        def no_replays(*args, **kw):
            raise AssertionError("a replay started before validation")

        monkeypatch.setattr(experiment, "run_cluster_tasks", no_replays)
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        call = {"experiments": (HostCrash(shard=0, at=0.1),), **kwargs}
        with pytest.raises(ValueError, match=match):
            availability_sweep(
                workload,
                ShardingConfiguration("load-bal", 4),
                call.pop("experiments"),
                settings=SuiteSettings(num_requests=10, pooling_requests=20),
                max_workers=1,
                **call,
            )


REUSE_CONFIGURATION = ShardingConfiguration("load-bal", 4)
REUSE_CRASH = (HostCrash(shard=0, at=0.1),)
REUSE_HEDGE = ResiliencePolicy(
    rpc_timeout=5e-3, max_attempts=3, hedge_quantile=95.0
)


def reuse_workload(arrival_seed: int = 7) -> Workload:
    return Workload(
        "ranking", drm1(), PoissonArrivals(120.0, seed=arrival_seed),
        request_seed=3,
    )


def reuse_planner(serving_seed: int = 1) -> CapacityPlanner:
    return CapacityPlanner(
        policy=SlaPolicy(10.0),  # generous: the candidate qualifies
        space=CandidateSpace(configurations=(REUSE_CONFIGURATION,)),
        settings=SuiteSettings(
            num_requests=60, pooling_requests=100,
            serving=ServingConfig(seed=serving_seed),
        ),
    )


@pytest.fixture(scope="module")
def planned():
    """A planned deployment whose chosen candidate keeps its sweep."""
    workload, planner = reuse_workload(), reuse_planner()
    return workload, planner, planner.plan(workload)


@pytest.fixture
def sweep_tasks(monkeypatch):
    """Names of the worker bodies every availability sweep hands to the
    pool, in task order."""
    import repro.chaos.experiment as experiment

    names: list[str] = []
    run_tasks = experiment.run_cluster_tasks

    def counting(tasks, context, max_workers=None):
        names.extend(fn.__name__ for fn, _ in tasks)
        return run_tasks(tasks, context, max_workers)

    monkeypatch.setattr(experiment, "run_cluster_tasks", counting)
    return names


def fresh_sweep(workload, planner, policy):
    """The from-scratch sweep an assessment of the chosen plan stands for."""
    return availability_sweep(
        workload, REUSE_CONFIGURATION, REUSE_CRASH, (1, 2),
        policy=policy,
        settings=planner.settings,
        slo_latency=(
            planner.policy.target_latency if planner.policy is not None else None
        ),
        slo_slack=planner.slack,
    )


def assert_same_assessment(got, want):
    assert got.slo_latency == want.slo_latency
    assert got.baseline_p99 == want.baseline_p99
    assert got.policy == want.policy
    assert [o.replicas for o in got.outcomes] == [o.replicas for o in want.outcomes]
    for ours, theirs in zip(got.outcomes, want.outcomes):
        assert ours.report == theirs.report
        assert ours.timeline == theirs.timeline
        assert_run_identical(ours.result, theirs.result, ours.replicas)
        assert ours.result.resilience_stats == theirs.result.resilience_stats
        assert ours.result.aborted_rpcs == theirs.result.aborted_rpcs
    assert format_assessment(got) == format_assessment(want)


class TestPlannerAvailability:
    def test_assess_availability_on_chosen_plan(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        planner = CapacityPlanner(
            policy=SlaPolicy(10.0),  # generous: the candidate qualifies
            space=CandidateSpace(
                configurations=(ShardingConfiguration("load-bal", 4),)
            ),
            settings=SuiteSettings(num_requests=60, pooling_requests=100),
        )
        plan = planner.plan(workload)
        assessment = planner.assess_availability(
            workload, plan, (HostCrash(shard=0, at=0.1),), replica_counts=(1, 2)
        )
        # the planner's SLA target is the SLO the retention is held to
        assert assessment.slo_latency == planner.policy.target_latency
        retention = [o.report.slo_retention for o in assessment.outcomes]
        assert retention[0] <= retention[1]

    def test_singular_choice_cannot_be_chaos_assessed(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(25.0, seed=2), request_seed=3
        )
        planner = CapacityPlanner(
            policy=SlaPolicy(10.0),
            space=CandidateSpace(
                configurations=(ShardingConfiguration("singular"),)
            ),
            settings=SuiteSettings(num_requests=10, pooling_requests=100),
        )
        plan = planner.plan(workload)
        with pytest.raises(ValueError, match="sparse shard"):
            planner.assess_availability(
                workload, plan, (HostCrash(shard=0, at=0.1),), replica_counts=(1,)
            )

    @pytest.mark.parametrize("slo_from", ["planner", "baseline"])
    @pytest.mark.parametrize("policy", [None, REUSE_HEDGE], ids=["plain", "hedged"])
    def test_reused_baseline_equals_a_fresh_sweep(
        self, planned, sweep_tasks, policy, slo_from
    ):
        workload, planner, plan = planned
        if slo_from == "baseline":
            # Same settings, so the sweep is still reused; the SLO now
            # derives from the reused baseline's p99.
            planner = dataclasses.replace(planner, policy=None)
        reused = planner.assess_availability(
            workload, plan.chosen, REUSE_CRASH, (1, 2), policy=policy
        )
        assert sweep_tasks == ["_replay_chaos", "_replay_chaos"]
        fresh = fresh_sweep(workload, planner, policy)
        assert sweep_tasks.count("_replay_healthy") == 1
        assert_same_assessment(reused, fresh)
        if policy is not None:
            assert reused.policy.hedge_delay is not None

    def test_a_mix_plan_reuses_its_chosen_sweep(self, planned, sweep_tasks):
        workload, planner, plan = planned
        planner.assess_availability(workload, plan, REUSE_CRASH, (1,))
        assert sweep_tasks == ["_replay_chaos"]

    def test_an_explicit_configuration_replays_its_baseline(
        self, planned, sweep_tasks
    ):
        workload, planner, _ = planned
        planner.assess_availability(workload, REUSE_CONFIGURATION, REUSE_CRASH, (1,))
        assert sweep_tasks == ["_replay_healthy", "_replay_chaos"]

    @pytest.mark.parametrize("other", ["serving-seed", "mix"])
    def test_other_inputs_replay_their_own_baseline(
        self, planned, sweep_tasks, other
    ):
        workload, planner, plan = planned
        if other == "serving-seed":
            planner = reuse_planner(serving_seed=2)
        else:
            workload = reuse_workload(arrival_seed=8)
        assessed = planner.assess_availability(
            workload, plan.chosen, REUSE_CRASH, (1, 2), policy=REUSE_HEDGE
        )
        # The hedge delay needs the baseline first: it runs alone.
        assert sweep_tasks == ["_replay_healthy", "_replay_chaos", "_replay_chaos"]
        assert_same_assessment(assessed, fresh_sweep(workload, planner, REUSE_HEDGE))

    def test_healthy_replay_must_cover_the_stream(self, planned, sweep_tasks):
        workload, planner, plan = planned
        sweep = plan.chosen.sweep
        empty = RunResult(
            sweep.result.model_name, sweep.result.label, sweep.result.plan
        )
        with pytest.raises(ValueError, match="0 rows for a stream of 60"):
            availability_sweep(
                workload, REUSE_CONFIGURATION, REUSE_CRASH, (1,),
                settings=planner.settings, healthy=(sweep.stream, empty),
            )
        assert sweep_tasks == []

    def test_the_sweep_is_not_part_of_the_plan_value(self, planned):
        chosen = planned[2].chosen
        assert chosen.sweep is not None
        assert chosen.sweep.result.label == chosen.label
        assert dataclasses.replace(chosen, sweep=None) == chosen
        assert "sweep" not in repr(chosen)


class TestDrainOnAbort:
    def test_abort_mid_replay_drains_inflight(self):
        model, plan, requests, schedule = open_loop_inputs(30)

        class Boom(RuntimeError):
            pass

        cluster = ClusterSimulation(model, plan, ServingConfig())
        completed = []

        def on_complete(request_id: int) -> None:
            cluster.tracer.pop_request(request_id)
            completed.append(request_id)
            if len(completed) == 5:
                raise Boom()

        cluster.on_complete = on_complete
        with pytest.raises(Boom):
            arrivals = schedule.arrival_times(len(requests))
            cluster.run_stream(zip(arrivals, [0] * len(requests), requests))
        # the abort left in-flight requests; they were drained, recorded,
        # and the tracer holds no leaked state
        assert cluster.dropped_requests
        assert cluster.tracer.drain_incomplete() == []
        assert set(cluster.dropped_requests).isdisjoint(completed)

    def test_incomplete_requests_annotated_in_result(self):
        model, plan, requests, schedule = open_loop_inputs(20)
        result = run_configuration(model, plan, requests, None, schedule)
        assert result.incomplete_requests == ()


class TestValidationSatellite:
    def test_serving_config_rejects_nonsense(self):
        with pytest.raises(ValueError, match="service_workers"):
            ServingConfig(service_workers=0)
        with pytest.raises(ValueError, match="max_batches"):
            ServingConfig(max_batches=0)
        with pytest.raises(ValueError, match="batch_size"):
            ServingConfig(batch_size=0)
        with pytest.raises(ValueError, match="clock_skew_sigma"):
            ServingConfig(clock_skew_sigma=-1e-6)

    def test_sim_server_rejects_nonsense(self):
        from repro.simulation.engine import Engine

        engine = Engine()
        with pytest.raises(ValueError, match="workers"):
            SimServer(engine, "bad", SC_LARGE, workers=0)
        with pytest.raises(ValueError, match="io_threads"):
            SimServer(engine, "bad", SC_LARGE, workers=1, io_threads=0)

    def test_cost_model_rejects_negative_terms(self):
        with pytest.raises(ValueError, match="rpc_service_fixed"):
            CostModel(rpc_service_fixed=-1e-6)
        with pytest.raises(ValueError, match="serde_bytes_per_sec"):
            CostModel(serde_bytes_per_sec=0.0)
        with pytest.raises(ValueError, match="dense_pre_fraction"):
            CostModel(dense_pre_fraction=1.5)

    def test_fabric_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter_sigma"):
            FabricSpec(jitter_sigma=-0.1)
        with pytest.raises(ValueError, match="propagation"):
            FabricSpec(propagation=float("nan"))

    def test_platform_rejects_nonsense(self):
        with pytest.raises(ValueError, match="cores"):
            Platform(
                name="bad", cores=0, dram_capacity=1.0, clock_ghz=1.0,
                mem_bandwidth=1.0, dram_access_ns=1.0, nic_bandwidth=1.0,
            )
        with pytest.raises(ValueError, match="mem_bandwidth"):
            Platform(
                name="bad", cores=1, dram_capacity=1.0, clock_ghz=1.0,
                mem_bandwidth=-1.0, dram_access_ns=1.0, nic_bandwidth=1.0,
            )
