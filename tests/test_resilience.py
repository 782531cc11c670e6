"""Tests for the tail-resilience layer: policy validation, empty-policy
byte-identity, retry/hedge/deadline accounting, crash-time aborts,
retry-budget monotonicity, fault domains and placement, and the
vectorized-kernel fallback gate."""

import numpy as np
import pytest

from repro.chaos import (
    CorrelatedFailure,
    FaultSchedule,
    HostCrash,
    NetworkSpike,
    StragglerShard,
    availability_sweep,
    format_assessment,
)
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    run_configuration,
)
from repro.experiments.runner import suite_requests
from repro.models import drm1
from repro.requests import ReplaySchedule
from repro.resilience import ResiliencePolicy
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from span_oracle import (
    assert_matches_oracle,
    assert_outcomes_conserved,
    oracle_configuration,
)
from repro.serving.columnar import REASON_RESILIENCE
from repro.sharding.pooling import estimate_pooling_factors
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


#: Replica 0 of shard 0 straggles for the whole replay while its sibling
#: stays healthy: the canonical hedging target.
STRAGGLER_REPLICA = FaultSchedule(
    experiments=(
        StragglerShard(
            shard=0, start=0.0, duration=10.0, multiplier=25.0, replica=0
        ),
    ),
    replicas=2,
)

RETRY_POLICY = ResiliencePolicy(rpc_timeout=5e-3, max_attempts=3)
HEDGE_POLICY = ResiliencePolicy(
    hedge_delay=5e-4, max_attempts=2,
    retry_budget=500.0, retry_refill_rate=500.0,
)


def _assert_columns_equal(a, b):
    assert np.array_equal(a.e2e, b.e2e)
    assert np.array_equal(a.cpu, b.cpu)
    assert np.array_equal(a.request_ids, b.request_ids)
    assert np.array_equal(a.status, b.status)
    assert np.array_equal(a.degraded, b.degraded)
    assert np.array_equal(a.retries, b.retries)
    assert np.array_equal(a.attempts, b.attempts)
    assert np.array_equal(a.hedged, b.hedged)
    assert np.array_equal(a.deadline_exceeded, b.deadline_exceeded)


class TestPolicyValidation:
    def test_rejects_nonsense_values(self):
        with pytest.raises(ValueError, match="rpc_timeout"):
            ResiliencePolicy(rpc_timeout=0.0)
        with pytest.raises(ValueError, match="max_attempts"):
            ResiliencePolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff_base"):
            ResiliencePolicy(backoff_base=-1.0)
        with pytest.raises(ValueError, match="backoff_jitter"):
            ResiliencePolicy(backoff_jitter=-0.1)
        with pytest.raises(ValueError, match="hedge_delay"):
            ResiliencePolicy(hedge_delay=-1e-3, max_attempts=2)
        with pytest.raises(ValueError, match="hedge_quantile"):
            ResiliencePolicy(hedge_quantile=150.0, max_attempts=2)
        with pytest.raises(ValueError, match="deadline"):
            ResiliencePolicy(deadline=0.0)
        with pytest.raises(ValueError, match="retry_budget"):
            ResiliencePolicy(retry_budget=-1.0)
        with pytest.raises(ValueError, match="retry_refill_rate"):
            ResiliencePolicy(retry_refill_rate=-1.0)

    def test_hedging_needs_a_second_attempt(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ResiliencePolicy(hedge_delay=1e-3, max_attempts=1)

    def test_hedge_delay_and_quantile_are_exclusive(self):
        with pytest.raises(ValueError, match="hedge"):
            ResiliencePolicy(
                hedge_delay=1e-3, hedge_quantile=95.0, max_attempts=2
            )

    def test_is_empty(self):
        assert ResiliencePolicy().is_empty
        assert not ResiliencePolicy(rpc_timeout=1e-3).is_empty
        assert not ResiliencePolicy(max_attempts=2).is_empty
        assert not ResiliencePolicy(hedge_delay=1e-3, max_attempts=2).is_empty
        assert not ResiliencePolicy(deadline=1.0).is_empty

    def test_with_hedge_delay_resolves_quantile(self):
        policy = ResiliencePolicy(hedge_quantile=95.0, max_attempts=2)
        resolved = policy.with_hedge_delay(2e-3)
        assert resolved.hedge_delay == pytest.approx(2e-3)
        assert resolved.hedge_quantile is None
        assert resolved.max_attempts == 2

    def test_describe_is_deterministic(self):
        policy = ResiliencePolicy(rpc_timeout=5e-3, max_attempts=3)
        assert policy.describe() == policy.describe()
        assert "timeout" in policy.describe()
        assert ResiliencePolicy().describe() == "empty"


class TestEmptyPolicyIdentity:
    """An empty policy exercises the config path but must be
    byte-identical to a run without the resilience layer at all."""

    @pytest.mark.parametrize("mode", [TraceMode.FULL, TraceMode.AGGREGATE])
    @pytest.mark.parametrize("kernel", ["reference", "batched"])
    def test_byte_identical_columns(self, mode, kernel):
        model, plan, requests, schedule = open_loop_inputs(40)
        base = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=mode, kernel=kernel),
            schedule,
        )
        empty = run_configuration(
            model, plan, requests,
            ServingConfig(
                trace_mode=mode, kernel=kernel,
                resilience=ResiliencePolicy(),
            ),
            schedule,
        )
        _assert_columns_equal(base, empty)
        for kind in ("latency", "embedded", "cpu"):
            for bucket, column in base.stack_columns(kind).items():
                assert np.array_equal(column, empty.stack_columns(kind)[bucket])
        assert not empty.attempts.any()
        assert not empty.hedged.any()
        assert not empty.deadline_exceeded.any()
        assert empty.resilience_stats == {}
        assert empty.aborted_rpcs == 0

    def test_empty_policy_stays_vectorized_eligible(self):
        model, plan = drm1_plan(shards=2)
        requests = suite_requests(
            model, SuiteSettings(num_requests=15, pooling_requests=100)
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(
                seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE,
                resilience=ResiliencePolicy(),
            ),
        )
        assert result.kernel_used == "vectorized"
        assert result.kernel_fallback is None


class TestVectorizedFallback:
    def test_active_policy_falls_back_with_reason(self):
        model, plan = drm1_plan(shards=2)
        requests = suite_requests(
            model, SuiteSettings(num_requests=15, pooling_requests=100)
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(
                seed=1, kernel="vectorized", trace_mode=TraceMode.AGGREGATE,
                resilience=RETRY_POLICY,
            ),
        )
        assert result.kernel_used == "batched"
        assert result.kernel_fallback == REASON_RESILIENCE


class TestHealthyClusterUnderPolicy:
    @pytest.mark.parametrize("kernel", ["reference", "batched"])
    @pytest.mark.parametrize(
        "open_loop, skew", [(False, 0.0), (True, 0.002)],
        ids=["serial", "open-loop-skewed"],
    )
    def test_generous_policy_matches_base_on_healthy_cluster(
        self, kernel, open_loop, skew
    ):
        # Timeout and hedge thresholds no healthy RPC reaches: the
        # supervisor (one process per attempt) and the inline no-policy
        # driver run the one attempt body and must land on the same
        # latencies, CPU, and stacks.
        model, plan, requests, schedule = open_loop_inputs(40)
        if not open_loop:
            schedule = None
        serving = ServingConfig(kernel=kernel, clock_skew_sigma=skew)
        base = run_configuration(model, plan, requests, serving, schedule)
        policy = ResiliencePolicy(rpc_timeout=10.0, max_attempts=3,
                                  hedge_delay=10.0)
        supervised = run_configuration(
            model, plan, requests,
            serving.with_resilience(policy),
            schedule,
        )
        assert np.array_equal(base.e2e, supervised.e2e)
        assert np.array_equal(base.cpu, supervised.cpu)
        for kind in ("latency", "embedded", "cpu"):
            base_stack = base.stack_columns(kind)
            supervised_stack = supervised.stack_columns(kind)
            assert base_stack.keys() == supervised_stack.keys()
            for bucket, column in base_stack.items():
                assert np.array_equal(column, supervised_stack[bucket]), (
                    kind, bucket,
                )
        assert supervised.attempts.sum() > 0  # first attempts counted
        assert not supervised.hedged.any()
        assert supervised.resilience_stats["hedges"] == 0

    def test_tiny_deadline_flags_without_changing_latency(self):
        # A deadline below any achievable e2e: no *extra* attempts are
        # ever permitted (none are needed healthy), so latencies hold,
        # but every request is flagged deadline-exceeded.
        model, plan, requests, schedule = open_loop_inputs(30)
        base = run_configuration(model, plan, requests, None, schedule)
        flagged = run_configuration(
            model, plan, requests,
            ServingConfig(resilience=ResiliencePolicy(deadline=1e-9)),
            schedule,
        )
        assert np.array_equal(base.e2e, flagged.e2e)
        assert flagged.deadline_exceeded.all()
        assert flagged.resilience_stats["deadline_exceeded"] == len(requests)


class TestDeterminism:
    def test_replay_is_byte_identical_run_to_run(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        serving = ServingConfig(
            trace_mode=TraceMode.AGGREGATE,
            chaos=STRAGGLER_REPLICA,
            resilience=ResiliencePolicy(
                rpc_timeout=2e-3, max_attempts=3,
                backoff_base=1e-4, backoff_jitter=0.5,
                hedge_delay=5e-4,
            ),
        )
        first = run_configuration(model, plan, requests, serving, schedule)
        second = run_configuration(model, plan, requests, serving, schedule)
        _assert_columns_equal(first, second)
        assert first.resilience_stats == second.resilience_stats
        assert first.aborted_rpcs == second.aborted_rpcs

    def test_columns_match_span_oracle_under_policy_and_chaos(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        chaos = FaultSchedule(
            experiments=(
                NetworkSpike(start=0.1, duration=0.4, extra_latency=0.05),
                HostCrash(shard=0, at=0.2, restart_after=0.3),
            ),
            replicas=2,
        )
        serving = ServingConfig(chaos=chaos, resilience=RETRY_POLICY)
        result = run_configuration(model, plan, requests, serving, schedule)
        assert result.attempts.sum() > 0
        assert_matches_oracle(
            result, oracle_configuration(model, plan, requests, serving, schedule)
        )

    def test_reference_equals_batched_kernel_under_policy(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        results = {
            kernel: run_configuration(
                model, plan, requests,
                ServingConfig(
                    trace_mode=TraceMode.AGGREGATE, kernel=kernel,
                    chaos=STRAGGLER_REPLICA, resilience=HEDGE_POLICY,
                ),
                schedule,
            )
            for kernel in ("reference", "batched")
        }
        _assert_columns_equal(results["reference"], results["batched"])

    def test_sweep_serial_equals_parallel(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        kwargs = dict(
            replica_counts=(1, 2),
            domains=2,
            placement="spread",
            policy=ResiliencePolicy(
                rpc_timeout=5e-3, max_attempts=3,
                backoff_base=1e-4, backoff_jitter=0.5,
                hedge_quantile=95.0,
            ),
            settings=SuiteSettings(num_requests=40, pooling_requests=100),
        )
        serial = availability_sweep(
            workload, ShardingConfiguration("load-bal", 4),
            (CorrelatedFailure(domain=0, at=0.05),), max_workers=1, **kwargs,
        )
        parallel = availability_sweep(
            workload, ShardingConfiguration("load-bal", 4),
            (CorrelatedFailure(domain=0, at=0.05),), max_workers=2, **kwargs,
        )
        assert serial.slo_latency == parallel.slo_latency
        assert serial.policy == parallel.policy
        assert all(o.result.attempts.sum() > 0 for o in serial.outcomes)
        for a, b in zip(serial.outcomes, parallel.outcomes):
            _assert_columns_equal(a.result, b.result)
            assert a.report == b.report
        assert format_assessment(serial) == format_assessment(parallel)


class TestHedging:
    def test_hedging_cuts_straggler_p99(self):
        model, plan, requests, schedule = open_loop_inputs(60)
        base = run_configuration(
            model, plan, requests,
            ServingConfig(
                trace_mode=TraceMode.AGGREGATE, chaos=STRAGGLER_REPLICA
            ),
            schedule,
        )
        hedged = run_configuration(
            model, plan, requests,
            ServingConfig(
                trace_mode=TraceMode.AGGREGATE, chaos=STRAGGLER_REPLICA,
                resilience=HEDGE_POLICY,
            ),
            schedule,
        )
        assert int(hedged.hedged.sum()) > 0
        assert hedged.resilience_stats["hedges"] == int(hedged.hedged.sum())
        p99_base = float(np.percentile(base.e2e, 99.0))
        p99_hedged = float(np.percentile(hedged.e2e, 99.0))
        assert p99_hedged < p99_base

    def test_sweep_resolves_hedge_quantile_from_healthy_baseline(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        assessment = availability_sweep(
            workload,
            ShardingConfiguration("load-bal", 4),
            (HostCrash(shard=0, at=0.1),),
            replica_counts=(2,),
            policy=ResiliencePolicy(hedge_quantile=95.0, max_attempts=2),
            settings=SuiteSettings(num_requests=40, pooling_requests=100),
        )
        assert assessment.policy is not None
        assert assessment.policy.hedge_quantile is None
        assert assessment.policy.hedge_delay is not None
        assert assessment.policy.hedge_delay > 0.0
        text = "\n".join(format_assessment(assessment))
        assert "resilience policy" in text and "hedge" in text

    def test_sweep_rejects_policy_on_serving_config(self):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        with pytest.raises(ValueError, match="policy="):
            availability_sweep(
                workload,
                ShardingConfiguration("load-bal", 4),
                (HostCrash(shard=0, at=0.1),),
                settings=SuiteSettings(
                    num_requests=20,
                    serving=ServingConfig(resilience=RETRY_POLICY),
                ),
            )


class TestCrashAborts:
    """Satellite: in-flight RPCs on a crashed host abort instead of
    silently completing."""

    def _crash_mid_flight(self, resilience=None):
        # A heavy straggler stretches shard-0 service segments so the
        # crash lands while attempts are *in service* (not just on the
        # wire): those attempts must abort at a segment boundary and
        # fail over, never complete on the dead host.
        model, plan, requests, schedule = open_loop_inputs(60, qps=200.0)
        chaos = FaultSchedule(
            experiments=(
                StragglerShard(
                    shard=0, start=0.0, duration=0.4, multiplier=200.0
                ),
                HostCrash(shard=0, at=0.05),
            ),
            replicas=2,
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(
                trace_mode=TraceMode.AGGREGATE, chaos=chaos,
                resilience=resilience,
            ),
            schedule,
        )
        return requests, result

    @pytest.mark.parametrize(
        "resilience",
        [None, RETRY_POLICY, HEDGE_POLICY],
        ids=["no-policy", "policy", "hedge-policy"],
    )
    def test_mid_service_crash_aborts_and_retries(self, resilience):
        requests, result = self._crash_mid_flight(resilience)
        assert result.aborted_rpcs > 0
        assert (result.retries > 0).any()
        # Aborted attempts fail over to the live replica: nothing is
        # dropped and nothing silently completes on the dead host.
        assert len(result) == len(requests)
        assert_outcomes_conserved(result)
        if resilience is None:
            # The no-policy failover path retries until a live replica
            # answers: nothing degrades.
            assert not (result.status == 1).any()
        else:
            assert result.resilience_stats["aborted_attempts"] > 0
            # Under the policy, an RPC degrades only when every attempt
            # it made died: either all ``max_attempts`` of them (each
            # death counts a retry), or the token-bucket budget denied a
            # replacement -- the anti-retry-storm valve working as
            # designed, not a silent drop.
            degraded = result.status == 1
            if degraded.any():
                assert (
                    result.resilience_stats["budget_denied"] > 0
                    or (result.retries[degraded] >= resilience.max_attempts).all()
                )

    def test_healthy_replay_never_aborts(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        for serving, has_ledger in (
            (None, False),
            (ServingConfig(resilience=ResiliencePolicy()), False),
            (ServingConfig(chaos=FaultSchedule()), True),
            (ServingConfig(resilience=RETRY_POLICY), True),
        ):
            # Only a fault runtime installs the outcome ledger: healthy
            # runs pay nothing for it.
            cluster = ClusterSimulation(model, plan, serving)
            assert (cluster.outcomes is not None) == has_ledger, serving
            result = run_configuration(
                model, plan, requests, serving, schedule
            )
            assert result.aborted_rpcs == 0


class TestRetryBudget:
    def test_budget_denials_monotone_in_fault_severity(self):
        # A hard per-attempt timeout under ever-larger network spikes:
        # with a capped, non-refilling budget, the denial count can only
        # grow as more attempts time out.
        model, plan, requests, schedule = open_loop_inputs(40)
        policy = ResiliencePolicy(
            rpc_timeout=1e-3, max_attempts=3,
            retry_budget=5.0, retry_refill_rate=0.0,
        )
        denials = []
        for extra in (0.0, 2e-3, 8e-3):
            chaos = FaultSchedule(
                experiments=(
                    NetworkSpike(start=0.0, duration=10.0, extra_latency=extra),
                ),
                replicas=2,
            )
            result = run_configuration(
                model, plan, requests,
                ServingConfig(
                    trace_mode=TraceMode.AGGREGATE, chaos=chaos,
                    resilience=policy,
                ),
                schedule,
            )
            denials.append(result.resilience_stats["budget_denied"])
        assert denials[0] == 0
        assert denials[-1] > 0
        assert all(a <= b for a, b in zip(denials, denials[1:]))


class TestFaultDomains:
    def test_domain_and_placement_validation(self):
        with pytest.raises(ValueError, match="domains"):
            FaultSchedule(domains=0)
        with pytest.raises(ValueError, match="placement"):
            FaultSchedule(placement="diagonal")
        with pytest.raises(ValueError, match="domain"):
            FaultSchedule(
                experiments=(CorrelatedFailure(domain=3, at=0.1),), domains=2
            )
        with pytest.raises(ValueError, match="at"):
            CorrelatedFailure(domain=0, at=-1.0)
        with pytest.raises(ValueError, match="stagger"):
            CorrelatedFailure(domain=0, at=0.1, stagger=-0.5)

    def _domain_crash_sweep(self, placement):
        workload = Workload(
            "ranking", drm1(), PoissonArrivals(120.0, seed=7), request_seed=3
        )
        return availability_sweep(
            workload,
            ShardingConfiguration("load-bal", 4),
            (CorrelatedFailure(domain=0, at=0.05),),
            replica_counts=(2,),
            domains=2,
            placement=placement,
            settings=SuiteSettings(num_requests=60, pooling_requests=100),
        )

    def test_spread_retains_more_nines_than_packed(self):
        spread = self._domain_crash_sweep("spread")
        packed = self._domain_crash_sweep("packed")
        spread_retention = spread.outcomes[0].report.slo_retention
        packed_retention = packed.outcomes[0].report.slo_retention
        # Spread placement stripes each shard's replicas across domains,
        # so the domain crash leaves every shard a survivor; packed
        # placement loses both replicas of half the shards outright.
        assert spread_retention > packed_retention
        assert not (spread.outcomes[0].result.status == 1).any()
        assert (packed.outcomes[0].result.status == 1).any()

    def test_domain_crash_timeline_and_report_header(self):
        assessment = self._domain_crash_sweep("spread")
        kinds = [e.kind for e in assessment.outcomes[0].timeline]
        assert "domain-crash" in kinds
        assert "correlated-crash" in kinds
        text = "\n".join(format_assessment(assessment))
        assert "fault domains: 2 (placement spread)" in text

    def test_correlated_restart_recovers(self):
        model, plan, requests, schedule = open_loop_inputs(80, qps=100.0)
        chaos = FaultSchedule(
            experiments=(
                CorrelatedFailure(domain=0, at=0.1, restart_after=0.2),
            ),
            domains=2,
            placement="packed",
        )
        result = run_configuration(
            model, plan, requests,
            ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos),
            schedule,
        )
        degraded_ids = set(result.request_ids[result.status == 1].tolist())
        assert degraded_ids
        arrivals = PoissonArrivals(100.0, seed=7).arrival_times(80)
        late = [rid for rid in range(80) if arrivals[rid] > 0.35]
        assert late and not (set(late) & degraded_ids)

    def test_stagger_draws_are_deterministic(self):
        model, plan, requests, schedule = open_loop_inputs(40)
        chaos = FaultSchedule(
            experiments=(
                CorrelatedFailure(domain=0, at=0.1, stagger=0.05),
            ),
            domains=2,
            replicas=2,
        )
        serving = ServingConfig(trace_mode=TraceMode.AGGREGATE, chaos=chaos)
        first = run_configuration(model, plan, requests, serving, schedule)
        second = run_configuration(model, plan, requests, serving, schedule)
        assert np.array_equal(first.e2e, second.e2e)
        assert first.chaos_timeline == second.chaos_timeline
        crash_times = [
            e.time for e in first.chaos_timeline
            if e.kind == "correlated-crash"
        ]
        assert crash_times
        assert all(0.1 <= t <= 0.15 + 1e-12 for t in crash_times)
