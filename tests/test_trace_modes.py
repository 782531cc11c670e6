"""Attribution regression tests: the columns against the span oracle.

Every :class:`~repro.experiments.runner.RunResult` is attributed by the
span-free aggregate accumulator (on the columnar replay or the DES).  The
independent oracle replays the same inputs on a cluster that records
real spans and attributes each popped request with
:func:`~repro.tracing.attribution.attribute_request`; every column --
e2e/cpu, the three stacks, operator CPU, RPC and batch counts, chaos and
resilience flags, workload labels, and the per-shard and per-(shard,
net) columns -- must match it bit for bit.  No tracer may retain state
once a replay with incremental completion consumption finishes.
"""

import dataclasses

import numpy as np
import pytest

from span_oracle import (
    assert_matches_oracle,
    assert_outcomes_conserved,
    oracle_configuration,
    oracle_mix,
)

from repro.chaos import FaultSchedule, HostCrash, NetworkSpike, StragglerShard
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    paper_configurations,
    run_configuration,
    run_mix_suite,
    run_suite,
)
from repro.experiments.runner import mix_stream, sequential_sum
from repro.models import drm1, drm2, drm3
from repro.requests import RequestGenerator, ReplaySchedule
from repro.resilience import ResiliencePolicy
from repro.serving import ClusterSimulation, ServingConfig, TraceMode
from repro.sharding import estimate_pooling_factors, singular_plan
from repro.tracing import AggregatingTracer, MAIN_SHARD, Layer, Span, Tracer
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix

SERIAL = SuiteSettings(num_requests=25, pooling_requests=150, serving=ServingConfig(seed=1))


def assert_suite_matches_oracle(model, settings, results):
    """Replay every configuration of ``results`` on the span oracle."""
    requests = RequestGenerator(
        model, seed=settings.request_seed
    ).generate_many(settings.num_requests)
    pooling = estimate_pooling_factors(
        model, num_requests=settings.pooling_requests, seed=settings.pooling_seed
    )
    serving = settings.resolved_serving()
    schedule = settings.schedule
    configurations = paper_configurations(model.name)
    assert list(results) == [
        build_plan(model, c, pooling).label for c in configurations
    ]
    for configuration in configurations:
        plan = build_plan(model, configuration, pooling)
        oracle = oracle_configuration(model, plan, requests, serving, schedule)
        assert_matches_oracle(results[plan.label], oracle, label=plan.label)


class TestColumnsMatchSpanOracle:
    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_every_paper_configuration(self, factory):
        model = factory()
        results = run_suite(model, SERIAL)
        assert {r.kernel_used for r in results.values()} == {"vectorized"}
        assert_suite_matches_oracle(model, SERIAL, results)

    def test_open_loop_with_clock_skew(self):
        """Queueing overlap + skewed wall clocks exercise every stack path."""
        model = drm1()
        settings = SuiteSettings(
            num_requests=40,
            pooling_requests=150,
            serving=ServingConfig(seed=1, service_workers=2, clock_skew_sigma=0.002),
            schedule=ReplaySchedule.open_loop(25.0, seed=2),
        )
        results = run_suite(model, settings)
        # The hybrid replay: idle arrivals that fit the 2-worker pools
        # take the evaluator, the rest the DES -- both attributed into
        # one collector.
        assert {r.kernel_used for r in results.values()} == {"vectorized"}
        for result in results.values():
            assert 0 < result.des_requests < len(result), result.label
        assert_suite_matches_oracle(model, settings, results)

    @pytest.mark.parametrize(
        "replicas, fault, resilience",
        [
            # In-flight RPCs caught by the crash fail over: retries.
            (2, HostCrash(shard=0, at=0.2, restart_after=0.3), None),
            # No replica to fail over to: degraded responses, while the
            # policy retries on timeouts, hedges and flags deadlines.
            (
                1,
                HostCrash(shard=1, at=0.1, restart_after=0.1),
                ResiliencePolicy(
                    rpc_timeout=5e-3, max_attempts=3, hedge_delay=2e-3,
                    deadline=0.02,
                ),
            ),
            # A straggling shard scales its rpc_e2e service charge, which
            # then differs from the cost model's fixed service cost.
            (1, StragglerShard(shard=0, start=0.0, duration=10.0), None),
        ],
        ids=["chaos-retries", "chaos-resilience", "chaos-straggler"],
    )
    def test_chaos_and_resilience_flags(self, replicas, fault, resilience):
        """Failovers, degraded responses, policy attempts, hedges,
        deadline flags and straggler-scaled CPU land in the columns
        exactly as the span replay sees them."""
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 4), pooling)
        settings = SuiteSettings(
            num_requests=50, schedule=ReplaySchedule.open_loop(120.0, seed=2)
        )
        requests = RequestGenerator(
            model, seed=settings.request_seed
        ).generate_many(settings.num_requests)
        serving = ServingConfig(
            seed=1,
            chaos=FaultSchedule(
                experiments=(
                    NetworkSpike(start=0.1, duration=0.4, extra_latency=0.05),
                    fault,
                ),
                replicas=replicas,
            ),
            resilience=resilience,
        )
        schedule = settings.schedule
        result = run_configuration(model, plan, requests, serving, schedule)
        # The schedule and the policy actually bit.
        if isinstance(fault, StragglerShard):
            cpu = result.mean_cpu_by_shard()
            assert cpu[0] > 2.0 * cpu[1]
        elif resilience is None:
            assert result.retries.sum() > 0
        else:
            assert result.degraded.sum() > 0 and result.hedged.sum() > 0
            assert result.attempts.sum() > 0
            assert result.deadline_exceeded.sum() > 0
        assert_outcomes_conserved(result)
        assert_matches_oracle(
            result, oracle_configuration(model, plan, requests, serving, schedule)
        )

    def test_colocated_mix(self):
        mix = WorkloadMix(
            (
                Workload(
                    "drm1-mix", drm1(),
                    PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
                ),
                Workload(
                    "drm2-mix", drm2(),
                    PiecewiseRateArrivals.diurnal(30.0, seed=8), request_seed=4,
                ),
            )
        )
        settings = SuiteSettings(
            num_requests=15, pooling_requests=150, serving=ServingConfig(seed=1)
        )
        configuration = ShardingConfiguration("load-bal", 2)
        results = run_mix_suite(mix, settings, (configuration,))
        stream = mix_stream(mix, settings)
        plans = [
            build_plan(
                workload.model, configuration,
                estimate_pooling_factors(workload.model, num_requests=150, seed=42),
            )
            for workload in mix.workloads
        ]
        result = results[configuration.label]
        assert set(result.workloads.tolist()) == {0, 1}
        assert_matches_oracle(
            result,
            oracle_mix(mix, plans, stream, settings.serving),
            workload_ids=stream.workload_ids,
        )

    @pytest.mark.parametrize("kernel", ["vectorized", "batched"])
    def test_net_bits_decode_past_32_nets(self, kernel):
        """A record's net bits index the request's nets up to the
        64-net field width on both paths: DRM3's 39 tables spread over
        36 nets, so sparse ops run on nets 32-35 too."""
        base = drm3()
        nets = tuple(
            dataclasses.replace(base.nets[0], name=f"net{k}") for k in range(36)
        )
        model = dataclasses.replace(
            base,
            nets=nets,
            tables=tuple(
                dataclasses.replace(table, net=nets[min(k, 35)].name)
                for k, table in enumerate(base.tables)
            ),
        )
        pooling = estimate_pooling_factors(model, num_requests=20, seed=42)
        plan = build_plan(model, ShardingConfiguration("1-shard", 1), pooling)
        requests = RequestGenerator(model, seed=3).generate_many(3)
        serving = ServingConfig(seed=1, kernel=kernel)
        result = run_configuration(model, plan, requests, serving)
        assert result.kernel_used == kernel
        assert {net for _, net in result.mean_per_shard_net_op_time()} >= {
            "net32", "net35",
        }
        assert_matches_oracle(
            result, oracle_configuration(model, plan, requests, serving)
        )

    def test_figure_totals_match_span_sums(self):
        """Fig 4's operator-CPU totals and Fig 10's per-(shard, net) means
        are sequential sums: the bytes a per-request Python loop over the
        span attributions produces."""
        model = drm3()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        requests = RequestGenerator(
            model, seed=SERIAL.request_seed
        ).generate_many(SERIAL.num_requests)
        for configuration in (
            ShardingConfiguration("singular"),
            ShardingConfiguration("NSBP", 4),
        ):
            plan = build_plan(model, configuration, pooling)
            result = run_configuration(model, plan, requests, SERIAL.serving)
            rows, _ = oracle_configuration(model, plan, requests, SERIAL.serving)
            attributions = [row[0] for row in rows]
            assert sequential_sum(result.sparse_op_cpu) == sum(
                a.sparse_op_cpu for a in attributions
            )
            assert sequential_sum(result.dense_op_cpu) == sum(
                a.dense_op_cpu for a in attributions
            )
            totals: dict = {}
            for a in attributions:
                for key, value in a.per_shard_net_op_time.items():
                    totals[key] = totals.get(key, 0.0) + value
            expected = {
                key: value / len(attributions)
                for key, value in sorted(totals.items())
            }
            assert result.mean_per_shard_net_op_time() == expected
            assert list(result.mean_per_shard_net_op_time()) == list(expected)
            assert (expected == {}) == plan.is_singular

    def test_trace_mode_does_not_change_results(self):
        """``trace_mode`` no longer forks attribution: a FULL and an
        AGGREGATE sweep are the same accumulator run."""
        model = drm1()
        full = run_suite(
            model, SuiteSettings(
                num_requests=15, pooling_requests=150,
                serving=ServingConfig(seed=1), trace_mode=TraceMode.FULL,
            ),
        )
        aggregate = run_suite(
            model, SuiteSettings(
                num_requests=15, pooling_requests=150,
                serving=ServingConfig(seed=1), trace_mode=TraceMode.AGGREGATE,
            ),
        )
        assert list(full) == list(aggregate)
        for label in full:
            f, a = full[label], aggregate[label]
            assert f.kernel_used == a.kernel_used == "vectorized", label
            assert np.array_equal(f.e2e, a.e2e), label
            assert np.array_equal(f.cpu, a.cpu), label
            assert f.mean_per_shard_net_op_time() == a.mean_per_shard_net_op_time()

    def test_parallel_matches_serial(self):
        model = drm1()
        serial = run_suite(model, SERIAL, max_workers=1)
        parallel = run_suite(model, SERIAL, max_workers=2)
        assert list(serial) == list(parallel)
        for label in serial:
            s, p = serial[label], parallel[label]
            assert np.array_equal(s.e2e, p.e2e), label
            assert np.array_equal(s.sparse_op_cpu, p.sparse_op_cpu), label
            assert np.array_equal(s.rpcs, p.rpcs), label
            assert s.mean_per_shard_net_op_time() == p.mean_per_shard_net_op_time()

    def test_trace_mode_threads_through_serving_config(self):
        config = ServingConfig(seed=1, trace_mode=TraceMode.AGGREGATE)
        assert config.with_batch_size(64).trace_mode is TraceMode.AGGREGATE
        assert (
            ServingConfig().with_trace_mode(TraceMode.AGGREGATE).trace_mode
            is TraceMode.AGGREGATE
        )
        model = drm1()
        cluster = ClusterSimulation(model, singular_plan(model), config)
        assert isinstance(cluster.tracer, AggregatingTracer)
        # A bare cluster in the default mode is the span sink.
        bare = ClusterSimulation(model, singular_plan(model), ServingConfig(seed=1))
        assert isinstance(bare.tracer, Tracer)


class TestTracerDrained:
    """Satellite: tracers must not leak state for unfinished requests."""

    @pytest.mark.parametrize("mode", [TraceMode.FULL, TraceMode.AGGREGATE])
    def test_tracer_empty_after_incremental_replay(self, mode):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(8)
        cluster = ClusterSimulation(
            model, singular_plan(model), ServingConfig(seed=1, trace_mode=mode)
        )
        if mode is TraceMode.FULL:
            cluster.on_complete = lambda rid: cluster.tracer.pop_request(rid)
        else:
            cluster.on_complete = cluster.tracer.finalize_request
        cluster.run_serial(requests)
        cluster.tracer.assert_drained()
        assert cluster.tracer.in_flight() == 0
        assert cluster.dropped_requests == []

    def test_incomplete_requests_are_drained_not_leaked(self):
        """A request that never completes must be freed at end of replay."""
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(4)
        cluster = ClusterSimulation(model, singular_plan(model), ServingConfig(seed=1))
        cluster.on_complete = lambda rid: cluster.tracer.pop_request(rid)
        # Simulate a request that timed out mid-flight: its spans are in
        # the tracer but pop_request never ran for it.
        cluster.tracer.record(
            Span(
                request_id=999, shard=MAIN_SHARD, server="main",
                layer=Layer.SERDE, name="orphan", start=0.0, end=1.0,
            )
        )
        cluster.run_serial(requests)
        assert cluster.dropped_requests == [999]
        cluster.tracer.assert_drained()

    def test_trace_cli_path_keeps_spans_without_hook(self):
        """Without on_complete the caller owns the trace; nothing dropped."""
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(2)
        cluster = ClusterSimulation(model, singular_plan(model), ServingConfig(seed=1))
        cluster.run_serial(requests)
        assert cluster.dropped_requests == []
        assert cluster.tracer.in_flight() == 2
        with pytest.raises(RuntimeError, match="still holds"):
            cluster.tracer.assert_drained()

    def test_full_tracer_drain_incomplete(self):
        tracer = Tracer()
        tracer.record(
            Span(
                request_id=5, shard=MAIN_SHARD, server="main",
                layer=Layer.SERDE, name="x", start=0.0, end=1.0,
            )
        )
        assert tracer.drain_incomplete() == [5]
        assert tracer.in_flight() == 0
        tracer.assert_drained()

    def test_aggregate_tracer_drain_incomplete(self):
        tracer = AggregatingTracer()

        class _Server:
            clock_skew = 0.0
            name = "main"

        tracer.record_interval(
            7, MAIN_SHARD, _Server(), Layer.SERDE, "x", 0.0, 1.0
        )
        assert tracer.in_flight() == 1
        assert tracer.drain_incomplete() == [7]
        tracer.assert_drained()
        assert tracer.count == 0
