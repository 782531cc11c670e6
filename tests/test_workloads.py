"""Workload-subsystem tests: arrival processes, mixes, cache-aware streams.

Covers the compatibility contract (``ReplaySchedule`` names the two
arrival processes, whose classic streams stay byte-identical),
arrival-stream determinism across rate spellings and across sweep
worker counts, stable mix
merging, the FULL == AGGREGATE bit-for-bit guarantee for co-located
multi-model runs (including the per-workload label column), and the
correlated sparse-ID stream feeding the caching analysis.
"""

import numpy as np
import pytest
from span_oracle import assert_matches_oracle, oracle_mix

from repro.analysis.caching import cache_curve, trace_hit_summary
from repro.core.rng import substream
from repro.experiments import (
    ShardingConfiguration,
    SuiteSettings,
    mix_configurations,
    paper_configurations,
    run_mix_configuration,
    run_mix_suite,
    run_suite,
)
from repro.experiments.configs import build_plan
from repro.experiments.runner import mix_stream
from repro.models import drm1, drm2
from repro.requests import (
    CorrelatedStream,
    ReplaySchedule,
    RequestGenerator,
    collect_access_trace,
    collect_correlated_trace,
)
from repro.serving import ClusterSimulation, ServingConfig
from repro.planning.elasticity import diurnal_qps_curve as elasticity_curve
from repro.sharding import estimate_pooling_factors, singular_plan
from repro.workloads import (
    ConstantRateArrivals,
    MMPPArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    SerialArrivals,
    Workload,
    WorkloadMix,
    diurnal_qps_curve,
)

SETTINGS = SuiteSettings(
    num_requests=12, pooling_requests=120, serving=ServingConfig(seed=1)
)
TWO_CONFIGS = (
    ShardingConfiguration("singular"),
    ShardingConfiguration("load-bal", 2),
)


def small_mix(arrivals_a=None, arrivals_b=None) -> WorkloadMix:
    return WorkloadMix(
        (
            Workload(
                "ranking", drm1(),
                arrivals_a or PiecewiseRateArrivals.diurnal(50.0, seed=7),
                request_seed=3,
            ),
            Workload(
                "retrieval", drm2(),
                arrivals_b or PiecewiseRateArrivals.diurnal(30.0, seed=8),
                request_seed=4,
            ),
        )
    )


class TestReplayScheduleFacade:
    """Count validation + byte-identical classic streams, through the
    historical ``ReplaySchedule`` spellings."""

    def test_negative_count_raises_clearly(self):
        with pytest.raises(ValueError, match="count must be >= 0"):
            ReplaySchedule.open_loop(25.0).arrival_times(-1)
        with pytest.raises(ValueError, match="count must be >= 0"):
            ReplaySchedule.serial().arrival_times(-3)

    def test_non_integer_count_raises(self):
        with pytest.raises(TypeError, match="count must be an integer"):
            ReplaySchedule.open_loop(25.0).arrival_times(2.5)

    def test_zero_count_returns_empty_array_open_loop(self):
        times = ReplaySchedule.open_loop(25.0).arrival_times(0)
        assert isinstance(times, np.ndarray)
        assert times.shape == (0,)

    def test_zero_count_returns_none_serial(self):
        assert ReplaySchedule.serial().arrival_times(0) is None
        assert ReplaySchedule.serial().arrival_times(5) is None

    def test_open_loop_stream_is_byte_identical_to_history(self):
        """The alias must replay the exact historical Poisson stream."""
        schedule = ReplaySchedule.open_loop(25.0, seed=2)
        historical = np.cumsum(
            substream(2, "arrivals", 25.0).exponential(1.0 / 25.0, size=400)
        )
        assert np.array_equal(schedule.arrival_times(400), historical)
        assert np.array_equal(
            PoissonArrivals(25.0, seed=2).arrival_times(400), historical
        )


class TestArrivalDeterminism:
    """Satellite: identical streams across int/float/numpy rate spellings."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda rate: PoissonArrivals(rate, seed=1),
            lambda rate: ConstantRateArrivals(rate),
            lambda rate: PiecewiseRateArrivals.diurnal(rate, seed=1),
            lambda rate: MMPPArrivals((rate, 4 * rate), 30.0, seed=1),
        ],
        ids=["poisson", "constant", "diurnal", "mmpp"],
    )
    def test_rate_spellings_share_one_stream(self, factory):
        spellings = [25, 25.0, np.float64(25.0), np.int64(25)]
        streams = [factory(rate).arrival_times(300) for rate in spellings]
        for other in streams[1:]:
            assert np.array_equal(streams[0], other)
        assert factory(25) == factory(np.float64(25.0))

    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(40.0, seed=5),
            ConstantRateArrivals(40.0),
            PiecewiseRateArrivals.diurnal(40.0, seed=5),
            MMPPArrivals((10.0, 120.0), 45.0, seed=5),
        ],
        ids=["poisson", "constant", "diurnal", "mmpp"],
    )
    def test_streams_are_sorted_prefix_stable_and_replayable(self, process):
        times = process.arrival_times(500)
        assert times.shape == (500,)
        assert np.all(np.diff(times) >= 0.0)
        assert np.all(times >= 0.0)
        assert np.array_equal(times, process.arrival_times(500))
        # Prefix stability: asking for fewer arrivals replays a prefix.
        assert np.array_equal(times[:200], process.arrival_times(200))
        assert process.arrival_times(0).shape == (0,)

    def test_piecewise_tracks_its_rate_curve(self):
        """More arrivals land in high-rate segments than low-rate ones."""
        process = PiecewiseRateArrivals(
            rates=(5.0, 100.0), interval_seconds=100.0, seed=3
        )
        times = process.arrival_times(4000)
        phase = times % process.period_seconds
        slow = int(np.count_nonzero(phase < 100.0))
        fast = len(times) - slow
        assert fast > 5 * slow

    def test_mmpp_is_burstier_than_poisson(self):
        """Squared coefficient of variation of gaps must exceed ~1."""
        bursty = MMPPArrivals((5.0, 150.0), 30.0, seed=9).arrival_times(4000)
        gaps = np.diff(bursty)
        cv2 = gaps.var() / gaps.mean() ** 2
        assert cv2 > 1.5

    @pytest.mark.parametrize(
        "arrivals",
        [
            PoissonArrivals(200.0, seed=11),
            PiecewiseRateArrivals.diurnal(200.0, seed=11),
        ],
        ids=["poisson", "diurnal"],
    )
    def test_suite_matches_parallel_suite(self, arrivals):
        """Satellite: one worker == two workers under any arrival process."""
        mix = WorkloadMix((Workload("ranking", drm1(), arrivals),))
        serial = run_mix_suite(mix, SETTINGS, TWO_CONFIGS, max_workers=1)
        parallel = run_mix_suite(mix, SETTINGS, TWO_CONFIGS, max_workers=2)
        assert list(serial) == list(parallel)
        for label in serial:
            assert np.array_equal(serial[label].e2e, parallel[label].e2e), label
            assert np.array_equal(serial[label].cpu, parallel[label].cpu), label


class TestDiurnalCurveDedup:
    """Satellite: one diurnal curve shared by elasticity and arrivals."""

    def test_elasticity_reexports_the_workloads_curve(self):
        assert elasticity_curve is diurnal_qps_curve

    def test_defaults_match_historical_output(self):
        curve = diurnal_qps_curve(1000.0, 0.4)
        phase = 2.0 * np.pi * (np.arange(24) / 24)
        historical = 1000.0 * (0.7 - 0.3 * np.cos(phase))
        assert np.array_equal(curve, historical)

    def test_generalized_sampling_covers_same_day(self):
        coarse = diurnal_qps_curve(100.0, 0.5, hours=24)
        fine = diurnal_qps_curve(100.0, 0.5, hours=24, samples=96)
        assert len(fine) == 96
        # Every 4th fine sample sits on the hourly grid.
        assert np.allclose(fine[::4], coarse)

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            diurnal_qps_curve(100.0, trough_fraction=0.0)
        with pytest.raises(ValueError):
            diurnal_qps_curve(100.0, samples=0)
        with pytest.raises(ValueError):
            diurnal_qps_curve(100.0, period_hours=0.0)


class TestWorkloadMix:
    def test_merge_is_stable_under_equal_timestamps(self):
        """Satellite: equal-time arrivals keep workload declaration order."""
        mix = WorkloadMix(
            (
                Workload("a", drm1(), ConstantRateArrivals(10.0), request_seed=1),
                Workload("b", drm1(), ConstantRateArrivals(10.0), request_seed=2),
            )
        )
        stream = mix.sample(6)
        # Identical constant-rate processes collide at every timestamp:
        # workload a must precede workload b at each collision.
        assert stream.workload_ids.tolist() == [0, 1] * 6
        assert [r.request_id for r in stream.requests] == list(range(12))
        # Times are the merged nondecreasing union.
        assert np.all(np.diff(stream.times) >= 0.0)
        assert stream.counts == (6, 6)

    def test_sample_rejects_serial_arrivals_and_bad_counts(self):
        serial_workload = Workload("s", drm1(), SerialArrivals())
        with pytest.raises(ValueError, match="serial arrivals"):
            serial_workload.sample(4)
        mix = small_mix()
        with pytest.raises(ValueError, match="counts"):
            mix.sample([3])
        with pytest.raises(ValueError, match="unique"):
            WorkloadMix(
                (
                    Workload("x", drm1(), ConstantRateArrivals(1.0)),
                    Workload("x", drm2(), ConstantRateArrivals(1.0)),
                )
            )
        with pytest.raises(ValueError, match="at least one"):
            WorkloadMix(())

    def test_per_workload_counts(self):
        stream = small_mix().sample([5, 9])
        assert stream.counts == (5, 9)
        assert len(stream) == 14
        assert np.count_nonzero(stream.workload_ids == 0) == 5
        assert np.count_nonzero(stream.workload_ids == 1) == 9

    def test_request_timestamps_are_arrival_times(self):
        """Diurnal size modulation must track the arrival curve."""
        stream = small_mix().sample(8)
        for time, _, request in stream:
            assert request.timestamp == pytest.approx(time)


class TestMixConfigurations:
    def test_same_model_keeps_full_matrix(self):
        assert mix_configurations(["DRM1", "DRM2"]) == paper_configurations("DRM1")

    def test_drm3_restricts_the_intersection(self):
        common = mix_configurations(["DRM1", "DRM3"])
        assert common == paper_configurations("DRM3")
        assert all(c.strategy in ("singular", "1-shard", "NSBP") for c in common)

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            mix_configurations([])


class TestColocatedCluster:
    def test_single_tenant_colocated_matches_classic(self):
        """A one-tenant colocated cluster is byte-identical to the classic
        single-model constructor (same substream keys, same hosts)."""
        model = drm1()
        plan = singular_plan(model)
        requests = RequestGenerator(model, seed=3).generate_many(6)
        classic = ClusterSimulation(model, plan, ServingConfig(seed=1))
        classic.run_serial(requests)
        requests2 = RequestGenerator(model, seed=3).generate_many(6)
        colocated = ClusterSimulation.colocated(
            [(model, plan)], ServingConfig(seed=1)
        )
        colocated.run_serial(requests2)
        assert classic.completed == colocated.completed

    def test_mix_columns_match_span_oracle(self):
        """Acceptance: two-model diurnal mix, every column -- the
        per-workload label column included -- equals the span
        attribution of the same co-located replay."""
        mix = small_mix()
        results = run_mix_suite(mix, SETTINGS, TWO_CONFIGS)
        stream = mix_stream(mix, SETTINGS)
        poolings = [
            estimate_pooling_factors(workload.model, num_requests=120, seed=42)
            for workload in mix.workloads
        ]
        for configuration in TWO_CONFIGS:
            result = results[configuration.label]
            assert len(result) == 24
            assert result.workload_labels == ("ranking", "retrieval")
            assert all(len(e2e) == 12 for e2e in result.per_workload_e2e().values())
            plans = [
                build_plan(workload.model, configuration, pooling)
                for workload, pooling in zip(mix.workloads, poolings)
            ]
            assert_matches_oracle(
                result,
                oracle_mix(mix, plans, stream, SETTINGS.serving),
                workload_ids=stream.workload_ids,
                label=configuration.label,
            )

    def test_mix_serial_matches_parallel(self):
        mix = small_mix()
        serial = run_mix_suite(mix, SETTINGS, TWO_CONFIGS, max_workers=1)
        parallel = run_mix_suite(mix, SETTINGS, TWO_CONFIGS, max_workers=2)
        assert list(serial) == list(parallel)
        for label in serial:
            assert np.array_equal(serial[label].e2e, parallel[label].e2e)
            assert np.array_equal(serial[label].workloads, parallel[label].workloads)

    def test_per_workload_views(self):
        mix = small_mix()
        stream = mix.sample(10)
        plans = [singular_plan(w.model) for w in mix.workloads]
        result = run_mix_configuration(mix, plans, stream, ServingConfig(seed=1))
        per = result.per_workload_e2e()
        assert set(per) == {"ranking", "retrieval"}
        assert sum(len(v) for v in per.values()) == len(result) == 20
        assert np.count_nonzero(result.workload_mask("ranking")) == 10
        assert result.plans == plans

    def test_colocation_contends_on_shared_hosts(self):
        """Co-located replay must be slower than the same workload running
        the same stream alone on the same hosts (worker contention)."""
        mix = small_mix(
            arrivals_a=PoissonArrivals(2000.0, seed=7),
            arrivals_b=PoissonArrivals(2000.0, seed=8),
        )
        serving = ServingConfig(seed=1, service_workers=2)
        stream = mix.sample(30)
        plans = [singular_plan(w.model) for w in mix.workloads]
        together = run_mix_configuration(mix, plans, stream, serving)
        ranking_alone = WorkloadMix((mix.workloads[0],))
        alone = run_mix_configuration(
            ranking_alone,
            [plans[0]],
            ranking_alone.sample(30),
            serving,
        )
        together_p99 = np.percentile(together.per_workload_e2e()["ranking"], 99)
        alone_p99 = np.percentile(alone.e2e, 99)
        assert together_p99 > alone_p99

    def test_classic_runs_default_to_one_workload_label(self):
        model = drm1()
        results = run_suite(model, SETTINGS, TWO_CONFIGS)
        for result in results.values():
            assert result.workload_labels == (model.name,)
            assert np.array_equal(result.workloads, np.zeros(len(result), dtype=np.int64))

    def test_run_stream_rejects_time_travel(self):
        model = drm1()
        cluster = ClusterSimulation(model, singular_plan(model), ServingConfig(seed=1))
        requests = RequestGenerator(model, seed=3).generate_many(2)
        with pytest.raises(ValueError, match="nondecreasing"):
            cluster.run_stream([(1.0, 0, requests[0]), (0.5, 0, requests[1])])


class TestCorrelatedStream:
    def test_trace_is_deterministic(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(30)
        stream = CorrelatedStream(recency_weight=0.4, window=512, seed=5)
        first = collect_correlated_trace(model, requests, stream)
        second = collect_correlated_trace(model, requests, stream)
        assert first.tables() == second.tables()
        for name in first.tables():
            assert np.array_equal(first.accesses[name], second.accesses[name])

    def test_recency_raises_lru_hit_rate(self):
        """The cache-aware loop: recency-correlated streams must be more
        cacheable online than i.i.d. popularity draws."""
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(60)
        iid = collect_access_trace(model, requests, seed=5)
        correlated = collect_correlated_trace(
            model, requests, CorrelatedStream(recency_weight=0.5, window=1024, seed=5)
        )
        iid_hits = trace_hit_summary(iid, cache_fraction=0.05)["overall"]
        correlated_hits = trace_hit_summary(correlated, cache_fraction=0.05)["overall"]
        assert correlated_hits > iid_hits

    def test_workload_trace_follows_its_stream_option(self):
        model = drm1()
        requests = RequestGenerator(model, seed=3).generate_many(20)
        stream = CorrelatedStream(recency_weight=0.3, seed=3)
        workload = Workload(
            "w", model, ConstantRateArrivals(10.0), request_seed=3, id_stream=stream
        )
        correlated = workload.access_trace(requests)
        reference = collect_correlated_trace(model, requests, stream)
        for name in reference.tables():
            assert np.array_equal(
                correlated.accesses[name], reference.accesses[name]
            )
        # Default (no stream) falls back to the i.i.d. collector.
        iid = Workload(
            "w", model, ConstantRateArrivals(10.0), request_seed=3
        ).access_trace(requests)
        reference = collect_access_trace(model, requests, seed=3)
        for name in reference.tables():
            assert np.array_equal(iid.accesses[name], reference.accesses[name])

    def test_trace_feeds_caching_analysis_directly(self):
        model = drm1()
        workload = Workload(
            "w", model, ConstantRateArrivals(50.0), request_seed=3,
            id_stream=CorrelatedStream(recency_weight=0.3, seed=1),
        )
        _, requests = workload.sample(25)
        trace = workload.access_trace(requests)
        summary = trace_hit_summary(trace, cache_fraction=0.1)
        assert set(summary) == set(trace.tables()) | {"overall"}
        assert all(0.0 <= rate <= 1.0 for rate in summary.values())
        points = cache_curve(
            trace, trace.tables()[0], fractions=(0.05, 0.25), policies=("lru",)
        )
        assert [p.cache_fraction for p in points] == [0.05, 0.25]
        assert all(0.0 <= p.hit_rate <= 1.0 for p in points)

    def test_invalid_stream_parameters_raise(self):
        with pytest.raises(ValueError):
            CorrelatedStream(recency_weight=1.0)
        with pytest.raises(ValueError):
            CorrelatedStream(window=0)

    def test_mix_access_traces_split_by_workload(self):
        mix = small_mix()
        stream = mix.sample(10)
        traces = mix.access_traces(stream)
        assert set(traces) == {"ranking", "retrieval"}
        assert traces["ranking"].num_requests == 10
        assert traces["retrieval"].num_requests == 10

    def test_trace_is_invariant_to_colocation(self):
        """A workload's trace is position-keyed: identical whether its
        stream was sampled alone or renumbered inside a mix."""
        mix = small_mix()
        mixed = mix.access_traces(mix.sample(10))
        for workload in mix.workloads:
            solo_mix = WorkloadMix((workload,))
            solo = solo_mix.access_traces(solo_mix.sample(10))[workload.name]
            for name in solo.tables():
                assert np.array_equal(
                    solo.accesses[name], mixed[workload.name].accesses[name]
                ), (workload.name, name)
