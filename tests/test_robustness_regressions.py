"""Regression tests for runner/replayer edge cases fixed alongside the
trace-mode fast path: empty-run per-shard means, REPRO_SWEEP_WORKERS /
SuiteSettings / CLI request- and worker-count validation, CLI flag-value
validation before any replay, the removed ``--trace-mode``/``--kernel``
flags and replay knobs, the CLI profile's one-worker pin,
replay-schedule seeding, non-finite and non-integral library inputs
(request and pooling seeds included), repeated request ids and bad
stream entries, and the degenerate behaviors of the median-window stack
means.
"""

import math

import numpy as np
import pytest

import repro.requests
from repro.analysis.quantiles import median_window_mean, median_window_mean_columns
from repro.chaos import FaultSchedule
from repro.chaos.experiment import fault_schedules
from repro.cli import main
from repro.core.host import usable_cpus
from repro.experiments import SuiteSettings, default_workers, runner
from repro.experiments.parallel import WORKERS_ENV
from repro.experiments.runner import RunResult, run_configuration
from repro.models import drm1
from repro.requests import ReplaySchedule
from repro.requests.generator import RequestGenerator
from repro.resilience import ResiliencePolicy
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.simulation.costmodel import CostModel
from repro.sharding import singular_plan
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation import vectorized
from repro.workloads.arrivals import (
    PiecewiseRateArrivals,
    PoissonArrivals,
    SerialArrivals,
)
from repro.workloads.workload import Workload, WorkloadMix


class TestEmptyRunResult:
    """A run that completed zero requests must degrade, not divide by zero."""

    @pytest.fixture()
    def empty_result(self):
        model = drm1()
        return RunResult(model.name, "singular", singular_plan(model))

    def test_mean_per_shard_op_time_empty(self, empty_result):
        assert empty_result.mean_per_shard_op_time() == {}

    def test_mean_per_shard_net_op_time_empty(self, empty_result):
        assert empty_result.mean_per_shard_net_op_time() == {}

    def test_len_and_columns_empty(self, empty_result):
        assert len(empty_result) == 0
        assert empty_result.e2e.size == 0
        for kind in ("latency", "embedded", "cpu"):
            for column in empty_result.stack_columns(kind).values():
                assert column.size == 0


class TestDefaultWorkers:
    def test_default_is_usable_cpus(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert default_workers() == usable_cpus() >= 1

    def test_valid_value(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "3")
        assert default_workers() == 3

    @pytest.mark.parametrize("bad", ["", "two", "1.5"])
    def test_malformed_value_names_variable_and_value(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=WORKERS_ENV) as excinfo:
            default_workers()
        assert repr(bad) in str(excinfo.value)

    @pytest.mark.parametrize("bad", ["0", "-2"])
    def test_non_positive_rejected(self, monkeypatch, bad):
        monkeypatch.setenv(WORKERS_ENV, bad)
        with pytest.raises(ValueError, match=f"{WORKERS_ENV} must be >= 1"):
            default_workers()


class TestRemovedReplayKnobs:
    @pytest.mark.parametrize(
        "owner, name",
        [
            (SuiteSettings, "arrivals"),
            (ReplaySchedule, "process"),
            (ReplaySchedule, "from_arrivals"),
            (ClusterSimulation, "run_open_loop"),
            (repro.requests, "ReplayMode"),
            (runner, "suite_requests"),
            (vectorized, "VectorizedColumns"),
        ],
    )
    def test_knob_stays_removed(self, owner, name):
        """Arrival times come from an ``ArrivalProcess`` alone (a suite's
        ``SuiteSettings.schedule`` or a workload's ``arrivals``), every
        sweep replays through the mix driver, and every open-loop replay
        runs through ``ClusterSimulation.run_stream``.  The evaluator
        attributes into a plain ``AggregatingTracer``."""
        assert not hasattr(owner, name)

    def test_request_generator_takes_no_diurnal_amplitude(self):
        """The diurnal swing of request sizes is a module constant."""
        with pytest.raises(TypeError, match="diurnal_amplitude"):
            RequestGenerator(drm1(), seed=0, diurnal_amplitude=0.15)

    def test_replay_schedule_names_the_arrival_processes(self):
        """``ReplaySchedule`` is only the historical spelling of the two
        paper regimes: each call builds the arrival process itself."""
        assert ReplaySchedule.open_loop(25.0, seed=3) == PoissonArrivals(
            25.0, seed=3
        )
        assert ReplaySchedule.serial() == SerialArrivals()


class TestRequestCountValidation:
    def test_default_num_requests_ignores_the_benchmark_env(self, monkeypatch):
        """``REPRO_REQUESTS`` sizes the benchmarks only (their conftest
        reads it); library settings keep their own default."""
        monkeypatch.setenv("REPRO_REQUESTS", "17")
        assert SuiteSettings().num_requests == 200

    @pytest.mark.parametrize("bad", [0, -1, -3])
    def test_non_positive_num_requests_rejected(self, bad):
        with pytest.raises(ValueError, match="num_requests must be an integer >= 1"):
            SuiteSettings(num_requests=bad)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_non_positive_pooling_requests_rejected(self, bad):
        with pytest.raises(
            ValueError, match="pooling_requests must be an integer >= 1"
        ):
            SuiteSettings(pooling_requests=bad)

    @pytest.mark.parametrize(
        "argv",
        [
            ["suite", "--model", "DRM3", "--requests", "-3"],
            ["suite", "--model", "DRM3", "--requests", "0"],
            ["simulate", "--requests", "ten"],
            ["plan", "--models", "DRM1", "--pooling-requests", "0"],
            ["chaos", "--requests", "-1"],
            ["shard", "--pooling-requests", "-7"],
        ],
    )
    def test_cli_rejects_non_positive_counts(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "requests" in err and argv[-1] in err

    @pytest.mark.parametrize(
        "verb", [["suite"], ["plan", "--models", "DRM1"], ["chaos"]]
    )
    @pytest.mark.parametrize("bad", ["0", "-4"])
    def test_cli_rejects_non_positive_workers(self, verb, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([*verb, "--workers", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--workers" in err and bad in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["shard", "--shards", "0"],
            ["chaos", "--qps", "-5"],
            ["plan", "--slack", "-1"],
            ["chaos", "--hours", "0"],
            ["chaos", "--misses", "-1"],
            ["workload", "--qps", "nan"],
            ["plan", "--models", "DRM1", "--target-ms", "0"],
            ["chaos", "--slo-ms", "0"],
            ["plan", "--models", "DRM1", "--utilization", "1.5"],
            ["workload", "--trough-fraction", "2"],
            ["workload", "--cache-summary", "--recency-weight", "2"],
            ["workload", "--cache-summary", "--cache-fraction", "0"],
            [
                "plan", "--models", "DRM1", "--assess-availability",
                "--retry-max-attempts", "0",
            ],
            ["chaos", "--retry-max-attempts", "0"],
            ["chaos", "--replicas", "0"],
            ["plan", "--models", "DRM1", "--assess-replicas", "0"],
            ["chaos", "--domains", "0"],
            ["plan", "--models", "DRM1", "--domains", "0"],
            ["chaos", "--window", "0"],
            ["chaos", "--straggler", "1.5", "0", "0.1", "2"],
            ["shard", "--model", "DRM3", "--shards", "2"],
            ["simulate", "--model", "DRM3", "--strategy", "cap-bal", "--shards", "4"],
            # Plans the strategy cannot build, and a fault on a shard the
            # plans lack, are caught before the sweep too.
            ["workload", "--models", "DRM1", "DRM3", "--shards", "2"],
            ["chaos", "--model", "DRM3", "--shards", "2"],
            ["chaos", "--requests", "10", "--shards", "2", "--crash-shard", "5"],
            ["trace", "--width", "0"],
            ["trace", "--width", "-5"],
        ],
    )
    def test_cli_rejects_invalid_values(self, argv, capsys, monkeypatch):
        """Out-of-range flag values are usage errors: exit 2 with one
        error line naming the value, before any cluster is simulated --
        not a traceback, a silent fallback, or a failure after the
        sweep."""

        def no_replay(*args, **kwargs):
            raise AssertionError("a cluster was built before validation")

        monkeypatch.setattr(ClusterSimulation, "_setup", no_replay)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error_line = err.strip().splitlines()[-1]
        assert error_line.startswith(f"repro {argv[0]}: error:")
        bad = "1.5" if "--straggler" in argv else argv[-1]
        assert bad in error_line

    @pytest.mark.parametrize(
        "verb", ["simulate", "suite", "workload", "plan", "chaos"]
    )
    def test_cli_has_no_trace_mode_flag(self, verb, capsys):
        """Every run is attributed by the aggregate accumulator, so the
        run verbs no longer take ``--trace-mode``."""
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--trace-mode", "aggregate"])
        assert excinfo.value.code == 2
        assert "--trace-mode" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "verb", ["simulate", "suite", "workload", "plan", "chaos"]
    )
    def test_cli_has_no_kernel_flag(self, verb, capsys):
        """The CLI always runs the default kernel; the batched kernel is
        selected only through ``ServingConfig``."""
        with pytest.raises(SystemExit) as excinfo:
            main([verb, "--kernel", "batched"])
        assert excinfo.value.code == 2
        assert "--kernel" in capsys.readouterr().err


def test_replay_value_error_is_not_a_usage_error(monkeypatch):
    """Only config building maps ``ValueError`` to exit 2; an error
    raised once the sweep runs keeps its traceback."""
    from repro.chaos import experiment

    def failing_sweep(*args, **kwargs):
        raise ValueError("raised inside the replay")

    # ``repro chaos`` imports the sweep from its module when it runs.
    monkeypatch.setattr(experiment, "availability_sweep", failing_sweep)
    with pytest.raises(ValueError, match="inside the replay"):
        main(["chaos", "--requests", "5"])


def test_cli_profile_sees_the_replay(capsys):
    """``--profile`` pins one worker, so cProfile sees the replay itself,
    not a pool wait -- even when ``--workers`` asks for more."""
    argv = ["suite", "--model", "DRM3", "--requests", "5", "--workers", "2"]
    assert main([*argv, "--profile"]) == 0
    assert "run_mix_configuration" in capsys.readouterr().err


class TestReplayScheduleSeeding:
    def test_int_and_float_qps_replay_identically(self):
        int_times = ReplaySchedule.open_loop(25).arrival_times(500)
        float_times = ReplaySchedule.open_loop(25.0).arrival_times(500)
        assert np.array_equal(int_times, float_times)

    def test_numpy_scalar_qps_normalized(self):
        np_times = ReplaySchedule.open_loop(np.float64(25.0)).arrival_times(200)
        py_times = ReplaySchedule.open_loop(25.0).arrival_times(200)
        assert np.array_equal(np_times, py_times)
        assert type(ReplaySchedule.open_loop(np.float64(25.0)).qps) is float

    def test_different_rates_still_diverge(self):
        a = ReplaySchedule.open_loop(25.0).arrival_times(100)
        b = ReplaySchedule.open_loop(26.0).arrival_times(100)
        assert not np.array_equal(a, b)

    def test_schedules_compare_equal_across_spellings(self):
        assert ReplaySchedule.open_loop(25) == ReplaySchedule.open_loop(25.0)


class TestLibraryInputsFailLoudly:
    """Values the CLI's parsers reject fail at the library constructors
    too, instead of deep inside a replay (or not at all)."""

    @pytest.mark.parametrize("qps", [math.nan, math.inf])
    def test_open_loop_rejects_non_finite_qps(self, qps):
        with pytest.raises(ValueError, match="finite qps"):
            ReplaySchedule.open_loop(qps)

    @pytest.mark.parametrize("qps", [math.nan, math.inf])
    def test_poisson_arrivals_reject_non_finite_qps(self, qps):
        with pytest.raises(ValueError, match="finite qps"):
            PoissonArrivals(qps)

    @pytest.mark.parametrize("skew", [math.nan, math.inf, "0.001", True])
    def test_serving_config_rejects_non_finite_skew(self, skew):
        with pytest.raises(ValueError, match="clock_skew_sigma"):
            ServingConfig(clock_skew_sigma=skew)

    @pytest.mark.parametrize("bad", [2.5, 2.0, "2", True])
    @pytest.mark.parametrize(
        "name", ["service_workers", "max_batches", "batch_size"]
    )
    def test_serving_config_rejects_non_integral_counts(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ServingConfig(**{name: bad})

    @pytest.mark.parametrize(
        "name, bad",
        [
            ("io_threads", 2.5),
            ("io_threads", True),
            ("io_threads", "4"),
            ("rpc_service_fixed", "1e-6"),
            ("serde_bytes_per_sec", True),
            ("dense_pre_fraction", None),
        ],
    )
    def test_cost_model_rejects_non_numeric_fields(self, name, bad):
        with pytest.raises(ValueError, match=f"CostModel.{name} must be"):
            CostModel(**{name: bad})

    def test_serving_config_accepts_numpy_integers(self):
        config = ServingConfig(
            service_workers=np.int64(2), max_batches=np.int32(4),
            batch_size=np.int64(16), clock_skew_sigma=np.float64(0.001),
        )
        assert config.service_workers == 2

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_piecewise_arrivals_reject_non_finite_rates(self, rate):
        with pytest.raises(ValueError, match="finite, positive rates"):
            PiecewiseRateArrivals(rates=(5.0, rate))

    @pytest.mark.parametrize("peak", [math.nan, math.inf])
    def test_diurnal_rejects_non_finite_peak(self, peak):
        with pytest.raises(ValueError, match="finite, positive rates"):
            PiecewiseRateArrivals.diurnal(peak)

    @pytest.mark.parametrize("interval", [math.nan, math.inf])
    def test_piecewise_arrivals_reject_non_finite_interval(self, interval):
        with pytest.raises(ValueError, match="interval_seconds"):
            PiecewiseRateArrivals(rates=(5.0,), interval_seconds=interval)

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, "2"])
    def test_resilience_policy_rejects_non_integral_attempts(self, bad):
        with pytest.raises(ValueError, match="max_attempts must be an integer"):
            ResiliencePolicy(max_attempts=bad)

    def test_resilience_policy_rejects_infinite_backoff(self):
        # NaN was already rejected; an infinite base scheduled the retry
        # at t=inf.
        with pytest.raises(ValueError, match="backoff_base must be finite"):
            ResiliencePolicy(max_attempts=2, backoff_base=math.inf)

    def test_resilience_policy_accepts_numpy_integers(self):
        policy = ResiliencePolicy(max_attempts=np.int64(3), backoff_base=1e-4)
        assert policy.max_attempts == 3

    @pytest.mark.parametrize("bad", [1.5, 2.0, True, "2", 0])
    @pytest.mark.parametrize("name", ["replicas", "domains"])
    def test_fault_schedule_rejects_non_integral_counts(self, name, bad):
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            FaultSchedule(**{name: bad})

    @pytest.mark.parametrize("bad", [2.5, 2.0, True, math.nan, "2"])
    @pytest.mark.parametrize("name", ["num_requests", "pooling_requests"])
    def test_suite_settings_reject_non_integral_counts(self, name, bad):
        # 2.5 died later in generate_many, True ran one request, NaN and
        # 2.5 pooling requests died in estimate_pooling_factors.
        with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
            SuiteSettings(**{name: bad})

    def test_suite_settings_accept_numpy_integers(self):
        settings = SuiteSettings(
            num_requests=np.int64(3), pooling_requests=np.int32(5)
        )
        assert (settings.num_requests, settings.pooling_requests) == (3, 5)

    @pytest.mark.parametrize("bad", [2.5, math.nan, True, 0])
    def test_pooling_estimate_rejects_non_integral_counts(self, bad):
        with pytest.raises(ValueError, match="num_requests must be an integer >= 1"):
            estimate_pooling_factors(drm1(), num_requests=bad)

    @pytest.mark.parametrize("bad", [2.7, True, "3", math.nan, None])
    def test_request_generator_rejects_non_integral_seeds(self, bad):
        # 2.7 replayed seed 2, True seed 1, and "3" seed 3.
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            RequestGenerator(drm1(), seed=bad)

    @pytest.mark.parametrize("bad", [42.9, True, "42"])
    def test_pooling_estimate_rejects_non_integral_seeds(self, bad):
        # 42.9 returned seed 42's estimate under a different cache key.
        with pytest.raises(ValueError, match="seed must be an integer, got"):
            estimate_pooling_factors(drm1(), num_requests=5, seed=bad)

    @pytest.mark.parametrize(
        "count, error",
        [
            ([2.7], TypeError),
            (True, ValueError),
            ([True], ValueError),
            (2.0, TypeError),
        ],
        ids=["fractional-list", "bool", "bool-list", "float"],
    )
    def test_mix_sample_rejects_non_integral_counts(self, count, error):
        # [2.7] sampled 2 requests, True and [True] sampled 1, and 2.0
        # died with "'float' object is not iterable".
        mix = WorkloadMix((Workload("w", drm1(), PoissonArrivals(5.0)),))
        with pytest.raises(error, match="count must be"):
            mix.sample(count)

    def test_seeds_accept_numpy_integers(self):
        model = drm1()
        assert estimate_pooling_factors(
            model, num_requests=5, seed=np.int64(42)
        ) == estimate_pooling_factors(model, num_requests=5, seed=42)
        assert RequestGenerator(model, seed=np.int32(3)).table_totals(
            5
        ) == RequestGenerator(model, seed=3).table_totals(5)

    def test_fault_schedule_accepts_numpy_integers(self):
        schedule = FaultSchedule(replicas=np.int64(2), domains=np.int32(3))
        assert (schedule.replicas, schedule.domains) == (2, 3)
        assert type(schedule.replicas) is int and type(schedule.domains) is int

    @pytest.mark.parametrize("counts", [(1.9, 2), (2, True)])
    def test_fault_schedules_reject_fractional_replica_counts(self, counts):
        # These were truncated to replicas [1, 2] and [2, 1].
        plans = [singular_plan(drm1())]
        with pytest.raises(ValueError, match="replicas must be an integer"):
            fault_schedules((), counts, plans)

    def test_fault_schedules_reject_fractional_domains(self):
        # ``domains=2.7`` was truncated to 2.
        plans = [singular_plan(drm1())]
        with pytest.raises(ValueError, match="domains must be an integer"):
            fault_schedules((), (1,), plans, domains=2.7)
        schedules = fault_schedules(
            (), (np.int64(2),), plans, domains=np.int64(2)
        )
        assert [(s.replicas, s.domains) for s in schedules] == [(2, 2)]


class TestMedianWindowMeanEquivalence:
    """Pin the columnar and row-oriented medians to each other on the
    degenerate inputs where their fallbacks must agree."""

    BUCKETS = ("a", "b")

    def _both(self, values, keys, **kwargs):
        samples = [
            {bucket: float(row[i]) for i, bucket in enumerate(self.BUCKETS)}
            for row in values
        ]
        columns = {
            bucket: np.asarray([row[i] for row in values], dtype=float)
            for i, bucket in enumerate(self.BUCKETS)
        }
        rows_out = median_window_mean(samples, keys, **kwargs)
        cols_out = median_window_mean_columns(columns, keys, **kwargs)
        return rows_out, cols_out

    def test_single_request(self):
        rows_out, cols_out = self._both([(1.5, 2.5)], [3.0])
        assert rows_out == cols_out == {"a": 1.5, "b": 2.5}

    def test_constant_keys_select_everything(self):
        values = [(1.0, 2.0), (3.0, 4.0), (5.0, 6.0)]
        rows_out, cols_out = self._both(values, [7.0, 7.0, 7.0])
        assert rows_out == pytest.approx(cols_out)
        assert rows_out == pytest.approx({"a": 3.0, "b": 4.0})

    def test_empty_window_falls_back_to_all_samples(self):
        """An inverted percentile window selects nothing; both paths must
        fall back to averaging every sample."""
        values = [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        keys = [1.0, 2.0, 3.0, 4.0]
        rows_out, cols_out = self._both(values, keys, lo_pct=90.0, hi_pct=10.0)
        assert rows_out == pytest.approx(cols_out)
        assert rows_out == pytest.approx({"a": 2.5, "b": 25.0})

    def test_regular_window_agrees(self):
        rng = np.random.default_rng(11)
        values = [tuple(row) for row in rng.uniform(0, 1, size=(40, 2))]
        keys = list(rng.uniform(0, 1, size=40))
        rows_out, cols_out = self._both(values, keys)
        assert rows_out == pytest.approx(cols_out, rel=1e-12)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(ValueError):
            median_window_mean([{"a": 1.0}], [1.0, 2.0])
        with pytest.raises(ValueError):
            median_window_mean_columns({"a": np.ones(3)}, [1.0, 2.0])


class TestReplayEntriesFailLoudly:
    """A repeated request id, a non-finite arrival time or a tenant that
    indexes none of the cluster's tenants raises ``ValueError`` where
    the cluster first takes the request; none replays silently."""

    @pytest.fixture(scope="class")
    def model(self):
        return drm1()

    @pytest.fixture(scope="class")
    def requests(self, model):
        return RequestGenerator(model, seed=3).generate_many(5)

    def _cluster(self, model, **serving):
        return ClusterSimulation(
            model, singular_plan(model), ServingConfig(seed=1, **serving)
        )

    @pytest.mark.parametrize("kernel", ["vectorized", "batched"])
    @pytest.mark.parametrize("schedule", [
        ReplaySchedule.serial(), ReplaySchedule.open_loop(25.0, seed=2),
    ])
    def test_run_configuration_rejects_repeated_ids(
        self, model, requests, kernel, schedule
    ):
        serving = ServingConfig(seed=1, kernel=kernel)
        with pytest.raises(ValueError, match="request id 0 "):
            run_configuration(
                model, singular_plan(model), requests * 2, serving, schedule
            )

    def test_run_serial_rejects_repeated_ids(self, model, requests):
        cluster = self._cluster(model)
        with pytest.raises(ValueError, match="request id 3 "):
            cluster.run_serial(requests[:4] + requests[3:])
        assert sorted(cluster.completed) == [0, 1, 2, 3]

    def test_run_stream_rejects_repeated_ids(self, model, requests):
        cluster = self._cluster(model)
        stream = [(0.001 * i, 0, r) for i, r in enumerate(requests + requests[:1])]
        with pytest.raises(ValueError, match="request id 0 "):
            cluster.run_stream(stream)

    def test_submit_rejects_repeated_ids_across_tenants(self, model, requests):
        cluster = ClusterSimulation.colocated(
            [(model, singular_plan(model))] * 2, ServingConfig(seed=1)
        )
        cluster.submit(requests[0], tenant=0)
        with pytest.raises(ValueError, match="request id 0 "):
            cluster.submit(requests[0], tenant=1)
        cluster.engine.run()
        assert list(cluster.completed) == [0]

    def test_a_second_replay_on_one_cluster_rejects_its_ids(self, model, requests):
        cluster = self._cluster(model)
        cluster.run_serial(requests)
        with pytest.raises(ValueError, match="request id 0 "):
            cluster.run_serial(requests)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_run_stream_rejects_non_finite_arrivals(self, model, requests, bad):
        cluster = self._cluster(model)
        stream = [(0.0, 0, requests[0]), (bad, 0, requests[1])]
        with pytest.raises(ValueError, match="arrival time must be finite"):
            cluster.run_stream(stream)
        assert math.isfinite(cluster.engine.now)
        assert all(math.isfinite(v) for v in cluster.completed.values())

    @pytest.mark.parametrize("bad", [-1, 1, 2, 0.0, True])
    def test_run_stream_rejects_bad_tenants(self, model, requests, bad):
        cluster = self._cluster(model)
        with pytest.raises(ValueError, match="tenant must be an integer in"):
            cluster.run_stream([(0.0, bad, requests[0])])
        assert not cluster.completed

    @pytest.mark.parametrize("bad", [-1, 2])
    def test_submit_rejects_bad_tenants(self, model, requests, bad):
        cluster = ClusterSimulation.colocated(
            [(model, singular_plan(model))] * 2, ServingConfig(seed=1)
        )
        with pytest.raises(ValueError, match=r"tenant must be an integer in \[0, 2\)"):
            cluster.submit(requests[0], tenant=bad)
        assert cluster.des_requests == 0

    def test_numpy_tenants_and_arrivals_accepted(self, model, requests):
        cluster = self._cluster(model)
        cluster.run_stream(
            (np.float64(0.001 * i), np.int64(0), r) for i, r in enumerate(requests)
        )
        assert sorted(cluster.completed) == [r.request_id for r in requests]
