"""Kernel-equivalence regression pins: batched == reference, bit for bit.

The batched DES kernel (``BatchedEngine`` + ``SyncResource``) drives the
same serving generators as the reference kernel and must replay every
paper configuration *bit-identically* to it, serial and open-loop,
healthy and under a chaos schedule.  This
is the determinism story the kernel selector ships with (see the
"Canonical event ordering" section in ``repro/simulation/engine.py`` and
rule 2 of the determinism contract in ``repro/core/rng.py``): the
batched kernel preserves the reference ``(time, sequence)`` order except
for synchronous resource grants, which only ever move pure computation
earlier within a timestamp -- so every recorded value, every column, and
every accumulator sum lands on the same floats.

The vectorized kernel extends the same contract to the columnar replay
path: eligible runs (serial closed-loop, chaos-free) bypass the event
loop entirely yet land on the same floats (the "vectorized equivalence"
clauses in ``engine.py``/``rng.py``), and every
ineligible run falls back to the batched kernel with the reason recorded
on ``RunResult.kernel_fallback`` -- both pinned here.
"""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.chaos import FaultSchedule, HealingPolicy, HostCrash, NetworkSpike, StragglerShard
from repro.experiments import (
    ShardingConfiguration,
    paper_configurations,
    SuiteSettings,
    build_plan,
    run_configuration,
    run_mix_suite,
    run_suite,
)
from repro.experiments import runner
from repro.experiments.runner import suite_requests
from repro.models import drm1, drm2, drm3
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig, TraceMode
from repro.tracing.aggregate import SHARD_KINDS
from repro.serving.columnar import REASON_CHAOS, REASON_SHALLOW_MAIN
from repro.sharding.pooling import estimate_pooling_factors
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix
from repro.simulation.engine import (
    DEFAULT_KERNEL,
    KERNELS,
    BatchedEngine,
    Engine,
    make_engine,
)

pytestmark = pytest.mark.filterwarnings("error")


def assert_run_identical(ref, new, label=""):
    """Bitwise equality of every RunResult column, chaos columns included."""
    assert np.array_equal(ref.e2e, new.e2e), label
    assert np.array_equal(ref.cpu, new.cpu), label
    for kind in ("latency", "embedded", "cpu"):
        ref_cols = ref.stack_columns(kind)
        new_cols = new.stack_columns(kind)
        for bucket in ref_cols:
            assert np.array_equal(ref_cols[bucket], new_cols[bucket]), (
                label, kind, bucket,
            )
    assert np.array_equal(ref.request_ids, new.request_ids), label
    assert np.array_equal(ref.status, new.status), label
    assert np.array_equal(ref.degraded, new.degraded), label
    assert np.array_equal(ref.retries, new.retries), label
    assert np.array_equal(ref.workloads, new.workloads), label
    for name in (
        "sparse_op_cpu", "dense_op_cpu", "rpcs", "num_batches",
        "attempts", "hedged", "deadline_exceeded",
    ):
        assert np.array_equal(getattr(ref, name), getattr(new, name)), (label, name)
    for kind in SHARD_KINDS:
        ref_cols = ref.shard_columns(kind)
        new_cols = new.shard_columns(kind)
        assert ref_cols.keys() == new_cols.keys(), (label, kind)
        for key in ref_cols:
            assert np.array_equal(ref_cols[key], new_cols[key]), (label, kind, key)
    assert ref.mean_cpu_by_shard() == new.mean_cpu_by_shard(), label
    assert ref.mean_per_shard_net_op_time() == new.mean_per_shard_net_op_time(), label
    assert ref.chaos_timeline == new.chaos_timeline, label
    assert ref.incomplete_requests == new.incomplete_requests, label


def assert_suites_identical(ref, new):
    assert list(ref) == list(new)
    for label in ref:
        assert_run_identical(ref[label], new[label], label)


def settings(kernel=DEFAULT_KERNEL, num_requests=20, **serving_kwargs):
    return SuiteSettings(
        num_requests=num_requests,
        pooling_requests=150,
        serving=ServingConfig(seed=1, kernel=kernel, **serving_kwargs),
    )


def _mix_results(kernel=DEFAULT_KERNEL):
    """A two-model co-located mix, one configuration."""
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
    return run_mix_suite(
        mix,
        SuiteSettings(
            num_requests=10, pooling_requests=150,
            serving=ServingConfig(seed=1, kernel=kernel),
        ),
        (ShardingConfiguration("load-bal", 2),),
    )


class TestKernelSelection:
    def test_make_engine_kernels(self):
        assert type(make_engine("reference")) is Engine
        assert isinstance(make_engine("batched"), BatchedEngine)
        assert DEFAULT_KERNEL in KERNELS and "batched" in KERNELS

    def test_default_kernel_chooses_itself(self):
        assert DEFAULT_KERNEL == "vectorized"
        assert ServingConfig().kernel == DEFAULT_KERNEL

    def test_vectorized_kernel_registered(self):
        assert "vectorized" in KERNELS
        # An *engine* for the vectorized kernel is by definition the
        # fallback path (the columnar replay never runs an event loop),
        # which is the batched kernel.
        assert isinstance(make_engine("vectorized"), BatchedEngine)
        assert ServingConfig(kernel="vectorized").kernel == "vectorized"

    def test_make_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown DES kernel"):
            make_engine("calendar")

    def test_serving_config_validates_kernel(self):
        with pytest.raises(ValueError):
            ServingConfig(kernel="bogus")

    def test_suite_settings_defer_to_serving_kernel(self):
        """The kernel lives on ``ServingConfig`` alone: ``SuiteSettings``
        has no override, and resolving keeps the serving config."""
        assert "kernel" not in {f.name for f in dataclasses.fields(SuiteSettings)}
        resolved = settings(kernel="batched").resolved_serving()
        assert resolved.kernel == "batched"
        base = settings()
        assert base.resolved_serving() is base.serving

    def test_with_kernel_round_trip(self):
        config = ServingConfig(seed=3)
        assert config.with_kernel("batched").kernel == "batched"
        assert config.with_kernel("batched").seed == 3


class TestPaperConfigurationEquivalence:
    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_every_paper_configuration(self, factory):
        model = factory()
        assert_suites_identical(
            run_suite(model, settings(kernel="reference")),
            run_suite(model, settings(kernel="batched")),
        )

    def test_open_loop_contended_with_clock_skew(self):
        """Queueing overlap + sync resource grants under contention."""
        model = drm1()

        def contended(kernel):
            return SuiteSettings(
                num_requests=40,
                pooling_requests=150,
                serving=ServingConfig(
                    seed=1, service_workers=2, clock_skew_sigma=0.002,
                    kernel=kernel,
                ),
                schedule=ReplaySchedule.open_loop(25.0, seed=2),
            )

        assert_suites_identical(
            run_suite(model, contended("reference")),
            run_suite(model, contended("batched")),
        )

    def test_parallel_batched_matches_serial_batched(self):
        model = drm1()
        batched = settings(kernel="batched")
        assert_suites_identical(
            run_suite(model, batched, max_workers=1),
            run_suite(model, batched, max_workers=2),
        )


class TestChaosEquivalence:
    """Chaos replays must run identically on both kernels.

    Failover routing, mid-service aborts, heartbeat healing, and the
    fault timers all schedule through the batched kernel's deque-merged
    loop, and must land on the reference kernel's floats.
    """

    SCHEDULE = FaultSchedule(
        experiments=(
            HostCrash(shard=0, at=0.05, restart_after=0.3),
            StragglerShard(shard=1, start=0.0, duration=0.4, multiplier=3.0),
            NetworkSpike(start=0.1, duration=0.2, extra_latency=2e-4),
        ),
        replicas=2,
        healing=HealingPolicy(check_interval=0.05, consecutive_misses=2),
    )

    def test_chaos_replay_matches_reference(self):
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 4), pooling)
        base = SuiteSettings(
            num_requests=50, schedule=ReplaySchedule.open_loop(120.0, seed=2)
        )
        requests = suite_requests(model, base)
        schedule = base.schedule

        def replay(kernel):
            serving = ServingConfig(seed=1, chaos=self.SCHEDULE, kernel=kernel)
            return run_configuration(model, plan, requests, serving, schedule)

        ref = replay("reference")
        new = replay("batched")
        assert_run_identical(ref, new, "chaos")
        # the schedule actually bit: the equivalence is not vacuous
        assert ref.retries.sum() > 0 or ref.status.sum() > 0 or len(ref.chaos_timeline) > 0


class TestVectorizedEquivalence:
    """Columnar replay == reference, bit for bit, in the eligible regime.

    The vectorized kernel never runs a DES loop: per-request costs are
    transposed into per-chunk numpy columns and replayed as array
    programs with the exact left-associated float order the chained
    yields produce (see the module docstring of
    ``repro/simulation/vectorized.py``).  Every DRM1/DRM2/DRM3 paper
    configuration must land on the same floats in every RunResult
    column, serial and parallel.
    """

    @pytest.mark.parametrize("factory", [drm1, drm2, drm3])
    def test_every_paper_configuration(self, factory):
        model = factory()
        ref = run_suite(model, settings(kernel="reference"))
        vec = run_suite(model, settings(kernel="vectorized"))
        for label, result in vec.items():
            assert result.kernel_used == "vectorized", (
                label, result.kernel_fallback,
            )
            assert result.kernel_fallback is None, label
        assert_suites_identical(ref, vec)

    def test_parallel_matches_serial(self):
        model = drm1()
        vectorized = settings(kernel="vectorized")
        serial = run_suite(model, vectorized, max_workers=1)
        parallel = run_suite(model, vectorized, max_workers=2)
        for result in parallel.values():
            assert result.kernel_used == "vectorized"
        assert_suites_identical(serial, parallel)

    def test_clock_skew(self):
        """Skewed trace stamps ride the same bulk-jitter substreams."""
        model = drm1()

        def skewed(kernel):
            return settings(kernel=kernel, clock_skew_sigma=0.002)

        assert_suites_identical(
            run_suite(model, skewed("reference")),
            run_suite(model, skewed("vectorized")),
        )


class TestVectorizedFallback:
    """Every ineligible run silently takes the batched kernel.

    The chosen kernel and the machine-readable reason are exposed on
    ``RunResult.kernel_used`` / ``RunResult.kernel_fallback`` so sweeps
    can assert which path produced their numbers.
    """

    def _replay(self, serving, schedule=None, num_requests=15):
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 2), pooling)
        requests = suite_requests(
            model, SuiteSettings(num_requests=num_requests, pooling_requests=150)
        )
        return run_configuration(model, plan, requests, serving, schedule)

    def test_open_loop_takes_the_idle_arrival_path(self):
        """An open-loop run stays on the vectorized kernel: idle
        arrivals take the evaluator, the rest the DES."""
        schedule = ReplaySchedule.open_loop(25.0, seed=2)
        result = self._replay(
            ServingConfig(seed=1, kernel="vectorized"), schedule, num_requests=60
        )
        assert result.kernel_used == "vectorized"
        assert result.kernel_fallback is None
        assert 0 < result.des_requests < len(result)
        batched = self._replay(
            ServingConfig(seed=1, kernel="batched"), schedule, num_requests=60
        )
        assert batched.des_requests == len(batched)
        assert_run_identical(batched, result, "open-loop")

    def test_chaos_falls_back(self):
        result = self._replay(
            ServingConfig(
                seed=1, kernel="vectorized",
                chaos=FaultSchedule(experiments=(HostCrash(shard=0, at=0.05),)),
            ),
        )
        assert result.kernel_used == "batched"
        assert result.kernel_fallback == REASON_CHAOS

    def test_full_trace_takes_the_fast_path(self):
        """FULL tracing no longer forks attribution, so it no longer
        blocks the columnar replay."""
        result = self._replay(
            ServingConfig(seed=1, kernel="vectorized", trace_mode=TraceMode.FULL)
        )
        assert result.kernel_used == "vectorized"
        assert result.kernel_fallback is None

    def test_mix_takes_the_idle_arrival_path(self):
        batched = _mix_results(kernel="batched")
        mixed = _mix_results(kernel="vectorized")
        for label, result in mixed.items():
            assert result.kernel_used == "vectorized"
            assert result.kernel_fallback is None
            assert result.des_requests < len(result)
            assert_run_identical(batched[label], result, label)

    def test_eligible_run_takes_the_fast_path(self):
        result = self._replay(ServingConfig(seed=1, kernel="vectorized"))
        assert result.kernel_used == "vectorized"
        assert result.kernel_fallback is None
        assert result.des_requests == 0

    def test_fallback_result_matches_batched(self):
        """The fallback is not merely labeled batched -- it *is* batched."""
        chaos = FaultSchedule(experiments=(HostCrash(shard=0, at=0.05),))
        schedule = ReplaySchedule.open_loop(25.0, seed=2)
        fallback = self._replay(
            ServingConfig(seed=1, kernel="vectorized", chaos=chaos), schedule
        )
        batched = self._replay(
            ServingConfig(seed=1, kernel="batched", chaos=chaos), schedule
        )
        assert fallback.kernel_fallback == REASON_CHAOS
        assert fallback.des_requests == batched.des_requests == len(batched)
        assert_run_identical(fallback, batched, "fallback")


class TestDefaultKernel:
    """With no kernel named anywhere, every run chooses its own path."""

    TWO_CONFIGURATIONS = (
        ShardingConfiguration("singular"),
        ShardingConfiguration("load-bal", 2),
    )

    def test_default_sweep_is_columnar(self):
        """A sweep with no kernel or trace-mode override takes the
        columnar replay on every serial paper configuration."""
        results = run_suite(
            drm1(), SuiteSettings(num_requests=25, pooling_requests=150)
        )
        assert len(results) == len(paper_configurations("DRM1"))
        for label, result in results.items():
            assert result.kernel_used == "vectorized", (
                label, result.kernel_fallback,
            )
            assert result.kernel_fallback is None, label

    def test_ineligible_runs_take_the_batched_des(self):
        results = run_suite(
            drm1(), settings(num_requests=15, service_workers=2),
            self.TWO_CONFIGURATIONS,
        )
        for result in results.values():
            assert result.kernel_used == "batched"
            assert result.kernel_fallback == REASON_SHALLOW_MAIN
            assert result.des_requests == len(result)

    def test_open_loop_runs_take_the_idle_arrival_path(self):
        """Open-loop sweeps need no pool gate: even on 2-worker hosts the
        requests that fit take the evaluator."""
        def open_loop(kernel):
            return SuiteSettings(
                num_requests=40, pooling_requests=150,
                serving=ServingConfig(seed=1, service_workers=2, kernel=kernel),
                schedule=ReplaySchedule.open_loop(25.0, seed=2),
            )

        batched = run_suite(drm1(), open_loop("batched"), self.TWO_CONFIGURATIONS)
        results = run_suite(drm1(), open_loop(DEFAULT_KERNEL), self.TWO_CONFIGURATIONS)
        for result in results.values():
            assert result.kernel_used == "vectorized"
            assert result.kernel_fallback is None
            assert 0 < result.des_requests < len(result)
        assert_suites_identical(batched, results)

    def test_mix_runs_take_the_idle_arrival_path(self):
        batched = _mix_results(kernel="batched")
        results = _mix_results()
        for result in results.values():
            assert result.kernel_used == "vectorized"
            assert result.kernel_fallback is None
        assert_suites_identical(batched, results)


class TestChunkedReplay:
    """``CHUNK_SIZE`` bounds builder memory without changing a bit.

    Chunking only splits the columnarization pass; the replay arithmetic
    and every substream walk are chunk-size invariant.  The memory
    smokes pin the bound the vectorized path claims at
    REPRO_REQUESTS=1M: peak replay memory tracks the chunk size, not the
    request count, only one chunk's cost columns are alive at a time,
    and none survive the run.
    """

    def test_chunk_size_invariance(self, monkeypatch):
        model = drm1()
        vectorized = settings(kernel="vectorized")
        base = run_suite(model, vectorized)
        monkeypatch.setattr(runner, "CHUNK_SIZE", 7)
        chunked = run_suite(model, vectorized)
        for result in chunked.values():
            assert result.kernel_used == "vectorized"
        assert_suites_identical(base, chunked)

    @staticmethod
    def _inputs(configuration, num_requests):
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, configuration, pooling)
        requests = suite_requests(
            model,
            SuiteSettings(num_requests=num_requests, pooling_requests=150),
        )
        return model, plan, requests, ServingConfig(seed=1)

    def test_replay_memory_bounded_by_chunk(self, monkeypatch):
        from repro.serving import columnar

        num_requests = 1024
        model, plan, requests, serving = self._inputs(
            ShardingConfiguration("singular"), num_requests
        )
        # Disable the count-matrix cache: its retention is bounded by
        # design, this smoke measures the per-chunk working set.
        monkeypatch.setattr(columnar, "_BUNDLE_CACHE_MAX", 0)

        def peak_bytes(chunk_size):
            monkeypatch.setattr(runner, "CHUNK_SIZE", chunk_size)
            columnar._BUNDLE_CACHE.clear()
            tracemalloc.start()
            result = run_configuration(model, plan, requests, serving)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert result.kernel_used == "vectorized"
            return peak

        whole = peak_bytes(num_requests)  # one chunk: O(num_requests)
        chunked = peak_bytes(32)  # 32 chunks of 32 requests
        assert chunked < whole / 4, (chunked, whole)

        # One chunk's plans at a time: when chunk k+1 is built, no cost
        # row of chunk k may still be alive (numpy rows take weakrefs).
        # A distributed plan, because only its targets carry rows.
        model, plan, requests, serving = self._inputs(
            ShardingConfiguration("load-bal", 8), 128
        )
        build = columnar.build_chunk_plans
        built = []

        def tracked_build(sim, tenant, chunk):
            alive = [ref for ref in built if ref() is not None]
            assert not alive, f"{len(alive)} earlier chunks still alive"
            plans = build(sim, tenant, chunk)
            built.append(weakref.ref(plans.nets[0].targets[0].rows[0]))
            return plans

        monkeypatch.setattr(columnar, "build_chunk_plans", tracked_build)
        monkeypatch.setattr(runner, "CHUNK_SIZE", 32)
        run_configuration(model, plan, requests, serving)
        assert len(built) == 4

    def test_chunk_size_is_not_an_env_knob(self, monkeypatch):
        """``REPRO_CHUNK`` is not read: a value the old knob would have
        rejected changes nothing."""
        monkeypatch.setenv("REPRO_CHUNK", "0")
        model, plan, requests, serving = self._inputs(
            ShardingConfiguration("singular"), 8
        )
        result = run_configuration(model, plan, requests, serving)
        assert result.kernel_used == "vectorized"

    def test_no_cost_columns_survive_the_run(self):
        from repro.serving import columnar

        model, plan, requests, serving = self._inputs(
            ShardingConfiguration("load-bal", 8), 128
        )
        # Fill the one-time caches on a shorter sample, so the traced run
        # below starts from nothing built for its own chunk.
        run_configuration(model, plan, requests[:16], serving)
        columnar._BUNDLE_CACHE.clear()
        tracemalloc.start()
        result = run_configuration(model, plan, requests, serving)
        # The count-matrix LRU is the one cache the builder keeps.
        columnar._BUNDLE_CACHE.clear()
        retained, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert result.kernel_used == "vectorized"
        # What survives is the result's own columns, a few percent of
        # what the run built; a cache of cost columns keeps most of it.
        assert retained < peak / 10, (retained, peak)
