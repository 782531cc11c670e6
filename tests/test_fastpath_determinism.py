"""Determinism regression tests for the simulation fast path.

The fast path must be *exactly* the slow path, faster:

* the vectorized bulk request generator and the scalar reference path
  must draw identical requests from the same seed;
* a sweep must be byte-identical for every worker count (same e2e/cpu
  arrays, same attribution stacks) for the same settings, including
  the default count, a sweep started inside a pool worker, and a
  co-located mix sweep (idle arrivals columnar, busy periods on the DES);
* the pooling-factor sample and the bulk generator must be the same
  bits on any thread count (the sample on any refill size too), and
  memoization must not change estimates;
* columnar ``RunResult`` storage must agree with the span oracle's
  per-request attributions.
"""

import multiprocessing.pool
import sys

import numpy as np
import pytest

from span_oracle import assert_matches_oracle, oracle_configuration

from repro.experiments import (
    RunResult,
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    paper_configurations,
    run_mix_suite,
    run_suite,
)
import repro.experiments.parallel as parallel_module
import repro.core.rng as rng_module
import repro.requests.generator as generator_module
from repro.core.rng import substream
from repro.models import FeatureScope, drm1, drm2, drm3
from repro.requests import RequestGenerator
from repro.requests.generator import _DAY_SECONDS
from repro.serving import ClusterSimulation, ServingConfig
from repro.sharding import estimate_pooling_factors
from repro.sharding.pooling import clear_pooling_cache
from repro.tracing.aggregate import SHARD_KINDS, AggregatingTracer
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix

SETTINGS = SuiteSettings(
    num_requests=25, pooling_requests=120, serving=ServingConfig(seed=1)
)


def _assert_requests_equal(a, b):
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.request_id == rb.request_id
        assert ra.timestamp == rb.timestamp
        assert ra.num_items == rb.num_items
        assert set(ra.draws) == set(rb.draws)
        for name, da in ra.draws.items():
            db = rb.draws[name]
            assert da.total_ids == db.total_ids
            if da.item_ids is None:
                assert db.item_ids is None
            else:
                for draw in (da, db):
                    assert draw.item_ids.dtype == np.int64
                    assert (np.diff(draw.item_ids) >= 0).all()
                assert np.array_equal(da.item_ids, db.item_ids)


class TestGeneratorEquivalence:
    @pytest.mark.parametrize("model_factory", [drm1, drm2, drm3])
    def test_vectorized_matches_scalar(self, model_factory):
        """Bulk draws consume each substream exactly like the scalar
        reference path.  The scalar path draws every count on
        ``Generator.poisson``, so this is the end-to-end oracle for the
        bulk path's sparse sampler; DRM2 has the item rates nearest its
        cutoff and USER rates on numpy's PTRS branch."""
        model = model_factory()
        vectorized = RequestGenerator(model, seed=3).generate_many(60)
        timestamps = np.linspace(0.0, 5.0 * _DAY_SECONDS, 60, endpoint=False)
        scalar_gen = RequestGenerator(model, seed=3)
        scalar = [
            scalar_gen.generate(i, float(t)) for i, t in enumerate(timestamps)
        ]
        _assert_requests_equal(vectorized, scalar)

    def test_generate_many_is_stable_across_calls(self):
        model = drm1()
        _assert_requests_equal(
            RequestGenerator(model, seed=7).generate_many(30),
            RequestGenerator(model, seed=7).generate_many(30),
        )

    @pytest.mark.parametrize("model_factory", [drm1, drm2, drm3])
    def test_table_totals_matches_generated_requests(self, model_factory):
        model = model_factory()
        totals = RequestGenerator(model, seed=5).table_totals(40)
        requests = RequestGenerator(model, seed=5).generate_many(40)
        observed = {table.name: 0.0 for table in model.tables}
        for request in requests:
            for draw in request.draws.values():
                observed[draw.table_name] += draw.total_ids
        assert totals == observed
        assert list(totals) == [table.name for table in model.tables]


class TestThreadedPoolingSample:
    """``table_totals`` fans tables out over threads and sums the
    item-scoped draws refill by refill; neither may move a bit of the
    result."""

    @pytest.mark.parametrize("model_factory", [drm1, drm2, drm3])
    def test_identical_on_any_worker_count(self, model_factory, monkeypatch):
        """1 runs inline, 2 is the benchmark host, 8 oversubscribes it;
        a short switch interval makes the threads interleave densely."""
        model = model_factory()
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(generator_module, "usable_cpus", lambda w=workers: w)
                results[workers] = RequestGenerator(model, seed=11).table_totals(300)
        finally:
            sys.setswitchinterval(interval)
        assert results[1] == results[2] == results[8]
        assert list(results[1]) == list(results[2]) == list(results[8])

    def test_chunked_draw_matches_one_unchunked_draw(self, monkeypatch):
        """A refill size of 7 puts refill boundaries mid-request; the sum
        still equals one ``poisson(size=N)`` draw from a fresh stream,
        and leaves the stream exactly where that draw leaves it."""
        model = drm1()
        count, seed = 12, 13
        monkeypatch.setattr(rng_module, "_UNIFORM_BUFFER", 7)
        generator = RequestGenerator(model, seed=seed)
        totals = generator.table_totals(count)
        timestamps = np.linspace(0.0, 5.0 * _DAY_SECONDS, count, endpoint=False)
        size = int(RequestGenerator(model, seed=seed)._bulk_items(timestamps).sum())
        assert size % 7 != 0
        item_tables = [t for t in model.tables if t.scope is FeatureScope.ITEM]
        assert item_tables
        for table in item_tables:
            rng = substream(seed, "requests", model.name, table.name, "per-item")
            rate = table.activation_prob * table.mean_ids
            assert totals[table.name] == float(rng.poisson(rate, size=size).sum())
            drawn = generator._rng(table.name, "per-item")
            assert drawn.bit_generator.state == rng.bit_generator.state


class TestThreadedGeneration:
    """``generate_batch`` fans tables out over the same threads as
    ``table_totals`` and assembles the requests in table order."""

    @pytest.mark.parametrize("model_factory", [drm1, drm2, drm3])
    def test_identical_on_any_worker_count(self, model_factory, monkeypatch):
        model = model_factory()
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 8):
                monkeypatch.setattr(generator_module, "usable_cpus", lambda w=workers: w)
                results[workers] = RequestGenerator(model, seed=11).generate_many(40)
        finally:
            sys.setswitchinterval(interval)
        for workers in (2, 8):
            _assert_requests_equal(results[1], results[workers])
            for one, many in zip(results[1], results[workers]):
                assert list(one.draws) == list(many.draws)


class TestPoolingMemoization:
    def test_memoized_estimate_is_equal_and_copied(self):
        model = drm1()
        clear_pooling_cache()
        first = estimate_pooling_factors(model, num_requests=80, seed=9)
        second = estimate_pooling_factors(model, num_requests=80, seed=9)
        assert first == second
        # Callers receive independent dicts: mutating one result must not
        # poison the cache.
        first[next(iter(first))] = -1.0
        assert estimate_pooling_factors(model, num_requests=80, seed=9) == second

    def test_distinct_keys_not_conflated(self):
        model = drm1()
        a = estimate_pooling_factors(model, num_requests=80, seed=9)
        b = estimate_pooling_factors(model, num_requests=81, seed=9)
        c = estimate_pooling_factors(model, num_requests=80, seed=10)
        assert a != b and a != c


def _two_configuration_suite(max_workers):
    """A sweep run from inside a pool worker (module level: pickled)."""
    configurations = paper_configurations("DRM1")[:2]
    return run_suite(drm1(), SETTINGS, configurations, max_workers=max_workers)


def _assert_columns_equal(serial, parallel, label):
    assert np.array_equal(serial.e2e, parallel.e2e), label
    assert np.array_equal(serial.cpu, parallel.cpu), label
    for kind in ("latency", "embedded", "cpu"):
        serial_cols = serial.stack_columns(kind)
        parallel_cols = parallel.stack_columns(kind)
        assert serial_cols.keys() == parallel_cols.keys()
        for bucket in serial_cols:
            assert np.array_equal(
                serial_cols[bucket], parallel_cols[bucket]
            ), (label, kind, bucket)
    for name in ("sparse_op_cpu", "dense_op_cpu", "rpcs", "num_batches"):
        assert np.array_equal(
            getattr(serial, name), getattr(parallel, name)
        ), (label, name)
    for kind in SHARD_KINDS:
        serial_cols = serial.shard_columns(kind)
        parallel_cols = parallel.shard_columns(kind)
        assert serial_cols.keys() == parallel_cols.keys()
        for key in serial_cols:
            assert np.array_equal(
                serial_cols[key], parallel_cols[key]
            ), (label, kind, key)


class TestParallelSerialIdentity:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return run_suite(drm1(), SETTINGS, max_workers=1)

    def test_parallel_matches_serial_exactly(self, serial_results):
        parallel_results = run_suite(drm1(), SETTINGS, max_workers=2)
        assert list(parallel_results) == list(serial_results)
        for label, serial in serial_results.items():
            _assert_columns_equal(serial, parallel_results[label], label)

    def test_mix_sweep_parallel_matches_serial(self):
        """A co-located mix replays idle arrivals on the columnar engine
        and busy periods on the DES; both halves are byte-identical on
        one worker and two."""
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
        configurations = (
            ShardingConfiguration("singular"),
            ShardingConfiguration("load-bal", 2),
        )
        serial = run_mix_suite(mix, SETTINGS, configurations, max_workers=1)
        parallel = run_mix_suite(mix, SETTINGS, configurations, max_workers=2)
        assert list(parallel) == list(serial)
        for label, result in serial.items():
            assert result.kernel_used == "vectorized", label
            assert result.des_requests < len(result), label
            assert parallel[label].des_requests == result.des_requests, label
            assert np.array_equal(result.workloads, parallel[label].workloads)
            assert np.array_equal(result.request_ids, parallel[label].request_ids)
            _assert_columns_equal(result, parallel[label], label)

    def test_in_process_fallback_matches(self, serial_results, monkeypatch):
        """``REPRO_SWEEP_WORKERS=1`` replays in-process: no pool is made."""

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker sweep created a pool")

        monkeypatch.setattr(multiprocessing.pool, "Pool", no_pool)
        monkeypatch.setenv(parallel_module.WORKERS_ENV, "1")
        fallback = run_suite(drm1(), SETTINGS)
        for label, serial in serial_results.items():
            assert np.array_equal(serial.e2e, fallback[label].e2e), label

    def test_default_workers_match_serial(self, serial_results, monkeypatch):
        """The default (``max_workers=None``) fans out over the usable
        CPUs -- two here -- and is byte-identical to one worker."""
        monkeypatch.delenv(parallel_module.WORKERS_ENV, raising=False)
        monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
        assert parallel_module.default_workers() == 2
        default = run_suite(drm1(), SETTINGS)
        assert list(default) == list(serial_results)
        for label, serial in serial_results.items():
            assert np.array_equal(serial.e2e, default[label].e2e), label
            assert np.array_equal(serial.cpu, default[label].cpu), label

    @pytest.mark.skipif(
        sys.platform != "linux", reason="fork start method is Linux-only here"
    )
    def test_sweep_inside_a_pool_worker(self, serial_results):
        """A daemonic pool worker may not fork: its sweep runs in-process
        instead of dying, with the serial result."""
        with multiprocessing.get_context("fork").Pool(1) as pool:
            nested = pool.apply(_two_configuration_suite, (2,))
        assert list(nested) == list(serial_results)[:2]
        for label, result in nested.items():
            assert np.array_equal(serial_results[label].e2e, result.e2e), label
            assert np.array_equal(serial_results[label].cpu, result.cpu), label


class TestColumnarRunResult:
    @pytest.fixture(scope="class")
    def run(self):
        """One distributed configuration and its span-oracle rows."""
        model = drm1()
        results = run_suite(model, SETTINGS)
        result = results["load-bal 2 shards"]
        pooling = estimate_pooling_factors(model, num_requests=120, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 2), pooling)
        assert plan.label == result.label
        requests = RequestGenerator(
            model, seed=SETTINGS.request_seed
        ).generate_many(SETTINGS.num_requests)
        oracle = oracle_configuration(model, plan, requests, SETTINGS.serving)
        return result, oracle

    def test_columns_match_span_oracle(self, run):
        result, oracle = run
        assert len(result) == 25
        assert_matches_oracle(result, oracle)

    def test_embedded_totals_match(self, run):
        result, (rows, _) = run
        expected = np.array([a.embedded_total for a, _ in rows])
        assert np.allclose(result.embedded_totals, expected, rtol=1e-12, atol=0.0)

    def test_growth_beyond_initial_capacity(self):
        """An accumulator sized for 4 requests grows to 40 by doubling
        without disturbing a column."""
        small = SuiteSettings(
            num_requests=40, pooling_requests=120, serving=ServingConfig(seed=1)
        )
        model = drm1()
        requests = RequestGenerator(
            model, seed=small.request_seed
        ).generate_many(small.num_requests)
        plan = build_plan(model, ShardingConfiguration("singular"))
        tracer = AggregatingTracer(expected_requests=4)
        cluster = ClusterSimulation(model, plan, small.serving, tracer=tracer)
        cluster.on_complete = tracer.finalize_request
        cluster.run_serial(requests)
        result = RunResult(model.name, plan.label, plan)
        result.adopt_aggregate(tracer)
        assert len(result) == 40
        assert_matches_oracle(
            result, oracle_configuration(model, plan, requests, small.serving)
        )
