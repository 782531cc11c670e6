"""Coverage for the figure generators not exercised in test_experiments:
batching stacks (13/14), platforms (15), QPS (16), and compression (T3)."""

import numpy as np
import pytest

from repro.compression import compress_model
from repro.experiments import SuiteSettings, figures, run_configuration, run_suite
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.models import drm1
from repro.requests import ReplaySchedule, RequestGenerator
from repro.serving import ServingConfig
from repro.sharding import SINGULAR, estimate_pooling_factors
from repro.simulation.platform import SC_SMALL

SMALL = SuiteSettings(num_requests=25, pooling_requests=100)


@pytest.fixture(scope="module")
def model():
    return drm1()


@pytest.fixture(scope="module")
def pooling(model):
    return estimate_pooling_factors(model, 100, seed=42)


@pytest.fixture(scope="module")
def mini_suite(model):
    configs = (
        ShardingConfiguration(SINGULAR),
        ShardingConfiguration("load-bal", 8),
        ShardingConfiguration("cap-bal", 8),
        ShardingConfiguration("NSBP", 2),
        ShardingConfiguration("NSBP", 8),
        ShardingConfiguration("load-bal", 2),
    )
    return run_suite(model, SMALL, configurations=configs)


@pytest.fixture(scope="module")
def mini_single_batch(model):
    configs = (
        ShardingConfiguration(SINGULAR),
        ShardingConfiguration("load-bal", 8),
        ShardingConfiguration("cap-bal", 8),
        ShardingConfiguration("NSBP", 2),
        ShardingConfiguration("NSBP", 8),
        ShardingConfiguration("load-bal", 2),
    )
    settings = SuiteSettings(
        num_requests=25, pooling_requests=100,
        serving=ServingConfig(seed=1).with_batch_size(10**9),
    )
    return run_suite(model, settings, configurations=configs)


class TestBatchingFigures:
    def test_fig13_structure(self, mini_suite, mini_single_batch):
        artifact = figures.fig13_batching_latency(
            {"DRM1": mini_suite}, {"DRM1": mini_single_batch}
        )
        overheads = artifact.data["p50_overheads"]
        assert "DRM1/default" in overheads and "DRM1/single-batch" in overheads
        assert "DRM1/default/singular" in artifact.data["stacks"]
        # Single-batch reduces the 8-shard latency overhead.
        assert (
            overheads["DRM1/single-batch"]["load-bal 8 shards"]
            < overheads["DRM1/default"]["load-bal 8 shards"]
        )

    def test_fig14_structure(self, mini_suite, mini_single_batch):
        artifact = figures.fig14_batching_cpu(
            {"DRM1": mini_suite}, {"DRM1": mini_single_batch}
        )
        overheads = artifact.data["p50_overheads"]
        assert (
            overheads["DRM1/single-batch"]["load-bal 8 shards"]
            < overheads["DRM1/default"]["load-bal 8 shards"]
        )


class TestPlatformFigure:
    def test_fig15(self, model, pooling):
        requests = RequestGenerator(
            model, seed=SMALL.request_seed
        ).generate_many(SMALL.num_requests)
        plan = build_plan(model, ShardingConfiguration("load-bal", 8), pooling)
        large = run_configuration(model, plan, requests, ServingConfig(seed=1))
        small = run_configuration(
            model, plan, requests, ServingConfig(seed=1, sparse_platform=SC_SMALL)
        )
        artifact = figures.fig15_platforms(large, small)
        assert artifact.data["mean_ratio_small_over_large"] == pytest.approx(1.0, abs=0.12)
        assert "SC-Small" in artifact.text


class TestQpsFigure:
    def test_fig16(self, model):
        settings = SuiteSettings(
            num_requests=40, pooling_requests=100,
            serving=ServingConfig(seed=1, service_workers=2),
            schedule=ReplaySchedule.open_loop(25.0, seed=2),
        )
        configs = (
            ShardingConfiguration(SINGULAR),
            ShardingConfiguration("load-bal", 8),
        )
        results = run_suite(model, settings, configurations=configs)
        artifact = figures.fig16_qps_overheads(results)
        assert artifact.data["load-bal 8 shards"][99]["latency"] < 0.05


class TestCompressionTable:
    def test_table3(self, model):
        compressed, report = compress_model(model)
        requests = RequestGenerator(
            model, seed=SMALL.request_seed
        ).generate_many(SMALL.num_requests)
        base = run_configuration(
            model, build_plan(model, ShardingConfiguration(SINGULAR)),
            requests, ServingConfig(seed=1),
        )
        comp = run_configuration(
            compressed, build_plan(compressed, ShardingConfiguration(SINGULAR)),
            requests, ServingConfig(seed=1),
        )
        artifact = figures.table3_compression(base, comp, report)
        assert artifact.data["ratio"] == pytest.approx(5.56, rel=0.08)
        u50, c50 = artifact.data["E2E Latency-P50"]
        assert u50 == pytest.approx(1.0)
        assert c50 == pytest.approx(1.0, rel=0.05)

    def test_figure_artifact_str(self):
        artifact = figures.fig1_model_growth()
        assert "Model growth" in str(artifact)
