"""Shared simulation cache for the benchmark suite.

Every ``test_fig*`` / ``test_table*`` benchmark regenerates one paper
artifact.  The underlying simulations are shared: a session-scoped cache
runs each (model, serving-variant) suite exactly once, and the benchmarks
time the figure *generation* step while asserting the paper's qualitative
shapes on the data.

Request count per configuration comes from ``REPRO_REQUESTS`` (default
150 here; raise it for tighter quantiles).  Speed is measured by the
end-to-end benchmark under ``benchmarks/e2e/``, not here.

Pooling-factor estimates are additionally memoized globally in
:mod:`repro.sharding.pooling`, so the suite runner and every serving
variant here share one estimate per (model, sample size, seed).
"""

from __future__ import annotations

import os

import pytest

from repro.compression import compress_model
from repro.experiments import SuiteSettings, run_configuration, run_suite, suite_requests
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.models import drm1, drm2, drm3
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig
from repro.sharding import estimate_pooling_factors
from repro.simulation.platform import SC_SMALL

BENCH_REQUESTS = int(os.environ.get("REPRO_REQUESTS", 150))

#: Instance sizing for the 25 QPS experiment (Section VII-A): a
#: right-sized web-tier worker budget, versus the over-provisioned
#: characterization servers used for serial replay (Section V-B).
QPS_WORKERS = 2
QPS_RATE = 25.0


def _settings(**overrides) -> SuiteSettings:
    base = dict(num_requests=BENCH_REQUESTS, serving=ServingConfig(seed=1))
    base.update(overrides)
    return SuiteSettings(**base)


class SuiteCache:
    """Lazily runs and memoizes experiment suites."""

    def __init__(self):
        self._cache = {}
        self.models = {"DRM1": drm1(), "DRM2": drm2(), "DRM3": drm3()}

    def _memo(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    def serial(self, model_name: str):
        """The paper's serial-replay configuration matrix for a model."""
        model = self.models[model_name]
        return self._memo(("serial", model_name), lambda: run_suite(model, _settings()))

    def single_batch(self, model_name: str):
        """One-batch-per-request replay (Figures 13/14)."""
        model = self.models[model_name]
        serving = ServingConfig(seed=1).with_batch_size(10**9)
        return self._memo(
            ("single-batch", model_name),
            lambda: run_suite(model, _settings(serving=serving)),
        )

    def qps(self, model_name: str):
        """Open-loop replay at 25 QPS on right-sized instances (Fig. 16)."""
        model = self.models[model_name]
        settings = _settings(
            serving=ServingConfig(seed=1, service_workers=QPS_WORKERS),
            schedule=ReplaySchedule.open_loop(QPS_RATE, seed=2),
        )
        return self._memo(("qps", model_name), lambda: run_suite(model, settings))

    def pooling(self, model_name: str):
        # estimate_pooling_factors memoizes globally; no local memo needed.
        return estimate_pooling_factors(
            self.models[model_name], num_requests=1000, seed=42
        )

    def platform_pair(self):
        """DRM1 load-bal 8 shards on SC-Large vs SC-Small sparse servers."""

        def build():
            model = self.models["DRM1"]
            settings = _settings()
            requests = suite_requests(model, settings)
            plan = build_plan(
                model, ShardingConfiguration("load-bal", 8), self.pooling("DRM1")
            )
            large = run_configuration(model, plan, requests, ServingConfig(seed=1))
            small = run_configuration(
                model, plan, requests,
                ServingConfig(seed=1, sparse_platform=SC_SMALL),
            )
            return large, small

        return self._memo(("platforms",), build)

    def compression_pair(self):
        """DRM1 singular runs: uncompressed vs quantized+pruned."""

        def build():
            model = self.models["DRM1"]
            compressed, report = compress_model(model)
            settings = _settings()
            requests = suite_requests(model, settings)
            base = run_configuration(
                model, build_plan(model, ShardingConfiguration("singular")),
                requests, ServingConfig(seed=1),
            )
            comp = run_configuration(
                compressed, build_plan(compressed, ShardingConfiguration("singular")),
                requests, ServingConfig(seed=1),
            )
            return base, comp, report

        return self._memo(("compression",), build)


@pytest.fixture(scope="session")
def suites() -> SuiteCache:
    return SuiteCache()


@pytest.fixture(scope="session")
def models(suites):
    return suites.models
