"""Tests for the CLI and the diurnal elasticity study."""

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import SuiteSettings, run_configuration
from repro.experiments.configs import ShardingConfiguration, build_plan
from repro.models import drm1
from repro.planning import assess_elasticity, diurnal_qps_curve, dram_hours_saved
from repro.requests import RequestGenerator
from repro.serving import ServingConfig
from repro.sharding import estimate_pooling_factors, load_plan


class TestCli:
    def test_models_command(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "DRM1" in out and "DRM3" in out
        assert "194.05" in out

    def test_shard_command_prints_plan(self, capsys):
        code = main(
            ["shard", "--model", "DRM1", "--strategy", "NSBP", "--shards", "2",
             "--pooling-requests", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "NSBP 2 shards" in out
        assert "net1" in out and "net2" in out

    def test_shard_command_writes_json(self, tmp_path, capsys):
        path = tmp_path / "plan.json"
        code = main(
            ["shard", "--model", "DRM1", "--strategy", "cap-bal", "--shards", "4",
             "--pooling-requests", "50", "--output", str(path)]
        )
        assert code == 0
        plan = load_plan(path.read_text(), drm1())
        assert plan.num_shards == 4

    def test_simulate_command(self, capsys):
        code = main(
            ["simulate", "--model", "DRM3", "--strategy", "NSBP", "--shards", "4",
             "--requests", "15", "--pooling-requests", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "P50" in out and "P99" in out

    def test_simulate_singular(self, capsys):
        code = main(
            ["simulate", "--model", "DRM3", "--strategy", "singular",
             "--requests", "10", "--pooling-requests", "50"]
        )
        assert code == 0
        assert "singular" in capsys.readouterr().out

    def test_trace_command(self, capsys):
        code = main(
            ["trace", "--model", "DRM1", "--strategy", "load-bal", "--shards", "2",
             "--pooling-requests", "50"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "main request" in out and "sparse shard" in out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["definitely-not-a-command"])


class TestDiurnalCurve:
    def test_curve_bounds(self):
        curve = diurnal_qps_curve(peak_qps=1000.0, trough_fraction=0.4)
        assert len(curve) == 24
        assert curve.max() == pytest.approx(1000.0, rel=1e-6)
        assert curve.min() == pytest.approx(400.0, rel=1e-6)

    def test_trough_at_start(self):
        curve = diurnal_qps_curve(1000.0, 0.5)
        assert curve[0] == curve.min()

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            diurnal_qps_curve(0.0)
        with pytest.raises(ValueError):
            diurnal_qps_curve(100.0, trough_fraction=0.0)


class TestElasticity:
    @pytest.fixture(scope="class")
    def results(self):
        model = drm1()
        settings = SuiteSettings(num_requests=25, pooling_requests=100)
        requests = RequestGenerator(
            model, seed=settings.request_seed
        ).generate_many(settings.num_requests)
        pooling = estimate_pooling_factors(model, 100, seed=42)
        serving = ServingConfig(seed=1)
        singular = run_configuration(
            model, build_plan(model, ShardingConfiguration("singular")),
            requests, serving,
        )
        distributed = run_configuration(
            model,
            build_plan(model, ShardingConfiguration("load-bal", 8), pooling),
            requests, serving,
        )
        return model, singular, distributed

    def test_distributed_saves_dram_hours(self, results):
        model, singular, distributed = results
        curve = diurnal_qps_curve(peak_qps=60_000.0)
        singular_report = assess_elasticity(model, singular, curve)
        distributed_report = assess_elasticity(model, distributed, curve)
        assert dram_hours_saved(singular_report, distributed_report) > 3.0

    def test_singular_breathes_whole_model(self, results):
        """Singular elasticity drags the full model with every replica."""
        model, singular, _ = results
        curve = diurnal_qps_curve(peak_qps=60_000.0)
        report = assess_elasticity(model, singular, curve)
        assert report.elasticity_ratio > 1.5  # replicas scale with traffic
        # DRAM-hours = servers x whole model.
        assert report.dram_byte_hours == pytest.approx(
            report.server_hours * model.total_bytes, rel=1e-6
        )

    def test_distributed_sparse_tier_stays_flat(self, results):
        """The sparse tier is capacity-bound, not compute-bound: its
        replica count barely moves across the day."""
        model, _, distributed = results
        curve = diurnal_qps_curve(peak_qps=60_000.0)
        report = assess_elasticity(model, distributed, curve)
        # Total servers still breathe (main shard scales)...
        assert report.peak_servers > report.trough_servers
        # ...but far less DRAM is pinned at peak than singular would pin.
        assert report.hourly_servers[0] == report.trough_servers
