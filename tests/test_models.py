"""Tests for model configs, synthesis, and the DRM zoo calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import substream
from repro.core.types import GIB, OpCategory, DType
from repro.models import (
    FeatureScope,
    ModelConfig,
    NetConfig,
    RequestProfile,
    TableConfig,
    TablePopulationSpec,
    build,
    drm1,
    drm2,
    drm3,
    growth_factor,
    growth_series,
    synthesize_tables,
)


def small_profile():
    return RequestProfile(median_items=50, sigma_items=0.5, batch_size=10)


class TestTableConfig:
    def test_nbytes_fp32(self):
        table = TableConfig("t", "net1", num_rows=1000, dim=64)
        assert table.nbytes == 1000 * 256

    def test_expected_ids_user_scope(self):
        table = TableConfig(
            "t", "net1", 10, 8, scope=FeatureScope.USER, activation_prob=0.5, mean_ids=4
        )
        assert table.expected_ids_per_request(mean_items=100) == 2.0

    def test_expected_ids_item_scope_scales_with_items(self):
        table = TableConfig(
            "t", "net1", 10, 8, scope=FeatureScope.ITEM, activation_prob=0.1, mean_ids=2
        )
        assert table.expected_ids_per_request(mean_items=100) == pytest.approx(20.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_rows": 0},
            {"dim": 0},
            {"activation_prob": 1.5},
            {"mean_ids": -1.0},
        ],
    )
    def test_invalid_attributes_rejected(self, kwargs):
        base = {"name": "t", "net": "n", "num_rows": 10, "dim": 4}
        base.update(kwargs)
        with pytest.raises(ValueError):
            TableConfig(**base)


class TestNetConfig:
    def test_op_mix_must_sum_to_one(self):
        with pytest.raises(ValueError):
            NetConfig("n", 1.0, 1.0, op_mix={OpCategory.DENSE: 0.5})

    def test_op_mix_rejects_sparse(self):
        with pytest.raises(ValueError):
            NetConfig("n", 1.0, 1.0, op_mix={OpCategory.SPARSE: 1.0})

    def test_default_mix_is_dense(self):
        net = NetConfig("n", 1.0, 1.0)
        assert net.op_mix == {OpCategory.DENSE: 1.0}


class TestRequestProfile:
    def test_sample_items_within_bounds(self):
        profile = RequestProfile(median_items=100, sigma_items=1.0, batch_size=10,
                                 min_items=5, max_items=500)
        rng = substream(0, "items")
        samples = [profile.sample_items(rng) for _ in range(200)]
        assert all(5 <= s <= 500 for s in samples)

    def test_item_distribution_is_long_tailed(self):
        profile = RequestProfile(median_items=100, sigma_items=0.9, batch_size=10)
        rng = substream(1, "items")
        samples = np.array([profile.sample_items(rng) for _ in range(4000)])
        p50, p99 = np.percentile(samples, [50, 99])
        assert p99 / p50 > 4.0  # heavy tail drives the paper's P99/P50 ratios

    @pytest.mark.parametrize("bounds", [
        {"min_items": 0},
        {"min_items": -3},
        {"min_items": 50, "max_items": 40},
    ])
    def test_invalid_item_bounds_rejected(self, bounds):
        """A zero-item request would break the bulk generator's per-request
        ``reduceat``; an inverted range has no valid count."""
        with pytest.raises(ValueError, match="min_items"):
            RequestProfile(median_items=100, sigma_items=1.0, batch_size=10, **bounds)

    def test_single_valued_item_range_accepted(self):
        profile = RequestProfile(median_items=100, sigma_items=1.0, batch_size=10,
                                 min_items=7, max_items=7)
        assert profile.sample_items(substream(0, "items")) == 7

    def test_mean_items_above_median(self):
        profile = RequestProfile(median_items=100, sigma_items=0.9, batch_size=10)
        assert profile.mean_items > 100


class TestModelConfigValidation:
    def test_duplicate_table_names_rejected(self):
        tables = (
            TableConfig("t", "net1", 10, 4),
            TableConfig("t", "net1", 10, 4),
        )
        with pytest.raises(ValueError):
            ModelConfig("m", (NetConfig("net1", 1, 1),), tables, small_profile())

    def test_unknown_net_reference_rejected(self):
        tables = (TableConfig("t", "other", 10, 4),)
        with pytest.raises(ValueError):
            ModelConfig("m", (NetConfig("net1", 1, 1),), tables, small_profile())

    def test_lookups(self):
        model = drm1(scale=0.01)
        assert model.table(model.tables[0].name) is model.tables[0]
        with pytest.raises(KeyError):
            model.table("nope")


class TestSynthesis:
    def make_spec(self, **overrides):
        base = dict(
            net="net1",
            count=40,
            total_bytes=10 * GIB,
            max_table_bytes=1.5 * GIB,
            scope=FeatureScope.USER,
            expected_ids_per_request=100.0,
            mean_items=50.0,
        )
        base.update(overrides)
        return TablePopulationSpec(**base)

    def test_total_bytes_matches_target(self):
        tables = synthesize_tables(self.make_spec(), seed=0)
        total = sum(t.nbytes for t in tables)
        assert total == pytest.approx(10 * GIB, rel=0.01)

    def test_max_table_cap_respected(self):
        tables = synthesize_tables(self.make_spec(), seed=0)
        assert max(t.nbytes for t in tables) <= 1.5 * GIB * 1.01

    def test_expected_pooling_matches_target(self):
        tables = synthesize_tables(self.make_spec(), seed=0)
        total = sum(t.expected_ids_per_request(50.0) for t in tables)
        assert total == pytest.approx(100.0, rel=0.01)

    def test_item_scope_rates_scale(self):
        tables = synthesize_tables(self.make_spec(scope=FeatureScope.ITEM), seed=0)
        total = sum(t.expected_ids_per_request(50.0) for t in tables)
        assert total == pytest.approx(100.0, rel=0.01)

    def test_deterministic_given_seed(self):
        a = synthesize_tables(self.make_spec(), seed=3)
        b = synthesize_tables(self.make_spec(), seed=3)
        assert a == b

    def test_different_seed_different_tables(self):
        a = synthesize_tables(self.make_spec(), seed=3)
        b = synthesize_tables(self.make_spec(), seed=4)
        assert a != b

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ValueError):
            synthesize_tables(
                self.make_spec(count=4, max_table_bytes=1 * GIB), seed=0
            )

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_sizes_always_positive(self, seed):
        tables = synthesize_tables(self.make_spec(count=20), seed=seed)
        assert all(t.num_rows >= 1 for t in tables)
        assert all(t.mean_ids >= 0 for t in tables)


class TestZooCalibration:
    """The zoo must match the paper's published model attributes."""

    def test_drm1_capacity_and_tables(self):
        model = drm1()
        assert len(model.tables) == 257
        assert model.sparse_bytes == pytest.approx(194.05 * GIB, rel=0.02)
        assert model.largest_table_bytes <= 3.7 * GIB
        assert model.sparse_fraction > 0.97  # paper: >97%

    def test_drm1_net_split_matches_table2(self):
        model = drm1()
        net1 = model.tables_for_net("net1")
        net2 = model.tables_for_net("net2")
        assert len(net1) == 72 and len(net2) == 185
        assert sum(t.nbytes for t in net1) == pytest.approx(33.58 * GIB, rel=0.02)
        assert sum(t.nbytes for t in net2) == pytest.approx(160.47 * GIB, rel=0.02)

    def test_drm1_pooling_ratio_matches_table2(self):
        # NSBP 2-shard row: net2 does ~6.3% of net1's pooling work.
        pooling = drm1().expected_pooling_per_net()
        assert pooling["net2"] / pooling["net1"] == pytest.approx(0.063, rel=0.15)

    def test_drm2_capacity_and_tables(self):
        model = drm2()
        assert len(model.tables) == 133
        assert model.sparse_bytes == pytest.approx(138 * GIB, rel=0.02)
        assert model.largest_table_bytes <= 6.8 * GIB
        assert model.sparse_fraction > 0.97

    def test_drm3_dominant_table(self):
        model = drm3()
        assert len(model.tables) == 39
        assert model.sparse_bytes == pytest.approx(200 * GIB, rel=0.02)
        dominant = max(model.tables, key=lambda t: t.nbytes)
        assert dominant.nbytes == pytest.approx(178.8 * GIB, rel=0.02)
        assert dominant.mean_ids == 1.0 and dominant.activation_prob == 1.0
        assert model.sparse_fraction > 0.999  # paper: >99.9%

    def test_drm3_single_net(self):
        assert len(drm3().nets) == 1

    def test_scale_parameter_shrinks_capacity(self):
        full = drm1()
        tiny = drm1(scale=0.001)
        assert tiny.sparse_bytes < full.sparse_bytes * 0.01
        assert len(tiny.tables) == len(full.tables)

    def test_build_by_name(self):
        assert build("drm1").name == "DRM1"
        assert build("DRM3").name == "DRM3"
        with pytest.raises(KeyError):
            build("DRM9")

    def test_all_tables_fp32_uncompressed(self):
        for model in (drm1(scale=0.01), drm2(scale=0.01), drm3(scale=0.01)):
            assert all(t.dtype is DType.FP32 for t in model.tables)


class TestGrowth:
    def test_order_of_magnitude_growth(self):
        points = growth_series()
        features_x, capacity_x = growth_factor(points)
        assert features_x >= 9.0  # "an order of magnitude in only three years"
        assert capacity_x >= 9.0

    def test_monotonic_growth(self):
        points = growth_series()
        features = [p.num_sparse_features for p in points]
        capacity = [p.embedding_bytes for p in points]
        assert features == sorted(features)
        assert capacity == sorted(capacity)

    def test_three_year_span(self):
        points = growth_series()
        assert points[-1].years_since_start == pytest.approx(3.0)
