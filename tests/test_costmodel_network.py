"""Direct tests for the cost model, network fabric, and platform specs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.types import DType, US
from repro.experiments import (
    ShardingConfiguration,
    build_plan,
    run_configuration,
)
from repro.models import drm1
from repro.models.config import FeatureScope, NetConfig, TableConfig
from repro.requests import RequestGenerator
from repro.simulation.costmodel import (
    CostModel,
    ranking_response_bytes,
    rpc_request_bytes,
    rpc_response_bytes,
)
from repro.serving import ServingConfig
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.network import Fabric, FabricSpec
from repro.simulation.platform import PLATFORMS, SC_LARGE, SC_SMALL


def table(dim=64, scope=FeatureScope.USER, dtype=DType.FP32):
    return TableConfig("t", "net1", num_rows=1000, dim=dim, dtype=dtype, scope=scope)


class TestCostModel:
    def setup_method(self):
        self.cm = CostModel()

    def test_serde_scales_with_bytes(self):
        small = self.cm.serde_time(1_000, SC_LARGE)
        large = self.cm.serde_time(1_000_000, SC_LARGE)
        assert large > small

    def test_serde_scales_with_tables(self):
        no_tables = self.cm.serde_time(1_000, SC_LARGE, tables=0)
        many = self.cm.serde_time(1_000, SC_LARGE, tables=50)
        assert many - no_tables == pytest.approx(50 * self.cm.serde_per_table)

    def test_client_serde_cheaper_per_table(self):
        shard = self.cm.serde_time(0, SC_LARGE, tables=40)
        client = self.cm.serde_time(0, SC_LARGE, tables=40, client_side=True)
        assert client < shard

    def test_serde_slower_on_slower_clock(self):
        assert self.cm.serde_time(10_000, SC_SMALL, tables=10) > self.cm.serde_time(
            10_000, SC_LARGE, tables=10
        )

    def test_dense_time_scales_with_items_and_clock(self):
        net = NetConfig("n", dense_us_per_item=2.0, dense_us_fixed=100.0)
        base = self.cm.dense_time(net, 10, SC_LARGE)
        assert self.cm.dense_time(net, 100, SC_LARGE) > base
        assert self.cm.dense_time(net, 10, SC_SMALL) == pytest.approx(
            base / SC_SMALL.relative_clock
        )

    def test_sls_per_id_platform_insensitive(self):
        """The Figure-15 property: lookups are DRAM-latency bound."""
        large = self.cm.sls_per_id(table(), SC_LARGE)
        small = self.cm.sls_per_id(table(), SC_SMALL)
        assert small / large == pytest.approx(
            SC_SMALL.dram_access_ns / SC_LARGE.dram_access_ns
        )

    def test_sls_per_id_scales_with_dim(self):
        assert self.cm.sls_per_id(table(dim=128), SC_LARGE) > self.cm.sls_per_id(
            table(dim=32), SC_LARGE
        )

    def test_quantized_rows_add_dequant_cost(self):
        fp32 = self.cm.sls_per_id(table(dtype=DType.FP32), SC_LARGE)
        int8 = self.cm.sls_per_id(table(dim=64, dtype=DType.INT8), SC_LARGE)
        # Fewer cache lines but extra dequant ALU work: near-neutral.
        assert int8 == pytest.approx(fp32, rel=0.6)

    def test_sls_time_dispatch_for_empty_tables(self):
        # Singular nets dispatch every table even with no lookups.
        idle = self.cm.sls_time(100, gather=0.0)
        assert idle == pytest.approx(100 * self.cm.sls_dispatch_per_table)

    def test_net_overhead_grows_with_ops(self):
        assert self.cm.net_overhead(100) > self.cm.net_overhead(10)

    @given(ids=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_sls_time_monotone_in_ids(self, ids):
        per_id = self.cm.sls_per_id(table(), SC_LARGE)
        assert self.cm.sls_time(1, (ids + 1) * per_id) >= self.cm.sls_time(
            1, ids * per_id
        )


class TestPayloadSizing:
    def test_request_bytes_scale_with_ids(self):
        few = rpc_request_bytes(ids=10, tables=1, segments=1)
        many = rpc_request_bytes(ids=1000, tables=1, segments=1)
        assert many - few == pytest.approx(990 * 8.0)

    def test_response_bytes_user_vs_item_scope(self):
        user = rpc_response_bytes(1, user_dims=64, item_dims=0, batch_items=50)
        item = rpc_response_bytes(1, user_dims=0, item_dims=64, batch_items=50)
        # ITEM features return one pooled vector per candidate item.
        assert item > 40 * user / 2

    def test_ranking_response_scales_with_items(self):
        assert ranking_response_bytes(1000) > ranking_response_bytes(10)


class TestFabric:
    def test_delay_above_floor(self):
        fabric = Fabric(seed=0)
        floor = fabric.spec.propagation + fabric.spec.kernel_overhead
        for _ in range(100):
            delay = fabric.one_way_delay()
            assert delay > floor

    def test_jitter_long_tailed(self):
        fabric = Fabric(seed=3)
        delays = np.array(
            [fabric.one_way_delay() for _ in range(4000)]
        )
        jitter = delays - (fabric.spec.propagation + fabric.spec.kernel_overhead)
        assert np.percentile(jitter, 99) > 3 * np.percentile(jitter, 50)

    def test_overflowing_jitter_fails_loudly(self):
        """A finite sigma whose lognormal overflows draws infinite (or,
        with a zero median, NaN) delays: the window that holds one is
        refused, naming the field."""
        for median in (6 * US, 0.0):
            fabric = Fabric(FabricSpec(jitter_median=median, jitter_sigma=800.0))
            with pytest.raises(ValueError, match=r"FabricSpec\.jitter_sigma"):
                fabric.one_way_delay()

    @pytest.mark.parametrize("kernel", ["vectorized", "batched"])
    def test_overflowing_jitter_fails_the_replay_loudly(self, kernel):
        """Both replay engines read the fabric's delays: a replay on a
        fabric whose jitter overflows stops with the field named, not a
        ``TypeError`` deep in the attribution."""
        model = drm1()
        pooling = estimate_pooling_factors(model, num_requests=100, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 2), pooling)
        requests = RequestGenerator(model, seed=3).generate_many(4)
        serving = ServingConfig(
            seed=1, kernel=kernel, fabric_spec=FabricSpec(jitter_sigma=800.0)
        )
        with pytest.raises(ValueError, match=r"FabricSpec\.jitter_sigma"):
            run_configuration(model, plan, requests, serving)

    def test_deterministic_given_seed(self):
        a = [Fabric(seed=5).one_way_delay() for _ in range(5)]
        b = [Fabric(seed=5).one_way_delay() for _ in range(5)]
        assert a == b


class TestPlatforms:
    def test_registry(self):
        assert set(PLATFORMS) == {"SC-Large", "SC-Small"}

    def test_sc_small_is_smaller(self):
        assert SC_SMALL.dram_capacity < SC_LARGE.dram_capacity
        assert SC_SMALL.clock_ghz < SC_LARGE.clock_ghz
        assert SC_SMALL.nic_bandwidth < SC_LARGE.nic_bandwidth

    def test_relative_clock(self):
        assert SC_LARGE.relative_clock == 1.0
        assert SC_SMALL.relative_clock == pytest.approx(0.8)

    def test_dram_latency_nearly_identical(self):
        """The premise behind Figure 15."""
        ratio = SC_SMALL.dram_access_ns / SC_LARGE.dram_access_ns
        assert 0.9 < ratio < 1.1
