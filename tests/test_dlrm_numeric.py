"""Tests for the materialized DLRM forward pass and request generation."""

import numpy as np
import pytest

from repro.core.dlrm import MaterializedModel
from repro.models import drm1, drm2, drm3
from repro.models.config import FeatureScope
from repro.requests import (
    RequestGenerator,
    materialize_numeric,
    request_payload_bytes,
)
from repro.requests.generator import SparseFeatureDraw
from repro.workloads import PoissonArrivals, SerialArrivals


@pytest.fixture(scope="module")
def tiny_drm1():
    return MaterializedModel.build(drm1(scale=1e-6), max_rows=64, seed=7)


@pytest.fixture(scope="module")
def tiny_drm3():
    return MaterializedModel.build(drm3(scale=1e-6), max_rows=64, seed=7)


class TestMaterializedForward:
    def test_scores_shape_and_range(self, tiny_drm1):
        generator = RequestGenerator(tiny_drm1.config, seed=11)
        request = generator.generate(0)
        numeric = materialize_numeric(tiny_drm1.config, request, seed=3)
        scores = tiny_drm1.forward(numeric)
        assert scores.shape == (request.num_items,)
        assert ((scores > 0) & (scores < 1)).all()

    def test_forward_deterministic(self, tiny_drm1):
        generator = RequestGenerator(tiny_drm1.config, seed=11)
        numeric = materialize_numeric(tiny_drm1.config, generator.generate(1), seed=3)
        a = tiny_drm1.forward(numeric)
        b = tiny_drm1.forward(numeric)
        np.testing.assert_array_equal(a, b)

    def test_single_net_model_forward(self, tiny_drm3):
        generator = RequestGenerator(tiny_drm3.config, seed=11)
        request = generator.generate(0)
        numeric = materialize_numeric(tiny_drm3.config, request, seed=3)
        scores = tiny_drm3.forward(numeric)
        assert scores.shape == (request.num_items,)

    def test_sparse_features_affect_scores(self, tiny_drm1):
        generator = RequestGenerator(tiny_drm1.config, seed=11)
        request = generator.generate(2)
        numeric = materialize_numeric(tiny_drm1.config, request, seed=3)
        baseline = tiny_drm1.forward(numeric)
        stripped = type(numeric)(
            request_id=numeric.request_id,
            num_items=numeric.num_items,
            user_dense=numeric.user_dense,
            item_dense=numeric.item_dense,
            sparse={},
        )
        without = tiny_drm1.forward(stripped)
        assert not np.allclose(baseline, without)

    def test_graph_validates(self, tiny_drm1, tiny_drm3):
        tiny_drm1.graph.validate()
        tiny_drm3.graph.validate()

    def test_all_tables_have_sls_ops(self, tiny_drm1):
        sls_names = {
            op.name for op in tiny_drm1.graph.all_operators() if op.name.startswith("sls_")
        }
        assert len(sls_names) == len(tiny_drm1.config.tables)


class TestRequestGenerator:
    def test_deterministic_given_seed(self):
        model = drm1(scale=1e-6)
        a = RequestGenerator(model, seed=5).generate_many(10)
        b = RequestGenerator(model, seed=5).generate_many(10)
        for x, y in zip(a, b):
            assert x.num_items == y.num_items
            assert x.total_ids == y.total_ids

    def test_pooling_totals_match_model_expectation(self):
        model = drm1(scale=1e-6)
        requests = RequestGenerator(model, seed=5).generate_many(600)
        per_net = {"net1": 0.0, "net2": 0.0}
        for request in requests:
            for net in per_net:
                per_net[net] += request.total_ids_for_net(model, net)
        per_net = {k: v / len(requests) for k, v in per_net.items()}
        expected = model.expected_pooling_per_net()
        assert per_net["net1"] == pytest.approx(expected["net1"], rel=0.1)
        assert per_net["net2"] == pytest.approx(expected["net2"], rel=0.25)

    def test_item_features_sparser_than_user(self):
        model = drm1(scale=1e-6)
        requests = RequestGenerator(model, seed=5).generate_many(100)
        user_tables = {t.name for t in model.tables if t.scope is FeatureScope.USER}
        user_hits = item_hits = 0
        for request in requests:
            for name in request.draws:
                if name in user_tables:
                    user_hits += 1
                else:
                    item_hits += 1
        user_rate = user_hits / (len(requests) * len(user_tables))
        item_rate = item_hits / (len(requests) * (len(model.tables) - len(user_tables)))
        assert user_rate > 0.5
        assert item_rate < user_rate

    def test_timestamps_span_window(self):
        model = drm3(scale=1e-6)
        requests = RequestGenerator(model, seed=5).generate_many(50, window_days=5)
        assert requests[0].timestamp == 0.0
        assert requests[-1].timestamp > 4 * 86400

    def test_ids_in_slice_user_vs_item(self):
        model = drm1(scale=1e-6)
        request = RequestGenerator(model, seed=5).generate(0)
        for draw in request.draws.values():
            table = model.table(draw.table_name)
            half = draw.ids_in_slice(0, request.num_items // 2)
            full = draw.ids_in_slice(0, request.num_items)
            if table.scope is FeatureScope.USER:
                assert half == full == draw.total_ids
            else:
                assert full == draw.total_ids
                assert 0 <= half <= full
        # A constructed draw over 700 items in 8 batches: an id on both
        # edges of every batch and three on item 100.
        edges = [round(index * 700 / 8) for index in range(8)] + [700]
        ids = sorted([*edges[:-1], *(edge - 1 for edge in edges[1:]), 100, 100, 100])
        draw = SparseFeatureDraw("t", len(ids), np.array(ids, dtype=np.int64))
        assert [
            draw.ids_in_slice(start, stop) for start, stop in zip(edges, edges[1:])
        ] == [2, 5, 2, 2, 2, 2, 2, 2]
        assert draw.ids_in_slice(0, 700) == 19
        assert draw.ids_in_slice(100, 101) == 3
        assert draw.ids_in_slice(101, 175) == 1
        assert draw.ids_in_slice(101, 101) == 0

    def test_payload_bytes_scale_with_items(self):
        model = drm2(scale=1e-6)
        generator = RequestGenerator(model, seed=5)
        requests = sorted(generator.generate_many(50), key=lambda r: r.num_items)
        small, large = (
            request_payload_bytes(
                model, request.num_items, request.total_ids, len(request.draws)
            )
            for request in (requests[0], requests[-1])
        )
        assert large > small


class TestReplaySchedule:
    """The paper's two replay regimes, as arrival processes."""

    def test_serial_has_no_arrivals(self):
        assert SerialArrivals().arrival_times(10) is None

    def test_open_loop_rate(self):
        schedule = PoissonArrivals(qps=25.0, seed=1)
        times = schedule.arrival_times(5000)
        assert times is not None and len(times) == 5000
        rate = 5000 / times[-1]
        assert rate == pytest.approx(25.0, rel=0.1)

    def test_open_loop_requires_positive_qps(self):
        with pytest.raises(ValueError):
            PoissonArrivals(qps=0.0)

    def test_arrivals_monotonic(self):
        times = PoissonArrivals(qps=10.0).arrival_times(100)
        assert (np.diff(times) > 0).all()
