"""Tests for the operator graph, numeric operators, and the executor."""

import numpy as np
import pytest

from repro.core.embedding import EmbeddingTable
from repro.core.executor import NetExecutor
from repro.core.graph import GraphError, Net, validate_net
from repro.core.operators import (
    Clip,
    Concat,
    DotInteraction,
    FullyConnected,
    HashMod,
    Relu,
    RemoteCall,
    Sigmoid,
    SparseLengthsSum,
    SumBlobs,
    Workspace,
    ZeroFill,
)
from repro.core.types import OpCategory
from repro.models.config import TableConfig


class TestWorkspace:
    def test_feed_fetch_roundtrip(self):
        ws = Workspace()
        ws.feed("x", np.array([1.0, 2.0]))
        np.testing.assert_array_equal(ws.fetch("x"), [1.0, 2.0])

    def test_missing_blob_raises(self):
        with pytest.raises(KeyError):
            Workspace().fetch("nope")

    def test_has(self):
        ws = Workspace()
        assert not ws.has("x")
        ws.feed("x", np.zeros(1))
        assert ws.has("x")


class TestOperators:
    def test_fully_connected(self):
        ws = Workspace()
        ws.feed("x", np.array([[1.0, 2.0]]))
        ws.feed("w", np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        ws.feed("b", np.array([0.5, 0.5, 0.5]))
        FullyConnected("fc", ("x",), ("y",), weight_blob="w", bias_blob="b").run(ws)
        np.testing.assert_allclose(ws.fetch("y"), [[1.5, 2.5, 3.5]])

    def test_relu(self):
        ws = Workspace()
        ws.feed("x", np.array([-1.0, 0.0, 2.0]))
        Relu("r", ("x",), ("y",)).run(ws)
        np.testing.assert_array_equal(ws.fetch("y"), [0.0, 0.0, 2.0])

    def test_sigmoid_bounds(self):
        ws = Workspace()
        ws.feed("x", np.array([-100.0, 0.0, 100.0]))
        Sigmoid("s", ("x",), ("y",)).run(ws)
        out = ws.fetch("y")
        assert out[1] == pytest.approx(0.5)
        assert 0.0 <= out[0] < 1e-6 and 1 - 1e-6 < out[2] <= 1.0

    def test_clip(self):
        ws = Workspace()
        ws.feed("x", np.array([-5.0, 0.0, 5.0]))
        Clip("c", ("x",), ("y",), lo=-1.0, hi=1.0).run(ws)
        np.testing.assert_array_equal(ws.fetch("y"), [-1.0, 0.0, 1.0])

    def test_hash_mod_in_range_and_deterministic(self):
        ws = Workspace()
        raw = np.array([0, 1, 2**40, -17, 123456789], dtype=np.int64)
        ws.feed("raw", raw)
        HashMod("h", ("raw",), ("ids",), num_buckets=97).run(ws)
        ids = ws.fetch("ids")
        assert ((ids >= 0) & (ids < 97)).all()
        HashMod("h2", ("raw",), ("ids2",), num_buckets=97).run(ws)
        np.testing.assert_array_equal(ids, ws.fetch("ids2"))

    def test_hash_mod_spreads_sequential_ids(self):
        ws = Workspace()
        ws.feed("raw", np.arange(1000, dtype=np.int64))
        HashMod("h", ("raw",), ("ids",), num_buckets=64).run(ws)
        counts = np.bincount(ws.fetch("ids"), minlength=64)
        assert counts.max() < 3 * counts.mean()

    def test_concat_broadcasts_request_level_blobs(self):
        ws = Workspace()
        ws.feed("a", np.ones((1, 2)))
        ws.feed("b", np.arange(6.0).reshape(3, 2))
        Concat("c", ("a", "b"), ("y",)).run(ws)
        out = ws.fetch("y")
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out[:, :2], np.ones((3, 2)))

    def test_zero_fill_rows_like(self):
        ws = Workspace()
        ws.feed("ref", np.zeros((5, 3)))
        ZeroFill("z", (), ("y",), dim=4, rows_like="ref").run(ws)
        assert ws.fetch("y").shape == (5, 4)

    def test_zero_fill_request_level(self):
        ws = Workspace()
        ZeroFill("z", (), ("y",), dim=4).run(ws)
        assert ws.fetch("y").shape == (1, 4)

    def test_sum_blobs(self):
        ws = Workspace()
        ws.feed("a", np.ones((2, 2)))
        ws.feed("b", 2 * np.ones((2, 2)))
        SumBlobs("s", ("a", "b"), ("y",)).run(ws)
        np.testing.assert_array_equal(ws.fetch("y"), 3 * np.ones((2, 2)))

    def test_dot_interaction_pairwise(self):
        ws = Workspace()
        ws.feed("u", np.array([[1.0, 0.0]]))
        ws.feed("v", np.array([[2.0, 3.0], [0.0, 1.0]]))
        DotInteraction("d", ("u", "v"), ("y",)).run(ws)
        np.testing.assert_allclose(ws.fetch("y"), [[2.0], [0.0]])

    def test_sparse_lengths_sum_op(self):
        config = TableConfig("t", "net1", 16, 4)
        table = EmbeddingTable.materialize(config, max_rows=16)
        ws = Workspace()
        ws.feed("ids", np.array([1, 2]))
        ws.feed("lens", np.array([2]))
        SparseLengthsSum("sls", ("ids", "lens"), ("out",), table=table).run(ws)
        np.testing.assert_allclose(
            ws.fetch("out")[0], table.weights[1] + table.weights[2], rtol=1e-6
        )

    def test_remote_call_roundtrip(self):
        calls = []

        def invoke(net_name, payload):
            calls.append((net_name, sorted(payload)))
            return {"t_pooled": np.ones((1, 4))}

        ws = Workspace()
        ws.feed("t_values", np.array([1]))
        ws.feed("t_lengths", np.array([1]))
        op = RemoteCall(
            "rpc", ("t_values", "t_lengths"), ("t_pooled",),
            shard_index=0, net_name="net1", invoke=invoke,
        )
        assert op.is_async
        op.run(ws)
        assert calls == [("net1", ["t_lengths", "t_values"])]
        np.testing.assert_array_equal(ws.fetch("t_pooled"), np.ones((1, 4)))

    def test_remote_call_wrong_outputs_rejected(self):
        op = RemoteCall(
            "rpc", (), ("expected",), shard_index=0, net_name="n",
            invoke=lambda net, payload: {"wrong": np.zeros(1)},
        )
        with pytest.raises(RuntimeError):
            op.run(Workspace())


class TestGraphValidation:
    def test_valid_net_passes(self):
        net = Net("n", external_inputs={"x"})
        net.add(Relu("r", ("x",), ("y",)))
        net.external_outputs.append("y")
        validate_net(net)

    def test_undefined_input_rejected(self):
        net = Net("n")
        net.add(Relu("r", ("ghost",), ("y",)))
        with pytest.raises(GraphError):
            validate_net(net)

    def test_double_production_rejected(self):
        net = Net("n", external_inputs={"x"})
        net.add(Relu("a", ("x",), ("y",)))
        net.add(Relu("b", ("x",), ("y",)))
        with pytest.raises(GraphError):
            validate_net(net)

    def test_missing_external_output_rejected(self):
        net = Net("n", external_inputs={"x"})
        net.external_outputs.append("never")
        with pytest.raises(GraphError):
            validate_net(net)


class TestExecutor:
    def test_stats_collected(self):
        net = Net("n", external_inputs={"x"})
        net.add(Relu("r", ("x",), ("y",)))
        net.add(Clip("c", ("y",), ("z",)))
        executor = NetExecutor()
        executor.workspace.feed("x", np.array([1.0]))
        executor.run_net(net)
        assert executor.stats.ops_run == 2
        assert executor.stats.ops_by_category[OpCategory.ACTIVATIONS] == 1
        assert executor.stats.ops_by_category[OpCategory.SCALE_CLIP] == 1

    def test_missing_external_input_raises(self):
        net = Net("n", external_inputs={"x"})
        with pytest.raises(KeyError):
            NetExecutor().run_net(net)
