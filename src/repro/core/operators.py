"""Numeric operator implementations (the Caffe2-like op set).

Each operator reads/writes named blobs in a :class:`Workspace`.  The set
covers everything the paper's models need: dense fully-connected stacks,
activations, feature transforms, the SparseLengthsSum family (whole and
row-partitioned tables), zero-fill for absent sparse features, feature
interaction, and the RPC operator used by distributed nets.

``RemoteCall`` is deliberately transport-agnostic: it holds a callable
(bound to a shard service) so the same operator drives both the in-process
numeric path (correctness tests) and latency-simulated serving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.embedding import EmbeddingTable
from repro.core.types import OpCategory


class Workspace:
    """Named blob storage shared by a net's operators."""

    def __init__(self):
        self._blobs: dict[str, np.ndarray] = {}

    def feed(self, name: str, value: np.ndarray) -> None:
        self._blobs[name] = np.asarray(value)

    def fetch(self, name: str) -> np.ndarray:
        try:
            return self._blobs[name]
        except KeyError:
            raise KeyError(f"blob {name!r} not in workspace") from None

    def has(self, name: str) -> bool:
        return name in self._blobs


@dataclass
class Operator:
    """Base operator: named inputs/outputs plus an attribution category."""

    name: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    category: OpCategory = OpCategory.DENSE

    def run(self, workspace: Workspace) -> None:
        raise NotImplementedError

    @property
    def is_async(self) -> bool:
        return False


@dataclass
class FullyConnected(Operator):
    """y = x @ W^T + b, with weights held in the workspace."""

    weight_blob: str = ""
    bias_blob: str = ""
    category: OpCategory = OpCategory.DENSE

    def run(self, workspace: Workspace) -> None:
        x = np.atleast_2d(workspace.fetch(self.inputs[0]))
        weight = workspace.fetch(self.weight_blob)
        bias = workspace.fetch(self.bias_blob)
        workspace.feed(self.outputs[0], x @ weight.T + bias)


@dataclass
class Relu(Operator):
    category: OpCategory = OpCategory.ACTIVATIONS

    def run(self, workspace: Workspace) -> None:
        workspace.feed(self.outputs[0], np.maximum(workspace.fetch(self.inputs[0]), 0.0))


@dataclass
class Sigmoid(Operator):
    category: OpCategory = OpCategory.ACTIVATIONS

    def run(self, workspace: Workspace) -> None:
        x = workspace.fetch(self.inputs[0])
        workspace.feed(self.outputs[0], 1.0 / (1.0 + np.exp(-x)))


@dataclass
class Clip(Operator):
    """Clamp values into [lo, hi] (the paper's Scale/Clip group)."""

    lo: float = -1e30
    hi: float = 1e30
    category: OpCategory = OpCategory.SCALE_CLIP

    def run(self, workspace: Workspace) -> None:
        workspace.feed(
            self.outputs[0], np.clip(workspace.fetch(self.inputs[0]), self.lo, self.hi)
        )


@dataclass
class HashMod(Operator):
    """Hash raw 64-bit sparse ids into a table's bucket range."""

    num_buckets: int = 1
    category: OpCategory = OpCategory.HASH

    def run(self, workspace: Workspace) -> None:
        raw = np.asarray(workspace.fetch(self.inputs[0]), dtype=np.int64)
        # Splittable 64-bit mix keeps nearby raw ids from colliding into
        # nearby buckets, like a production hash.
        mixed = (raw ^ (raw >> 33)) * np.int64(0xFF51AFD7ED558CCD & 0x7FFFFFFFFFFFFFFF)
        workspace.feed(self.outputs[0], np.abs(mixed) % self.num_buckets)


@dataclass
class Concat(Operator):
    """Concatenate along the last axis, broadcasting row counts.

    Request-level blobs (shape ``(1, d)``) broadcast against per-item blobs
    (shape ``(items, d)``), which is how the user net's output joins the
    content net's per-item features.
    """

    category: OpCategory = OpCategory.MEMORY_TRANSFORMS

    def run(self, workspace: Workspace) -> None:
        parts = [np.atleast_2d(workspace.fetch(name)) for name in self.inputs]
        rows = max(part.shape[0] for part in parts)
        expanded = [
            np.broadcast_to(part, (rows, part.shape[1])) if part.shape[0] != rows else part
            for part in parts
        ]
        workspace.feed(self.outputs[0], np.concatenate(expanded, axis=1))


@dataclass
class ZeroFill(Operator):
    """Produce a zero matrix for an absent sparse feature.

    ``rows_like`` names a blob whose row count determines the output rows
    (or 1 for request-level features).
    """

    dim: int = 1
    rows_like: str = ""
    category: OpCategory = OpCategory.FILL

    def run(self, workspace: Workspace) -> None:
        rows = 1
        if self.rows_like:
            rows = np.atleast_2d(workspace.fetch(self.rows_like)).shape[0]
        workspace.feed(self.outputs[0], np.zeros((rows, self.dim), dtype=np.float32))


@dataclass
class SparseLengthsSum(Operator):
    """Pooled embedding lookup over a materialized table."""

    table: EmbeddingTable | None = None
    category: OpCategory = OpCategory.SPARSE

    def run(self, workspace: Workspace) -> None:
        values = workspace.fetch(self.inputs[0])
        lengths = workspace.fetch(self.inputs[1])
        workspace.feed(self.outputs[0], self.table.lookup_sum(values, lengths))


@dataclass
class SumBlobs(Operator):
    """Elementwise sum; merges row-partition partial pools on the main shard."""

    category: OpCategory = OpCategory.MEMORY_TRANSFORMS

    def run(self, workspace: Workspace) -> None:
        total = workspace.fetch(self.inputs[0]).copy()
        for name in self.inputs[1:]:
            total = total + workspace.fetch(name)
        workspace.feed(self.outputs[0], total)


@dataclass
class DotInteraction(Operator):
    """Pairwise dot-product feature interaction (DLRM style).

    Inputs are equal-width (rows x d) matrices; the output concatenates the
    upper-triangle pairwise dot products per row.
    """

    category: OpCategory = OpCategory.FEATURE_TRANSFORMS

    def run(self, workspace: Workspace) -> None:
        parts = [np.atleast_2d(workspace.fetch(name)) for name in self.inputs]
        rows = max(part.shape[0] for part in parts)
        stacked = np.stack(
            [np.broadcast_to(p, (rows, p.shape[1])) for p in parts], axis=1
        )  # rows x features x d
        gram = np.einsum("rfd,rgd->rfg", stacked, stacked)
        f = stacked.shape[1]
        upper = np.triu_indices(f, k=1)
        workspace.feed(self.outputs[0], gram[:, upper[0], upper[1]])


#: Signature of the callable bound into a RemoteCall: takes the net name and
#: the sparse inputs for this call, returns pooled outputs per blob name.
RemoteInvoker = Callable[[str, dict[str, np.ndarray]], dict[str, np.ndarray]]


@dataclass
class RemoteCall(Operator):
    """Asynchronous RPC operator replacing sparse subnets (paper Fig. 2b).

    Sends the sparse-id inputs for a group of tables to one sparse shard
    and receives their pooled outputs.  Inputs/outputs are the id/length
    blobs and the pooled blobs; ``invoke`` is bound by the partitioner.
    """

    shard_index: int = -1
    net_name: str = ""
    invoke: RemoteInvoker | None = None
    category: OpCategory = OpCategory.RPC

    def run(self, workspace: Workspace) -> None:
        payload = {name: workspace.fetch(name) for name in self.inputs}
        results = self.invoke(self.net_name, payload)
        expected = set(self.outputs)
        produced = set(results)
        if produced != expected:
            raise RuntimeError(
                f"rpc op {self.name}: shard returned {sorted(produced)}, "
                f"expected {sorted(expected)}"
            )
        for blob, value in results.items():
            workspace.feed(blob, value)

    @property
    def is_async(self) -> bool:
        return True
