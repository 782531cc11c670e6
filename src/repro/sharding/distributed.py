"""Distributed numeric execution: partition a materialized model by a plan.

Implements the paper's model transformation (Section III-C): a custom
partitioning tool groups embedding tables per the sharding plan, replaces
their SLS operators in the main net with RPC operators, and builds one
little sparse-shard net per (shard, net) pair.  Here the "RPC" is an
in-process call into a :class:`ShardService`, which keeps the semantics --
stateless shards, pooled results returned by blob name, row-partitioned
tables returning partial sums merged on the main shard -- while letting
tests assert *numeric equivalence with singular execution*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.dlrm import MaterializedModel, NumericRequest
from repro.core.embedding import PartitionedEmbeddingTable, RowShardRouting
from repro.core.executor import NetExecutor
from repro.core.graph import ModelGraph, Net
from repro.core.operators import Operator, RemoteCall, SparseLengthsSum, SumBlobs
from repro.models.config import ModelConfig
from repro.sharding.plan import ShardingPlan, TableAssignment


@dataclass(frozen=True)
class _ShardTable:
    """A (possibly partitioned) table resident on a sparse shard."""

    assignment: TableAssignment
    pooled_blob: str

    @property
    def name(self) -> str:
        return self.assignment.table_name


class ShardService:
    """One sparse shard: holds table storage, serves pooled lookups.

    Stateless between calls (paper Section III-A1): every ``invoke`` gets
    ids and lengths in the payload and returns pooled outputs; nothing is
    retained, so shards can be replicated or restarted freely.
    """

    def __init__(
        self,
        shard_index: int,
        model: MaterializedModel,
        assignments: list[TableAssignment],
    ):
        self.shard_index = shard_index
        self.model_config = model.config
        self._tables: dict[str, object] = {}
        self._shard_tables: list[_ShardTable] = []
        for assignment in assignments:
            base = model.tables[assignment.table_name]
            if assignment.num_parts == 1:
                storage = base
                pooled_blob = f"{assignment.table_name}_pooled"
            else:
                routing = RowShardRouting(
                    assignment.table_name, assignment.part_index, assignment.num_parts
                )
                storage = PartitionedEmbeddingTable(base, routing)
                pooled_blob = (
                    f"{assignment.table_name}_pooled_part{assignment.part_index}"
                )
            self._tables[pooled_blob] = storage
            self._shard_tables.append(_ShardTable(assignment, pooled_blob))

    def tables_for_net(self, net_name: str) -> list[_ShardTable]:
        return [
            st
            for st in self._shard_tables
            if self.model_config.table(st.name).net == net_name
        ]

    def invoke(self, net_name: str, payload: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        """Serve one RPC: pooled lookups for this shard's tables of a net."""
        results: dict[str, np.ndarray] = {}
        for shard_table in self.tables_for_net(net_name):
            values = payload[f"{shard_table.name}_hashed"]
            lengths = payload[f"{shard_table.name}_lengths"]
            storage = self._tables[shard_table.pooled_blob]
            if isinstance(storage, PartitionedEmbeddingTable):
                results[shard_table.pooled_blob] = storage.lookup_sum_partial(
                    values, lengths
                )
            else:
                results[shard_table.pooled_blob] = storage.lookup_sum(values, lengths)
        return results


class DistributedModel:
    """A materialized model partitioned into a main shard + sparse shards."""

    def __init__(self, model: MaterializedModel, plan: ShardingPlan):
        plan.validate(model.config)
        self.base = model
        self.plan = plan
        self.shards = [
            ShardService(spec.index, model, spec.assignments) for spec in plan.shards
        ]
        self.graph = self._rewrite_graph()
        self.graph.validate()

    # -- graph rewrite -------------------------------------------------------
    def _remote_tables(self) -> set[str]:
        return {
            assignment.table_name
            for shard in self.plan.shards
            for assignment in shard.assignments
        }

    def _rewrite_graph(self) -> ModelGraph:
        remote = self._remote_tables()
        config: ModelConfig = self.base.config
        graph = ModelGraph(f"{config.name}:{self.plan.label}")
        for source_net in self.base.graph.nets:
            net = Net(
                source_net.name,
                external_inputs=set(source_net.external_inputs),
                external_outputs=list(source_net.external_outputs),
            )
            ops: list[Operator] = []
            removed: list[SparseLengthsSum] = []
            for op in source_net.operators:
                if isinstance(op, SparseLengthsSum):
                    table_name = op.name.removeprefix("sls_")
                    if table_name in remote:
                        removed.append(op)
                        continue
                ops.append(op)
            insert_at = self._rpc_insertion_point(ops)
            rpc_ops = self._build_rpc_ops(source_net.name, removed)
            net.operators = ops[:insert_at] + rpc_ops + ops[insert_at:]
            graph.nets.append(net)
        return graph

    @staticmethod
    def _rpc_insertion_point(ops: list[Operator]) -> int:
        """RPC results must exist before the first op that consumes pooled
        blobs; inserting before the first Concat keeps the paper's layout
        (dense bottom -> async RPC -> interaction/top)."""
        for index, op in enumerate(ops):
            if op.__class__.__name__ == "Concat":
                return index
        return len(ops)

    def _build_rpc_ops(
        self, net_name: str, removed: list[SparseLengthsSum]
    ) -> list[Operator]:
        removed_names = {op.name.removeprefix("sls_") for op in removed}
        rpc_ops: list[Operator] = []
        merges: dict[str, list[str]] = {}
        for shard, service in zip(self.plan.shards, self.shards):
            shard_tables = [
                a
                for a in shard.assignments
                if a.table_name in removed_names
                and self.base.config.table(a.table_name).net == net_name
            ]
            if not shard_tables:
                continue
            inputs, outputs = [], []
            for assignment in shard_tables:
                inputs.extend(
                    (f"{assignment.table_name}_hashed", f"{assignment.table_name}_lengths")
                )
                if assignment.num_parts == 1:
                    outputs.append(f"{assignment.table_name}_pooled")
                else:
                    blob = f"{assignment.table_name}_pooled_part{assignment.part_index}"
                    outputs.append(blob)
                    merges.setdefault(assignment.table_name, []).append(blob)
            rpc_ops.append(
                RemoteCall(
                    name=f"rpc_{net_name}_shard{shard.index}",
                    inputs=tuple(inputs),
                    outputs=tuple(outputs),
                    shard_index=shard.index,
                    net_name=net_name,
                    invoke=service.invoke,
                )
            )
        for table_name, partial_blobs in sorted(merges.items()):
            rpc_ops.append(
                SumBlobs(
                    name=f"merge_{table_name}",
                    inputs=tuple(sorted(partial_blobs)),
                    outputs=(f"{table_name}_pooled",),
                )
            )
        return rpc_ops

    # -- execution -------------------------------------------------------------
    def forward(self, request: NumericRequest) -> np.ndarray:
        """Distributed forward pass; must match the singular model exactly
        up to floating-point associativity."""
        executor = NetExecutor()
        self.base.feed_request(executor.workspace, request)
        executor.run_model(self.graph)
        return executor.workspace.fetch("scores").reshape(-1)

    @property
    def rpc_op_count(self) -> int:
        return sum(1 for op in self.graph.all_operators() if isinstance(op, RemoteCall))
