"""The paper's capacity-driven sharding strategies (Table I).

==================  =========================================================
strategy            placement rule
==================  =========================================================
``1-shard``         all embedding tables on one sparse shard (worst case)
``cap-bal``         equal total embedding-table *bytes* per shard
``load-bal``        equal estimated *pooling factor* (lookup work) per shard
``NSBP``            tables grouped by net, packed into bins up to a size
                    limit; tables larger than the limit get whole shards
                    via row partitioning
==================  =========================================================

``singular`` (distributed inference disabled) is represented by
:func:`repro.sharding.plan.singular_plan`.

The balanced strategies use longest-processing-time greedy placement, the
standard heuristic for makespan balancing; the paper likewise uses
heuristics because exhaustive search is intractable (Section III-B).
"""

from __future__ import annotations

import abc
import math

from repro.models.config import ModelConfig
from repro.sharding.plan import ShardingError, ShardingPlan, ShardSpec, TableAssignment


class ShardingStrategy(abc.ABC):
    """Produces a :class:`ShardingPlan` for a model."""

    name: str = ""

    @abc.abstractmethod
    def build_plan(
        self,
        model: ModelConfig,
        num_shards: int,
        pooling: dict[str, float] | None = None,
    ) -> ShardingPlan:
        """Build and validate a plan with ``num_shards`` sparse shards."""

    def _finish(self, model: ModelConfig, shards: list[ShardSpec]) -> ShardingPlan:
        plan = ShardingPlan(model_name=model.name, strategy=self.name, shards=shards)
        plan.validate(model)
        return plan


class OneShardStrategy(ShardingStrategy):
    """All embedding tables on a single sparse shard (paper's worst case)."""

    name = "1-shard"

    def build_plan(self, model, num_shards=1, pooling=None):
        if num_shards != 1:
            raise ShardingError("1-shard strategy places everything on one shard")
        shard = ShardSpec(0, [TableAssignment(t.name, 0) for t in model.tables])
        return self._finish(model, [shard])


def _greedy_balance(
    model: ModelConfig,
    num_shards: int,
    weight: dict[str, float],
    strategy_name: str,
) -> list[ShardSpec]:
    """LPT greedy: heaviest table first, onto the lightest shard."""
    if num_shards < 1:
        raise ShardingError("num_shards must be >= 1")
    budget = sum(t.nbytes for t in model.tables) / num_shards
    oversized = [t.name for t in model.tables if t.nbytes > 1.5 * budget]
    if oversized and num_shards > 1:
        raise ShardingError(
            f"{strategy_name}: tables {oversized} exceed the per-shard budget "
            f"of {num_shards} shards; huge tables require row partitioning "
            "(use NSBP)"
        )
    loads = [0.0] * num_shards
    byte_loads = [0.0] * num_shards  # tie-break so zero-weight tables spread out
    shards = [ShardSpec(i) for i in range(num_shards)]
    order = sorted(model.tables, key=lambda t: (-weight[t.name], t.name))
    for table in order:
        target = min(range(num_shards), key=lambda i: (loads[i], byte_loads[i], i))
        shards[target].assignments.append(TableAssignment(table.name, target))
        loads[target] += weight[table.name]
        byte_loads[target] += table.nbytes
    empty = [s.index for s in shards if not s.assignments]
    if empty:
        raise ShardingError(f"{strategy_name}: shards {empty} ended up empty")
    return shards


class CapacityBalancedStrategy(ShardingStrategy):
    """Equal embedding-table bytes per shard (paper Section III-B1)."""

    name = "cap-bal"

    def build_plan(self, model, num_shards, pooling=None):
        weights = {t.name: t.nbytes for t in model.tables}
        return self._finish(
            model, _greedy_balance(model, num_shards, weights, self.name)
        )


class LoadBalancedStrategy(ShardingStrategy):
    """Equal estimated pooling work per shard (paper Section III-B2)."""

    name = "load-bal"

    def build_plan(self, model, num_shards, pooling=None):
        if pooling is None:
            raise ShardingError("load-bal requires estimated pooling factors")
        missing = {t.name for t in model.tables} - set(pooling)
        if missing:
            raise ShardingError(f"pooling estimates missing for {sorted(missing)}")
        weights = {t.name: pooling[t.name] for t in model.tables}
        return self._finish(
            model, _greedy_balance(model, num_shards, weights, self.name)
        )


class NetSpecificBinPacking(ShardingStrategy):
    """Group tables by net, pack bins to a size limit (Section III-B3).

    Tables are packed per net, in declaration order (the paper packs the
    existing training parameter servers, preserving their grouping), into
    bins no larger than a limit ``L``.  A table larger than ``L`` is row
    partitioned into ``ceil(bytes / L)`` whole shards.  ``L`` is searched
    so the total bin count equals the requested shard count.
    """

    name = "NSBP"

    def build_plan(self, model, num_shards, pooling=None):
        if num_shards < 1:
            raise ShardingError("num_shards must be >= 1")
        if num_shards < len(model.nets):
            raise ShardingError(
                f"NSBP needs at least one shard per net ({len(model.nets)})"
            )
        limit = self._search_limit(model, num_shards)
        bins = self._pack(model, limit)
        if len(bins) != num_shards:
            raise ShardingError(
                f"NSBP could not reach exactly {num_shards} shards "
                f"(closest packing gives {len(bins)})"
            )
        shards = []
        for index, assignments in enumerate(bins):
            shards.append(
                ShardSpec(
                    index,
                    [
                        TableAssignment(name, index, part_index, num_parts)
                        for name, part_index, num_parts in assignments
                    ],
                )
            )
        return self._finish(model, shards)

    @staticmethod
    def _pack(model: ModelConfig, limit: float) -> list[list[tuple[str, int, int]]]:
        """Pack per net; returns per-bin lists of (table, part, num_parts)."""
        bins: list[list[tuple[str, int, int]]] = []
        for net in model.nets:
            current: list[tuple[str, int, int]] = []
            current_bytes = 0.0
            for table in model.tables_for_net(net.name):
                if table.nbytes > limit:
                    # Huge table: its own run of row-partition shards.
                    if current:
                        bins.append(current)
                        current, current_bytes = [], 0.0
                    parts = max(2, math.ceil(table.nbytes / limit))
                    for part in range(parts):
                        bins.append([(table.name, part, parts)])
                    continue
                if current and current_bytes + table.nbytes > limit:
                    bins.append(current)
                    current, current_bytes = [], 0.0
                current.append((table.name, 0, 1))
                current_bytes += table.nbytes
            if current:
                bins.append(current)
        return bins

    def _search_limit(self, model: ModelConfig, num_shards: int) -> float:
        """Find a size limit whose packing yields exactly ``num_shards`` bins."""
        total = sum(t.nbytes for t in model.tables)
        lo, hi = total / (4 * num_shards), total * 1.01

        def count(limit: float) -> int:
            return len(self._pack(model, limit))

        # Bin count decreases (weakly) as the limit grows: bisect.
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            bracket = (mid, hi) if count(mid) > num_shards else (lo, mid)
            if bracket == (lo, hi):
                break  # a fixed point: every later step would repeat this one
            lo, hi = bracket
        if count(hi) == num_shards:
            return hi
        # The count function can jump past the target; scan a fine grid
        # around the bisection point for an exact hit.
        for factor in [1.0 + k * 0.002 for k in range(-150, 151)]:
            limit = hi * factor
            if limit > 0 and count(limit) == num_shards:
                return limit
        raise ShardingError(
            f"NSBP: no size limit yields exactly {num_shards} shards for {model.name}"
        )


#: Strategy registry keyed by the labels used in the paper's figures.
STRATEGIES: dict[str, ShardingStrategy] = {
    strategy.name: strategy
    for strategy in (
        OneShardStrategy(),
        CapacityBalancedStrategy(),
        LoadBalancedStrategy(),
        NetSpecificBinPacking(),
    )
}
