"""Sharding plans: which embedding table (or row partition) lives where.

A plan assigns every embedding table of a model to one of ``N`` sparse
shards (paper Section III-A1).  Tables larger than a shard's budget are
row-partitioned: partition ``p`` of ``P`` holds rows ``r`` with
``r % P == p``.  The main shard keeps all dense layers and is implicit.

Plans are strategy-agnostic data: strategies produce them, the partitioner
and the serving simulator consume them, and :meth:`ShardingPlan.validate`
enforces the structural invariants (every table covered exactly once, all
row partitions present, no empty shards).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.models.config import ModelConfig

SINGULAR = "singular"


class ShardingError(ValueError):
    """Raised for invalid plans or infeasible strategy inputs."""


@dataclass(frozen=True)
class TableAssignment:
    """Placement of one table (or one row partition of it) on a shard.

    ``num_parts == 1`` means the whole table; otherwise this is partition
    ``part_index`` of ``num_parts`` row partitions.
    """

    table_name: str
    shard_index: int
    part_index: int = 0
    num_parts: int = 1

    def __post_init__(self):
        if self.num_parts < 1 or not 0 <= self.part_index < self.num_parts:
            raise ShardingError(
                f"bad partition {self.part_index}/{self.num_parts} for {self.table_name}"
            )

    @property
    def fraction(self) -> float:
        """Fraction of the table's rows held by this assignment."""
        return 1.0 / self.num_parts


@dataclass
class ShardSpec:
    """One sparse shard: an index plus its table assignments."""

    index: int
    assignments: list[TableAssignment] = field(default_factory=list)

    def capacity_bytes(self, model: ModelConfig) -> float:
        return sum(
            model.table(a.table_name).nbytes * a.fraction for a in self.assignments
        )

    def nets_present(self, model: ModelConfig) -> set[str]:
        return {model.table(a.table_name).net for a in self.assignments}


@dataclass
class ShardingPlan:
    """A complete sharding decision for one model."""

    model_name: str
    strategy: str
    shards: list[ShardSpec] = field(default_factory=list)

    @property
    def is_singular(self) -> bool:
        return not self.shards

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def label(self) -> str:
        """Display label matching the paper's figure axes."""
        if self.is_singular:
            return SINGULAR
        if self.strategy == "1-shard":
            return "1 shard"
        return f"{self.strategy} {self.num_shards} shards"

    # -- queries -----------------------------------------------------------
    def assignments_for_table(self, table_name: str) -> list[TableAssignment]:
        return [
            assignment
            for shard in self.shards
            for assignment in shard.assignments
            if assignment.table_name == table_name
        ]

    def capacity_by_shard(self, model: ModelConfig) -> list[float]:
        return [shard.capacity_bytes(model) for shard in self.shards]

    # -- validation ----------------------------------------------------------
    def validate(self, model: ModelConfig) -> None:
        """Check full, exactly-once coverage of the model's tables."""
        if self.is_singular:
            return
        coverage: dict[str, list[TableAssignment]] = defaultdict(list)
        for position, shard in enumerate(self.shards):
            if shard.index != position:
                raise ShardingError(
                    f"shard at position {position} has index {shard.index}"
                )
            if not shard.assignments:
                raise ShardingError(f"shard {shard.index} is empty")
            for assignment in shard.assignments:
                coverage[assignment.table_name].append(assignment)

        known = {table.name for table in model.tables}
        for table_name in known:
            assignments = coverage.pop(table_name, None)
            if not assignments:
                raise ShardingError(f"table {table_name} is unassigned")
            num_parts = assignments[0].num_parts
            if any(a.num_parts != num_parts for a in assignments):
                raise ShardingError(f"table {table_name}: inconsistent num_parts")
            parts = sorted(a.part_index for a in assignments)
            if parts != list(range(num_parts)):
                raise ShardingError(
                    f"table {table_name}: partitions {parts} do not cover 0..{num_parts - 1}"
                )
        if coverage:
            raise ShardingError(f"unknown tables assigned: {sorted(coverage)}")


def singular_plan(model: ModelConfig) -> ShardingPlan:
    """The non-distributed baseline: everything on one server."""
    return ShardingPlan(model_name=model.name, strategy=SINGULAR, shards=[])
