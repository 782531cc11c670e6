"""Capacity-driven model sharding: plans, strategies, pooling, partitioning."""

from repro.sharding.auto import (
    AutoShardObjective,
    AutoShardResult,
    CandidateEvaluation,
    auto_shard,
)
from repro.sharding.distributed import DistributedModel, ShardService
from repro.sharding.plan import (
    SINGULAR,
    ShardSpec,
    ShardingError,
    ShardingPlan,
    TableAssignment,
    singular_plan,
)
from repro.sharding.pooling import estimate_pooling_factors, pooling_by_shard
from repro.sharding.serialization import (
    SerializationError,
    dump_plan,
    load_plan,
)
from repro.sharding.strategies import (
    STRATEGIES,
    CapacityBalancedStrategy,
    LoadBalancedStrategy,
    NetSpecificBinPacking,
    OneShardStrategy,
    ShardingStrategy,
)

__all__ = [
    "AutoShardObjective",
    "AutoShardResult",
    "CandidateEvaluation",
    "auto_shard",
    "CapacityBalancedStrategy",
    "DistributedModel",
    "LoadBalancedStrategy",
    "NetSpecificBinPacking",
    "OneShardStrategy",
    "SINGULAR",
    "STRATEGIES",
    "ShardService",
    "ShardSpec",
    "ShardingError",
    "ShardingPlan",
    "SerializationError",
    "ShardingStrategy",
    "TableAssignment",
    "dump_plan",
    "load_plan",
    "estimate_pooling_factors",
    "pooling_by_shard",
    "singular_plan",
]
