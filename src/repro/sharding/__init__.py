"""Capacity-driven model sharding: plans, strategies, pooling, partitioning."""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "auto": (
            "AutoShardObjective",
            "AutoShardResult",
            "CandidateEvaluation",
            "auto_shard",
        ),
        "distributed": ("DistributedModel", "ShardService"),
        "plan": (
            "SINGULAR",
            "ShardSpec",
            "ShardingError",
            "ShardingPlan",
            "TableAssignment",
            "singular_plan",
        ),
        "pooling": ("estimate_pooling_factors", "pooling_by_shard"),
        "serialization": ("SerializationError", "dump_plan", "load_plan"),
        "strategies": (
            "STRATEGIES",
            "CapacityBalancedStrategy",
            "LoadBalancedStrategy",
            "NetSpecificBinPacking",
            "OneShardStrategy",
            "ShardingStrategy",
        ),
    },
)
__all__ = list(_EXPORTS)
