"""Serialization of sharding plans (paper Section III-C).

The paper's partitioning tool "employs a user-supplied configuration to
group embedding tables and their operators, insert RPC operators, generate
new Caffe2 nets, and then serialize the model to storage."  This module is
that storage format: plans round-trip through plain JSON so a sharding
decision can be published once and loaded by every serving tier (and by
humans reviewing it).

The format is versioned; loading verifies structural integrity and -- when
given the model -- full plan validity, so a stale or hand-edited plan
cannot reach serving.
"""

from __future__ import annotations

import json

from repro.models.config import ModelConfig
from repro.sharding.plan import ShardingError, ShardingPlan, ShardSpec, TableAssignment

FORMAT_VERSION = 1


class SerializationError(ValueError):
    """Raised when a payload cannot be decoded into a valid object."""


# -- sharding plans ------------------------------------------------------------
def plan_to_dict(plan: ShardingPlan) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "sharding-plan",
        "model_name": plan.model_name,
        "strategy": plan.strategy,
        "shards": [
            {
                "index": shard.index,
                "assignments": [
                    {
                        "table": a.table_name,
                        "part": a.part_index,
                        "parts": a.num_parts,
                    }
                    for a in shard.assignments
                ],
            }
            for shard in plan.shards
        ],
    }


def plan_from_dict(payload: dict, model: ModelConfig | None = None) -> ShardingPlan:
    _check_header(payload, "sharding-plan")
    try:
        shards = [
            ShardSpec(
                index=entry["index"],
                assignments=[
                    TableAssignment(
                        table_name=a["table"],
                        shard_index=entry["index"],
                        part_index=a["part"],
                        num_parts=a["parts"],
                    )
                    for a in entry["assignments"]
                ],
            )
            for entry in payload["shards"]
        ]
        plan = ShardingPlan(
            model_name=payload["model_name"],
            strategy=payload["strategy"],
            shards=shards,
        )
    except (KeyError, TypeError, ShardingError) as error:
        raise SerializationError(f"malformed plan payload: {error}") from error
    if model is not None:
        if model.name != plan.model_name:
            raise SerializationError(
                f"plan was built for {plan.model_name!r}, not {model.name!r}"
            )
        plan.validate(model)
    return plan


def dump_plan(plan: ShardingPlan) -> str:
    return json.dumps(plan_to_dict(plan), indent=2, sort_keys=True)


def load_plan(text: str, model: ModelConfig | None = None) -> ShardingPlan:
    return plan_from_dict(json.loads(text), model)


def _check_header(payload: dict, expected_kind: str) -> None:
    if not isinstance(payload, dict):
        raise SerializationError("payload must be a JSON object")
    if payload.get("kind") != expected_kind:
        raise SerializationError(
            f"expected kind {expected_kind!r}, got {payload.get('kind')!r}"
        )
    if payload.get("version") != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported format version {payload.get('version')!r}"
        )
