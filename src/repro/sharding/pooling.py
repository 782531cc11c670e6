"""Pooling-factor estimation (paper Section III-B2).

The load-balanced strategy places tables by *pooling factor* -- the
expected number of embedding-table lookups a table performs -- which the
paper estimates "by sampling 1000 requests from the evaluation dataset and
observing the number of lookups per table".  This module reproduces that
estimator: it draws requests from the model's request generator and sums
observed ids per table, giving Table-II-scale aggregate pooling factors.

The sum comes from
:meth:`~repro.requests.generator.RequestGenerator.table_totals`, which
never materializes a request: it draws each table from its own
substreams, with the tables spread over a thread pool sized to the
usable CPUs.  Item-scoped tables -- nearly all of the sample's draws --
are summed by the exact sparse sampler
:func:`repro.core.rng.poisson_total` as exact integers, with no per-draw
array.  The sampler returns the sum of ``Generator.poisson``'s draws and
leaves each stream where numpy would; neither it nor the threading
moves a draw, so the estimate is bit-identical to summing the generated
requests, on any number of CPUs.

Estimates are memoized per (model tables/profile, num_requests, seed):
the suite runner and the benchmark conftest ask for the same estimate for
every serving variant of a model, and the sampling itself is pure.
"""

from __future__ import annotations

from repro.core.types import count
from repro.core.types import seed as any_seed
from repro.models.config import ModelConfig
from repro.requests.generator import RequestGenerator

_CACHE: dict[tuple, dict[str, float]] = {}


def _cache_key(model: ModelConfig, num_requests: int, seed: int) -> tuple:
    # Pooling depends only on the sampling distribution: the model name
    # (part of the substream key), its tables, and its request profile.
    return (model.name, model.tables, model.profile, num_requests, seed)


def clear_pooling_cache() -> None:
    """Drop memoized estimates (tests exercising the sampler directly)."""
    _CACHE.clear()


def estimate_pooling_factors(
    model: ModelConfig, num_requests: int = 1000, seed: int = 42
) -> dict[str, float]:
    """Aggregate observed lookups per table over ``num_requests`` samples.

    Every table appears in the result (0.0 if never observed), so
    strategies can place cold tables too.
    """
    count.check("num_requests", num_requests)
    any_seed.check("seed", seed)
    key = _cache_key(model, num_requests, seed)
    cached = _CACHE.get(key)
    if cached is None:
        generator = RequestGenerator(model, seed=seed)
        cached = _CACHE[key] = generator.table_totals(num_requests)
    return dict(cached)


def pooling_by_shard(
    plan_shards, pooling: dict[str, float]
) -> list[float]:
    """Sum estimated pooling factors per shard of a plan.

    Row-partitioned assignments split a table's pooling evenly across
    partitions; for single-lookup tables this overstates per-partition
    work (only one partition is hit per request), which is exactly the
    approximation the paper's Table II makes.
    """
    totals = []
    for shard in plan_shards:
        totals.append(
            sum(pooling.get(a.table_name, 0.0) * a.fraction for a in shard.assignments)
        )
    return totals
