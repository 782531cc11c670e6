"""Figure 9: P50 aggregate CPU-time stacks by sharding configuration.

Paper targets: distributed inference always increases aggregate CPU (the
extra RPC machinery); compute overhead is proportional to the number of
RPC ops issued, so NSBP -- which never mixes nets within a shard and
issues one RPC per shard -- has the least overhead, and serde + service
overheads (not operators) account for the growth.
"""

import numpy as np

from repro.analysis import save_artifact
from repro.experiments import figures
from repro.sharding import SINGULAR
from repro.tracing import CPU_OPS, CPU_SERVICE, RPC_SERDE


def test_fig09_cpu_stacks(benchmark, suites):
    results = suites.serial("DRM1")
    artifact = benchmark(lambda: figures.fig9_cpu_stacks(results))
    print("\n" + artifact.text)
    save_artifact("fig09_cpu_stacks.txt", artifact.text)

    stacks = artifact.data["stacks"]
    totals = {label: sum(stack.values()) for label, stack in stacks.items()}

    # Every distributed config consumes more CPU than singular.
    for label, total in totals.items():
        if label != SINGULAR:
            assert total > totals[SINGULAR], label

    # CPU grows with shard count for net-agnostic strategies.
    for strategy in ("load-bal", "cap-bal"):
        assert (
            totals[f"{strategy} 2 shards"]
            < totals[f"{strategy} 4 shards"]
            < totals[f"{strategy} 8 shards"]
        )

    # NSBP stays cheapest at matching shard counts.
    for n in (2, 4, 8):
        assert totals[f"NSBP {n} shards"] <= totals[f"load-bal {n} shards"]

    # The growth comes from serde + service overhead, not from operators.
    ops_delta = stacks["load-bal 8 shards"][CPU_OPS] - stacks[SINGULAR][CPU_OPS]
    overhead_delta = (
        stacks["load-bal 8 shards"][RPC_SERDE]
        + stacks["load-bal 8 shards"][CPU_SERVICE]
        - stacks[SINGULAR][RPC_SERDE]
        - stacks[SINGULAR][CPU_SERVICE]
    )
    assert overhead_delta > 3 * abs(ops_delta)

    # Compute overhead tracks RPC-op count (Section VI-C1).
    rpc_counts = {
        label: np.mean(result.rpcs)
        for label, result in results.items()
        if label != SINGULAR
    }
    overheads = {
        label: totals[label] - totals[SINGULAR] for label in rpc_counts
    }
    ordered = sorted(rpc_counts, key=rpc_counts.get)
    measured = [overheads[label] for label in ordered]
    assert np.corrcoef(
        [rpc_counts[label] for label in ordered], measured
    )[0, 1] > 0.95
