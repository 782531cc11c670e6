"""Figure 7: DRM3 latency & compute overheads (NSBP only).

Paper targets: DRM3's capacity is dominated by a single-lookup table, so
"increasing shards does not increase parallelization" -- overheads are
flat in shard count, and only two shards are accessed per inference.
"""

import numpy as np

from repro.analysis import save_artifact
from repro.experiments import figures
from repro.sharding import SINGULAR


def test_fig07_overheads_drm3(benchmark, suites):
    results = suites.serial("DRM3")
    artifact = benchmark(lambda: figures.fig7_overheads_drm3(results))
    print("\n" + artifact.text)
    save_artifact("fig07_overheads_drm3.txt", artifact.text)

    data = artifact.data
    # Distributed slower than singular everywhere (serial replay).
    for label, per_quantile in data.items():
        assert per_quantile[50]["latency"] > 0, label

    # Sharding has no practical effect: NSBP-4 ~ NSBP-8 ~ 1 shard at P50.
    p50 = [per_quantile[50]["latency"] for per_quantile in data.values()]
    assert max(p50) - min(p50) < 0.06

    # Exactly two shards are accessed per inference (batch) regardless of
    # shard count: the small-tables shard plus one partition of the
    # dominant table.
    for label in ("NSBP 4 shards", "NSBP 8 shards"):
        result = results[label]
        assert np.array_equal(result.rpcs, 2 * result.num_batches), label
