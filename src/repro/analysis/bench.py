"""Performance-benchmark artifact writer.

Perf work needs a tracked trajectory, not one-off timings: the throughput
benchmark (``benchmarks/test_perf_throughput.py``) records
simulated-requests-per-second and its companion metrics into
``results/BENCH_throughput.json`` on every run, and CI uploads the file
as an artifact.  Comparing the JSON across commits is the repo's
regression story for the simulation fast path.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from repro.analysis.report import save_artifact


def record_benchmark(
    name: str, metrics: dict[str, object], results_dir: str | None = None
) -> str:
    """Write ``results/BENCH_<name>.json`` and return its path.

    ``metrics`` must be JSON-serializable.  A small environment header
    (python version, platform, request-count knob, wall time) is added so
    numbers from different machines are not compared blindly.
    """
    payload = {
        "benchmark": name,
        # Benchmark artifacts are *about* the host, so the wall-clock
        # timestamp below is deliberate, not a replay hazard.
        "recorded_at_unix": time.time(),  # detlint: disable=DET003 -- host timestamp
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "repro_requests": os.environ.get("REPRO_REQUESTS"),
        "repro_trace_mode": os.environ.get("REPRO_TRACE_MODE"),
        "metrics": metrics,
    }
    return save_artifact(
        f"BENCH_{name}.json", json.dumps(payload, indent=2, sort_keys=True),
        results_dir=results_dir,
    )
