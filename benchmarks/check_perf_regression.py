"""CI perf-regression guard: per-kernel sweep rps vs the committed baseline.

Fails (exit 1) when any freshly measured 11-config DRM1 sweep drops more
than ``--tolerance`` (default 25%) below the committed
``results/BENCH_throughput_aggregate.json`` baseline, after normalizing
for machine speed.  One guard entry exists per (kernel, trace-mode)
benchmark present in the baseline -- reference/FULL (``sweep``),
reference/AGGREGATE (``aggregate_sweep``), batched/AGGREGATE
(``kernel_sweep``), and vectorized/AGGREGATE (``vectorized_sweep``) --
plus the tail-resilience availability sweep (``resilience_sweep``:
correlated domain crash under a retry/hedge policy), so a regression on
one path cannot hide behind another path's number.  Entries missing
from an older baseline are skipped.

Raw rps is not comparable across hosts, so the committed baseline is
rescaled by the ratio of the *reference kernel's* event-loop ops/sec
(``kernel_ops.reference.ops_per_s``, measured fresh here vs recorded in
the baseline): a slow CI runner lowers both numbers together and the
guard stays quiet, while a genuine fast-path regression lowers only the
sweep and trips it.  Baselines recorded before the kernel_ops entry
existed skip the normalization (ratio 1.0).

Each sweep is re-timed at the *baseline's* request count (not the
smoke's ``REPRO_REQUESTS``), because rps depends on how far fixed
per-config costs amortize -- only matching counts are apples to apples.
The ``vectorized_sweep`` guard times the sweep phase the way the
benchmark does (requests, pooling, and sharding plans precomputed; the
columnar cost plans built inside every sweep, as in every CLI run) and
compares against the baseline's ``sweep_rps``.  Every other entry pins
the reference kernel, as the benchmark does.

Usage (CI extracts the committed baseline first, because earlier smoke
steps overwrite the working-tree artifact)::

    git show HEAD:results/BENCH_throughput_aggregate.json > baseline.json
    python benchmarks/check_perf_regression.py --baseline baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time

#: (baseline metrics key, rps field inside it) -> how to measure fresh.
#: Order matters only for output readability.
GUARD_ENTRIES = (
    ("sweep", "serial_rps"),
    ("aggregate_sweep", "serial_rps"),
    ("kernel_sweep", "serial_rps"),
    ("vectorized_sweep", "sweep_rps"),
    ("resilience_sweep", "rps"),
)


def _best_of(fn, repeats: int = 2) -> float:
    """Best-of-N wall time: resilient to scheduler noise on shared CI."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def measure_fresh(
    bench_requests: int, entries: list[str]
) -> dict[str, float]:
    """Time each guarded DRM1 sweep fresh (warm), plus reference ops."""
    from test_perf_kernel import measure_kernel_ops

    from repro.experiments import (
        SuiteSettings,
        build_plan,
        paper_configurations,
        run_configuration,
        run_suite,
        suite_requests,
    )
    from repro.models import drm1
    from repro.serving import ServingConfig, TraceMode, columnar
    from repro.sharding.pooling import estimate_pooling_factors

    model = drm1()

    def settings(kernel="reference", trace_mode=TraceMode.AGGREGATE):
        return SuiteSettings(
            num_requests=bench_requests,
            serving=ServingConfig(seed=1, kernel=kernel),
            trace_mode=trace_mode,
        )

    # Warm the shared one-time caches so every timing below is warm.
    suite_requests(model, settings())
    pooling = estimate_pooling_factors(
        model, num_requests=settings().pooling_requests,
        seed=settings().pooling_seed,
    )
    simulated = None
    fresh: dict[str, float] = {}

    def suite_rps(suite_settings) -> float:
        # One worker: the guarded entries are serial sweeps, so the
        # trajectory stays comparable whatever the host's CPU count.
        nonlocal simulated
        results = run_suite(model, suite_settings, max_workers=1)
        simulated = sum(len(result) for result in results.values())
        return simulated / _best_of(
            lambda: run_suite(model, suite_settings, max_workers=1)
        )

    if "sweep" in entries:
        fresh["sweep"] = suite_rps(settings(trace_mode=TraceMode.FULL))
    if "aggregate_sweep" in entries:
        fresh["aggregate_sweep"] = suite_rps(settings())
    if "kernel_sweep" in entries:
        fresh["kernel_sweep"] = suite_rps(settings(kernel="batched"))
    if "vectorized_sweep" in entries:
        # Sweep-phase protocol, matching the benchmark: requests,
        # pooling, and sharding plans precomputed; every sweep builds
        # its cost plans from cold.
        vec_settings = settings(kernel="vectorized")
        requests = suite_requests(model, vec_settings)
        plans = [
            build_plan(model, configuration, pooling)
            for configuration in paper_configurations(model.name)
        ]
        serving = vec_settings.resolved_serving()
        schedule = vec_settings.schedule

        def sweep_once():
            columnar._BUNDLE_CACHE.clear()
            for plan in plans:
                run_configuration(model, plan, requests, serving, schedule)

        fresh["vectorized_sweep"] = (
            len(requests) * len(plans) / _best_of(sweep_once)
        )
    if "resilience_sweep" in entries:
        # Tail-resilience protocol, matching the benchmark: a correlated
        # domain crash (2 domains, spread) under a timeout+retry+hedge
        # policy, healthy baseline plus two replica counts.
        from repro.chaos import CorrelatedFailure, availability_sweep
        from repro.experiments import ShardingConfiguration
        from repro.resilience import ResiliencePolicy
        from repro.workloads import PiecewiseRateArrivals, Workload

        workload = Workload(
            "drm1-chaos", model,
            PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
        )
        replica_counts = (1, 2)

        def resilience_once():
            availability_sweep(
                workload,
                ShardingConfiguration("load-bal", 4),
                (CorrelatedFailure(domain=0, at=0.1),),
                replica_counts=replica_counts,
                domains=2,
                placement="spread",
                policy=ResiliencePolicy(
                    rpc_timeout=5e-3, max_attempts=3, hedge_quantile=95.0
                ),
                settings=settings(),
                max_workers=1,
            )

        resilience_once()  # warm
        fresh["resilience_sweep"] = (
            bench_requests * (len(replica_counts) + 1)
            / _best_of(resilience_once)
        )
    fresh["reference_ops_per_s"] = (
        measure_kernel_ops()["reference"]["ops_per_s"]
    )
    return fresh


def evaluate_guard(
    baseline: dict, fresh: dict[str, float], tolerance: float
) -> tuple[bool, list[str]]:
    """Pure comparison: (all ok, per-entry human-readable verdicts)."""
    metrics = baseline["metrics"]
    baseline_ops = (
        metrics.get("kernel_ops", {}).get("reference", {}).get("ops_per_s")
    )
    if baseline_ops and fresh.get("reference_ops_per_s"):
        speed_ratio = fresh["reference_ops_per_s"] / baseline_ops
    else:
        speed_ratio = 1.0
    all_ok = True
    verdicts = []
    for entry, field in GUARD_ENTRIES:
        if entry not in metrics or entry not in fresh:
            continue
        baseline_rps = metrics[entry][field]
        expected = baseline_rps * speed_ratio
        floor = expected * (1.0 - tolerance)
        ok = fresh[entry] >= floor
        all_ok = all_ok and ok
        verdicts.append(
            f"{entry} {fresh[entry]:.0f} rps vs committed "
            f"{baseline_rps:.0f} rps (machine-speed ratio {speed_ratio:.2f} "
            f"-> expected {expected:.0f}, floor {floor:.0f} at "
            f"{tolerance:.0%} tolerance): {'OK' if ok else 'REGRESSION'}"
        )
    if not verdicts:
        all_ok = False
        verdicts.append("no guarded entries found in the baseline")
    return all_ok, verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", required=True,
        help="path to the committed BENCH_throughput_aggregate.json",
    )
    parser.add_argument(
        "--tolerance", type=float, default=0.25,
        help="allowed fractional drop below the normalized baseline",
    )
    args = parser.parse_args(argv)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    bench_requests = int(baseline["metrics"]["bench_requests"])
    present = [
        entry for entry, _ in GUARD_ENTRIES
        if entry in baseline["metrics"]
    ]
    fresh = measure_fresh(bench_requests, present)
    ok, verdicts = evaluate_guard(baseline, fresh, args.tolerance)
    for verdict in verdicts:
        print(f"[perf-guard] {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
