"""Experiment harness: configuration matrix, runner, figure generators.

Sizing and throughput knobs
---------------------------

* ``REPRO_SWEEP_WORKERS`` -- worker-process cap for every configuration
  sweep (default: the usable CPUs).  :func:`run_suite`,
  :func:`run_mix_suite`, the capacity planner and the availability sweep
  all fan their cluster replays out over one ``multiprocessing`` pool
  (:func:`~repro.experiments.parallel.run_cluster_tasks`); results are
  byte-identical for every worker count, and ``max_workers=1`` (or the
  CLI's ``--workers 1``) replays in-process.
* Attribution -- every replay is attributed by the span-free aggregate
  accumulator (:class:`~repro.tracing.aggregate.AggregatingTracer`), so
  every :class:`RunResult` carries the same columns: e2e/cpu/stacks,
  operator CPU, RPC and batch counts, and per-shard (and per-(shard,
  net)) demand.  ``SuiteSettings.trace_mode`` / ``ServingConfig.trace_mode``
  only pick the tracer of a bare ``ClusterSimulation``; no ``RunResult``
  depends on them.
* ``results/BENCH_throughput.json`` -- simulated-requests-per-second
  trajectory (its "full" and aggregate rungs, plus the co-located diurnal
  ``mix_sweep`` entry), written by ``benchmarks/test_perf_throughput.py``
  via :func:`repro.analysis.bench.record_benchmark` -- into the test's
  tmp dir on a plain run; only ``REPRO_BENCH_RECORD=1`` rewrites the
  committed file.
"""

from repro.experiments.configs import (
    PAPER_SHARD_COUNTS,
    ShardingConfiguration,
    build_plan,
    mix_configurations,
    paper_configurations,
)
from repro.experiments.parallel import (
    default_workers,
    run_cluster_tasks,
)
from repro.experiments.runner import (
    RunResult,
    SuiteSettings,
    mix_plans,
    mix_poolings,
    mix_stream,
    run_configuration,
    run_mix_configuration,
    run_mix_suite,
    run_suite,
    suite_requests,
)
from repro.experiments import figures
from repro.tracing.aggregate import TraceMode

__all__ = [
    "PAPER_SHARD_COUNTS",
    "RunResult",
    "ShardingConfiguration",
    "SuiteSettings",
    "TraceMode",
    "build_plan",
    "default_workers",
    "figures",
    "mix_configurations",
    "mix_plans",
    "mix_poolings",
    "mix_stream",
    "paper_configurations",
    "run_configuration",
    "run_mix_configuration",
    "run_mix_suite",
    "run_cluster_tasks",
    "run_suite",
    "suite_requests",
]
