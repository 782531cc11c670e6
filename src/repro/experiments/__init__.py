"""Experiment harness: configuration matrix, runner, figure generators.

Sizing and throughput knobs
---------------------------

* ``REPRO_REQUESTS`` -- request count per configuration in suites and
  benchmarks (default 200 for suites, 150 in ``benchmarks/``).  The
  paper's tail quantiles (P99 overheads, Section VI-B4) need large
  samples to stabilize; the simulation fast path (vectorized request
  generation, the DES plain-delay yield, columnar ``RunResult`` storage)
  exists so raising this knob is cheap.
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
  ``mix_sweep`` entry), rewritten by
  ``benchmarks/test_perf_throughput.py`` via
  :func:`repro.analysis.bench.record_benchmark`.
* ``SuiteSettings.arrivals`` / ``repro.workloads`` -- any
  :class:`~repro.workloads.arrivals.ArrivalProcess` (diurnal, MMPP,
  constant-rate) can drive a classic suite; multi-model co-location runs
  through :func:`run_mix_suite` over a
  :class:`~repro.workloads.workload.WorkloadMix`, producing
  per-workload-labeled :class:`RunResult` columns.
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
    default_num_requests,
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
    "default_num_requests",
    "default_workers",
    "figures",
    "mix_configurations",
    "mix_stream",
    "paper_configurations",
    "run_configuration",
    "run_mix_configuration",
    "run_mix_suite",
    "run_cluster_tasks",
    "run_suite",
    "suite_requests",
]
