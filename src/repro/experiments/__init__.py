"""Experiment harness: configuration matrix, runner, figure generators.

Sizing and throughput knobs
---------------------------

* ``REPRO_SWEEP_WORKERS`` -- worker-process cap for every configuration
  sweep (default: the usable CPUs).  :func:`run_mix_suite` is the one
  sweep driver (:func:`run_suite` runs it over a one-workload mix); it,
  the capacity planner and the availability sweep all fan their cluster
  replays out over one ``multiprocessing`` pool
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
* Throughput is measured from outside: ``benchmarks/e2e/`` times each
  workload end to end and layer by layer, and
  ``tests/test_work_counts.py`` pins the exact work (heap calls, DES
  events, chunk builds) three small sweeps do.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "configs": (
            "PAPER_SHARD_COUNTS",
            "ShardingConfiguration",
            "build_plan",
            "mix_configurations",
            "paper_configurations",
        ),
        "figures": ("figures",),
        "parallel": ("default_workers", "run_cluster_tasks"),
        "runner": (
            "RunResult",
            "SuiteSettings",
            "mix_plans",
            "mix_poolings",
            "mix_stream",
            "run_configuration",
            "run_mix_configuration",
            "run_mix_suite",
            "run_suite",
        ),
        "repro.tracing.aggregate": ("TraceMode",),
    },
)
__all__ = list(_EXPORTS)
