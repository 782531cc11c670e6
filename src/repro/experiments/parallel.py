"""Parallel configuration-sweep runner.

A paper-style suite is embarrassingly parallel across its sharding
configurations: every configuration replays the *same* cached request
sample against an independently seeded cluster, so the simulations share
no mutable state.  :func:`run_suite_parallel` fans the configuration
matrix out over a ``multiprocessing`` pool and merges the per-process
:class:`~repro.experiments.runner.RunResult` objects back into the same
``{label: RunResult}`` mapping :func:`~repro.experiments.runner.run_suite`
returns.

Determinism: requests are generated once in the parent from
``settings.request_seed``; every cluster substream is derived from
``(serving.seed, ..., model.name, plan.label)``, i.e. per-configuration
seeds are a pure function of the configuration, never of scheduling.  A
parallel sweep is therefore byte-identical to a serial one for the same
settings (regression-tested in ``tests/test_fastpath_determinism.py``).
The kernel selector composes: with the default ``"vectorized"`` kernel
each worker process replays its configuration through the columnar
fast path (or its recorded fallback), so a parallel vectorized sweep is
bit-identical to the serial vectorized sweep -- and to the reference
kernel (``tests/test_kernel_equivalence.py``).

:func:`run_cluster_tasks` generalizes the fan-out from "one process per
sharding configuration" to "one process per simulated cluster": any mix
of independent replays -- a planner's candidate simulations, an
availability sweep's healthy baseline plus its per-replica-count faulted
replays -- can share a single pool, so multi-stage searches saturate a
big host instead of serializing between stages.
"""

from __future__ import annotations

import multiprocessing
import sys

from repro.core.host import usable_cpus
from repro.experiments.configs import (
    ShardingConfiguration,
    build_plan,
    paper_configurations,
)
from repro.experiments.runner import (
    RunResult,
    SuiteSettings,
    _env_positive_int,
    _mix_sweep_context,
    run_configuration,
    run_mix_configuration,
    suite_requests,
)
from repro.models.config import ModelConfig
from repro.sharding.pooling import estimate_pooling_factors
from repro.workloads.workload import WorkloadMix

#: Environment knob: worker-process cap for parallel sweeps.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def default_workers() -> int:
    """Worker count: ``REPRO_SWEEP_WORKERS`` if set, else the usable CPUs.

    The variable is validated like ``REPRO_REQUESTS``: a malformed or
    non-positive value fails with a message naming it.  The CPU count is
    the process's affinity mask (:func:`repro.core.host.usable_cpus`).
    """
    return _env_positive_int(WORKERS_ENV, usable_cpus())


#: Per-worker sweep context: the shared (model, pooling, requests, serving,
#: schedule) tuple is shipped once per worker via the pool initializer, so
#: per-task payloads are just the configuration -- not a re-pickle of the
#: whole request sample for every configuration.
_WORKER_CONTEXT: tuple | None = None


def _init_worker(context: tuple | None) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def _run_one(configuration: ShardingConfiguration) -> tuple[str, RunResult]:
    """Worker body: build one plan and simulate it (also used in-process)."""
    assert _WORKER_CONTEXT is not None
    model, pooling, requests, serving, schedule = _WORKER_CONTEXT
    plan = build_plan(model, configuration, pooling)
    result = run_configuration(model, plan, requests, serving, schedule)
    return plan.label, result


def _run_one_mix(configuration: ShardingConfiguration) -> tuple[str, RunResult]:
    """Worker body for mix sweeps: shard every tenant, simulate co-located."""
    assert _WORKER_CONTEXT is not None
    mix, poolings, stream, serving = _WORKER_CONTEXT
    plans = [
        build_plan(workload.model, configuration, pooling)
        for workload, pooling in zip(mix.workloads, poolings)
    ]
    result = run_mix_configuration(
        mix, plans, stream, serving, label=configuration.label
    )
    return configuration.label, result


def run_suite_parallel(
    model: ModelConfig,
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
    max_workers: int | None = None,
) -> dict[str, RunResult]:
    """Run the paper's configuration matrix across worker processes.

    Drop-in replacement for :func:`~repro.experiments.runner.run_suite`
    with identical output for identical settings.  With one usable core
    (or ``max_workers=1``) the sweep runs in-process, skipping pool
    setup and payload pickling entirely.
    """
    settings = settings or SuiteSettings()
    configurations = configurations or paper_configurations(model.name)
    requests = suite_requests(model, settings)
    pooling = estimate_pooling_factors(
        model, num_requests=settings.pooling_requests, seed=settings.pooling_seed
    )
    context = (
        model, pooling, requests,
        settings.resolved_serving(), settings.resolved_schedule(),
    )
    return _fan_out(_run_one, context, configurations, max_workers)


def run_mix_suite_parallel(
    mix: WorkloadMix,
    settings: SuiteSettings | None = None,
    configurations: tuple[ShardingConfiguration, ...] | None = None,
    max_workers: int | None = None,
) -> dict[str, RunResult]:
    """Parallel counterpart of :func:`~repro.experiments.runner.run_mix_suite`.

    The merged stream is sampled once in the parent and shipped to every
    worker; per-configuration cluster seeds are pure functions of the
    tenant list, so the parallel mix sweep is byte-identical to the
    serial one.
    """
    configurations, stream, poolings, serving = _mix_sweep_context(
        mix, settings, configurations
    )
    context = (mix, poolings, stream, serving)
    return _fan_out(_run_one_mix, context, configurations, max_workers)


def _run_task(task):
    """Pool dispatcher for heterogeneous tasks: ``(fn, item) -> fn(item)``."""
    fn, item = task
    return fn(item)


def run_cluster_tasks(
    tasks,
    context: tuple,
    max_workers: int | None = None,
) -> list:
    """Fan heterogeneous cluster replays out over one shared worker pool.

    ``tasks`` is a sequence of ``(fn, item)`` pairs; each ``fn`` must be
    a module-level worker body (pickled by reference) that reads the
    shared ``context`` from :data:`_WORKER_CONTEXT` and takes the small
    per-task ``item`` as its only argument.  Results come back in task
    order.  With one usable worker (or ``max_workers=1``) every task
    runs in-process with the context installed, so a serial run is the
    exact same code path minus the pool -- the byte-identity lever every
    sweep in this repo leans on.

    This is the shard-level parallelism primitive: one process per
    *simulated cluster*, not just per sharding configuration.  A
    capacity-planner search, an availability sweep's healthy baseline,
    and its per-replica-count faulted replays are all independent
    cluster simulations, so they can share one pool and saturate a big
    host together instead of serializing between the stages (see
    :func:`repro.chaos.experiment.availability_sweep`).
    """
    tasks = list(tasks)
    workers = min(
        max_workers if max_workers is not None else default_workers(),
        len(tasks),
    )
    if workers <= 1:
        _init_worker(context)
        try:
            return [fn(item) for fn, item in tasks]
        finally:
            _init_worker(None)
    # fork is the cheap path (workers inherit the context for free)
    # but is only reliably safe on Linux; macOS numpy backends can
    # deadlock in forked children, so use the platform default there.
    if sys.platform == "linux":
        mp_context = multiprocessing.get_context("fork")
    else:
        mp_context = multiprocessing.get_context()
    with mp_context.Pool(
        processes=workers, initializer=_init_worker, initargs=(context,)
    ) as pool:
        return pool.map(_run_task, tasks, chunksize=1)


def _fan_out(
    run_one,
    context: tuple,
    configurations: tuple[ShardingConfiguration, ...],
    max_workers: int | None,
) -> dict[str, RunResult]:
    """Map configurations over a worker pool (or in-process for one worker)."""
    pairs = run_cluster_tasks(
        [(run_one, configuration) for configuration in configurations],
        context,
        max_workers,
    )
    # dict() preserves configuration order: pool.map returns in input order.
    return dict(pairs)
