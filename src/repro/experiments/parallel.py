"""Process pool that every configuration sweep in the library runs on.

A paper-style suite is embarrassingly parallel across its sharding
configurations: every configuration replays the *same* cached request
sample against an independently seeded cluster, so the simulations share
no mutable state.  :func:`run_cluster_tasks` fans such independent
cluster replays out over a ``multiprocessing`` pool sized by
:func:`default_workers` -- the one sweep path behind
:func:`~repro.experiments.runner.run_suite`,
:func:`~repro.experiments.runner.run_mix_suite`, the capacity planner
and :func:`~repro.chaos.experiment.availability_sweep`.

Determinism: the callers sample requests and estimate pooling factors
once, before the fork; every cluster substream is derived from
``(serving.seed, ..., model.name, plan.label)``, i.e. per-configuration
seeds are a pure function of the configuration, never of scheduling.  A
sweep is therefore byte-identical whatever the worker count
(regression-tested in ``tests/test_fastpath_determinism.py``), and the
kernel selector composes: each worker replays its configuration through
the columnar fast path or its recorded fallback, exactly as in-process
(``tests/test_kernel_equivalence.py``).
"""

from __future__ import annotations

import multiprocessing
import sys

from repro.core.host import env_positive_int, usable_cpus

#: Environment knob: worker-process cap for configuration sweeps.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"


def default_workers() -> int:
    """Worker count: ``REPRO_SWEEP_WORKERS`` if set, else the usable CPUs.

    A malformed or non-positive value fails with a message naming the
    variable.  The CPU count is
    the process's affinity mask (:func:`repro.core.host.usable_cpus`).
    """
    return env_positive_int(WORKERS_ENV, usable_cpus())


#: Per-worker sweep context: the shared tuple (model, pooling, requests,
#: serving, ...) is installed once per worker via the pool initializer, so
#: per-task payloads are just the small item -- not a re-pickle of the
#: whole request sample for every configuration.
_WORKER_CONTEXT: tuple | None = None


def _init_worker(context: tuple | None) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context


def worker_context() -> tuple:
    """The shared context of the sweep the calling task belongs to."""
    assert _WORKER_CONTEXT is not None, "called outside run_cluster_tasks"
    return _WORKER_CONTEXT


def _run_task(task):
    """Pool dispatcher for heterogeneous tasks: ``(fn, item) -> fn(item)``."""
    fn, item = task
    return fn(item)


def run_cluster_tasks(
    tasks,
    context: tuple,
    max_workers: int | None = None,
) -> list:
    """Fan independent cluster replays out over one shared worker pool.

    ``tasks`` is a sequence of ``(fn, item)`` pairs; each ``fn`` must be
    a module-level worker body (pickled by reference) that reads the
    shared ``context`` through :func:`worker_context` and takes the
    small per-task ``item`` as its only argument.  Results come back in
    task order.  ``max_workers=None`` means :func:`default_workers`.
    With one worker -- or inside a daemonic pool worker, which may not
    fork children of its own -- every task runs in-process with the
    context installed, so a serial run is the exact same code path minus
    the pool: the byte-identity lever every sweep in this repo leans on.

    One process per *simulated cluster*, not just per sharding
    configuration: a capacity-planner search, an availability sweep's
    healthy baseline, and its per-replica-count faulted replays are all
    independent cluster simulations that share one pool.
    """
    tasks = list(tasks)
    workers = min(
        max_workers if max_workers is not None else default_workers(),
        len(tasks),
    )
    if workers <= 1 or multiprocessing.current_process().daemon:
        _init_worker(context)
        try:
            return [fn(item) for fn, item in tasks]
        finally:
            _init_worker(None)
    # fork is the cheap path (workers inherit the context for free)
    # but is only reliably safe on Linux; macOS numpy backends can
    # deadlock in forked children, so use the platform default there.
    # No thread may be alive at the fork: the pooling-factor sample's
    # thread pool is joined before the sweeps build their context.
    if sys.platform == "linux":
        mp_context = multiprocessing.get_context("fork")
    else:
        mp_context = multiprocessing.get_context()
    with mp_context.Pool(
        processes=workers, initializer=_init_worker, initargs=(context,)
    ) as pool:
        return pool.map(_run_task, tasks, chunksize=1)
