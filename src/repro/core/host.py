"""Facts about the host that size the library's parallelism.

Only *how many* workers run is read from the host, never *what* they
compute.  Every configuration sweep fans out over :func:`usable_cpus`
worker processes by default (``REPRO_SWEEP_WORKERS`` or ``max_workers``
caps it), and request generation and the pooling-factor sample draw
their tables on as many threads; all are bit-identical to their
one-worker form whatever this returns.
"""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs this process may run on, at least 1.

    Counts the process's affinity mask (so ``taskset`` and container CPU
    pinning are honoured), falling back to ``os.cpu_count()`` on
    platforms without ``sched_getaffinity``.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def env_positive_int(env: str, default: int) -> int:
    """The integer in environment variable ``env``, or ``default`` if unset.

    A malformed or non-positive value fails with a message naming the
    variable and the offending value.
    """
    raw = os.environ.get(env)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{env} must be a positive integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{env} must be >= 1, got {raw!r}")
    return value
