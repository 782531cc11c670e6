"""Facts about the host that size the library's parallelism.

Only *how many* workers run is read from the host, never *what* they
compute: every parallel path in the library (process-parallel sweeps,
threaded pooling-factor sampling) is bit-identical to its serial form
whatever this returns.
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
