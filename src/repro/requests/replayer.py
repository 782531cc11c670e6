"""Request replay schedules: a thin facade over the workload subsystem.

The paper evaluates two request regimes:

* **serial blocking** (Section VI): each request is sent only after the
  previous response returns, isolating per-request overheads;
* **open loop at a fixed QPS** (Section VII-A): requests arrive following
  a Poisson process at 25 QPS, representative of production load, which
  exposes queueing effects that improve distributed P99 over singular.

:class:`ReplaySchedule` keeps those two spellings (and their historical,
byte-identical arrival streams) as a frozen facade over
:mod:`repro.workloads.arrivals`, where the arrival-time axis now lives as
composable processes (Poisson, constant-rate, piecewise/diurnal, MMPP).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.core.types import check_fields, checked, finite_non_negative
from repro.core.types import seed as any_seed
from repro.workloads.arrivals import PoissonArrivals, SerialArrivals


class ReplayMode(enum.Enum):
    SERIAL = "serial"
    OPEN_LOOP = "open-loop"


@dataclass(frozen=True)
class ReplaySchedule:
    """How requests are injected into the serving cluster."""

    mode: ReplayMode = ReplayMode.SERIAL
    qps: float = checked(
        finite_non_negative.reworded("a finite qps >= 0"), 0.0, normalise=True
    )
    """Normalized to a float, so open_loop(25), open_loop(25.0), and numpy
    scalars are the same schedule: the arrival substream is keyed on qps,
    and equal rates must replay identical arrival processes."""
    seed: int = checked(any_seed, 0)

    def __post_init__(self):
        check_fields(self)
        if self.mode is ReplayMode.OPEN_LOOP and self.qps == 0.0:
            raise ValueError(
                f"open-loop replay requires a finite qps > 0, got {self.qps!r}"
            )

    @classmethod
    def serial(cls) -> "ReplaySchedule":
        return cls(mode=ReplayMode.SERIAL)

    @classmethod
    def open_loop(cls, qps: float, seed: int = 0) -> "ReplaySchedule":
        return cls(mode=ReplayMode.OPEN_LOOP, qps=qps, seed=seed)

    def arrival_times(self, count: int) -> np.ndarray | None:
        """First ``count`` arrival times; None for serial replay.

        ``count`` must be an integer ``>= 0`` (negative counts raise a
        clear ``ValueError`` instead of surfacing garbage-shaped numpy
        output); ``count == 0`` returns an **empty array** for open-loop
        schedules.  Serial replay has no precomputable arrivals -- each
        send waits for the previous response -- so the cluster drives it
        directly and this returns ``None`` for any valid count.

        Open-loop streams are byte-identical to the historical
        implementation: the facade delegates to
        :class:`~repro.workloads.arrivals.PoissonArrivals`, whose
        substream is keyed on the float-normalized qps.  Count validation
        happens in the process (every ``ArrivalProcess.arrival_times``
        checks, serial included).
        """
        if self.mode is ReplayMode.SERIAL:
            return SerialArrivals().arrival_times(count)
        return PoissonArrivals(self.qps, self.seed).arrival_times(count)
