"""Composable arrival processes: *when* requests reach the cluster.

The paper evaluates two request regimes -- serial blocking (Section VI)
and a 25-QPS Poisson open loop (Section VII-A) -- but its queueing
conclusions change qualitatively under time-varying and bursty load
(DeepRecSys, Gupta et al., ISCA 2020; the production diurnal patterns of
Gupta et al., HPCA 2020).  This module owns the arrival-time axis of a
workload as a family of small frozen value objects:

* :class:`SerialArrivals` -- closed-loop blocking replay (no precomputable
  times; the cluster drives each send after the previous response);
* :class:`PoissonArrivals` -- the paper's open-loop regime (Section
  VII-A: 25 QPS);
* :class:`ConstantRateArrivals` -- deterministic fixed-gap injection (the
  zero-variance baseline that isolates queueing noise from arrival noise);
* :class:`PiecewiseRateArrivals` -- a non-homogeneous Poisson process over
  a piecewise-constant rate curve, inverted exactly via time rescaling;
  :meth:`PiecewiseRateArrivals.diurnal` builds the curve from
  :func:`diurnal_qps_curve`, giving diurnal QPS replay;
* :class:`MMPPArrivals` -- a Markov-modulated Poisson process (states with
  distinct rates, exponential dwell times), the classic bursty-traffic
  model.

:class:`ReplaySchedule` is only an alias: ``ReplaySchedule.serial`` *is*
:class:`SerialArrivals` and ``ReplaySchedule.open_loop`` *is*
:class:`PoissonArrivals`, the paper's two regimes by their old names.

Determinism contract: every process normalizes its numeric parameters to
Python floats in ``__post_init__`` (their field contracts, see
:mod:`repro.core.types`), and each draws from a named
:func:`~repro.core.rng.substream` keyed on those normalized values -- so
``PoissonArrivals(25)``, ``PoissonArrivals(25.0)`` and
``PoissonArrivals(np.float64(25.0))`` replay one identical stream, and
equality/hashing treat them as the same process.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from repro.core.rng import substream
from repro.core.types import (
    check_fields,
    checked,
    count,
    each,
    finite_positive,
    index,
    positive,
)
from repro.core.types import seed as any_seed

#: A request count for :meth:`ArrivalProcess.arrival_times`.
_COUNT = index.reworded(">= 0 (an integer, not a bool)")

_HOUR_SECONDS = 3600.0


def diurnal_qps_curve(
    peak_qps: float,
    trough_fraction: float = 0.35,
    hours: int = 24,
    samples: int | None = None,
    period_hours: float | None = None,
) -> np.ndarray:
    """A smooth stretch of traffic: sinusoid between trough and peak QPS.

    The generalized form of the curve the elasticity study introduced
    (:mod:`repro.planning.elasticity` re-exports it): ``samples`` decouples the resolution from the
    covered ``hours`` (defaults keep one sample per hour, bit-identical to
    the historical output), and ``period_hours`` sets the cycle length
    (defaults to ``hours``, i.e. exactly one full day over the window).
    """
    if peak_qps <= 0 or not 0 < trough_fraction <= 1:
        raise ValueError("peak_qps must be positive, trough_fraction in (0, 1]")
    if samples is None:
        samples = hours
    if samples < 1 or hours <= 0:
        raise ValueError("hours and samples must be positive")
    period = float(hours if period_hours is None else period_hours)
    if period <= 0:
        raise ValueError("period_hours must be positive")
    # Parenthesized so the default spelling reproduces the historical
    # curve bit-for-bit: 2pi * (positions / period), not (2pi*positions)/period.
    phase = 2.0 * np.pi * ((np.arange(samples) * (hours / samples)) / period)
    mean = (1 + trough_fraction) / 2
    amplitude = (1 - trough_fraction) / 2
    return peak_qps * (mean - amplitude * np.cos(phase))


class ArrivalProcess:
    """When requests arrive.  Subclasses are frozen value objects.

    :meth:`arrival_times` returns the first ``count`` absolute arrival
    times (seconds, nondecreasing) as a float array -- an **empty array
    for** ``count == 0`` -- or ``None`` for closed-loop (serial) arrivals,
    which have no precomputable times.  The stream is a pure function of
    the process's fields: replaying the same process always yields the
    same times.
    """

    def arrival_times(self, count: int) -> np.ndarray | None:
        raise NotImplementedError

    def peak_rate(self) -> float | None:
        """Highest sustained QPS of the process (capacity planners size
        deployments against it), or ``None`` for closed-loop arrivals,
        which have no intrinsic rate."""
        return None

    @staticmethod
    def _checked_count(count: int) -> int:
        """Validate a request count: the ``index`` contract, with a
        ``TypeError`` for a value that is no integer at all."""
        if not isinstance(count, numbers.Integral):
            raise TypeError(
                f"count must be an integer, got {type(count).__name__}"
            )
        return _COUNT.check("count", count)


@dataclass(frozen=True)
class SerialArrivals(ArrivalProcess):
    """Closed-loop blocking replay: each send waits for the previous
    response, so there are no precomputable arrival times."""

    def arrival_times(self, count: int) -> None:
        self._checked_count(count)
        return None


@dataclass(frozen=True)
class PoissonArrivals(ArrivalProcess):
    """Open-loop Poisson arrivals at a fixed QPS (paper Section VII-A).

    The substream is keyed on the float-normalized rate, and the times
    are the cumulative sum of exponential gaps: the historical
    ``ReplaySchedule.open_loop(qps, seed)`` stream, now this class.
    """

    qps: float = checked(
        finite_positive.reworded("a finite qps > 0"), normalise=True
    )
    seed: int = checked(any_seed, 0)

    def __post_init__(self):
        check_fields(self)

    def arrival_times(self, count: int) -> np.ndarray:
        count = self._checked_count(count)
        rng = substream(self.seed, "arrivals", self.qps)
        gaps = rng.exponential(1.0 / self.qps, size=count)
        return np.cumsum(gaps)

    def peak_rate(self) -> float:
        return self.qps


class ReplaySchedule:
    """The paper's two replay regimes by their historical names."""

    serial = SerialArrivals
    open_loop = PoissonArrivals


@dataclass(frozen=True)
class ConstantRateArrivals(ArrivalProcess):
    """Deterministic fixed-gap arrivals: request ``i`` lands at ``(i+1)/qps``.

    The zero-variance open-loop baseline; no seed, no randomness.
    """

    qps: float = checked(positive, normalise=True)

    def __post_init__(self):
        check_fields(self)

    def arrival_times(self, count: int) -> np.ndarray:
        count = self._checked_count(count)
        return np.arange(1, count + 1, dtype=np.float64) / self.qps

    def peak_rate(self) -> float:
        return self.qps


@dataclass(frozen=True)
class PiecewiseRateArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals over a piecewise-constant rate curve.

    ``rates[j]`` is the QPS during ``[j, j+1) * interval_seconds``; the
    curve repeats periodically, so any request count can be drawn from a
    finite curve (a two-day replay of a 24-hour curve just wraps).

    Sampling uses exact time rescaling: unit-rate exponential gaps are
    accumulated into targets on the integrated-rate axis and mapped back
    through the piecewise-linear inverse of the cumulative rate
    ``Lambda(t)``, which is the textbook inversion for a non-homogeneous
    Poisson process -- no thinning, no rejected draws, fully vectorized.
    """

    rates: tuple[float, ...] = checked(
        each(finite_positive, "a non-empty rate curve of finite, positive rates"),
        normalise=True,
    )
    interval_seconds: float = checked(
        finite_positive, _HOUR_SECONDS, normalise=True
    )
    seed: int = checked(any_seed, 0)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def diurnal(
        cls,
        peak_qps: float,
        trough_fraction: float = 0.35,
        hours: int = 24,
        samples_per_hour: int = 4,
        seed: int = 0,
    ) -> "PiecewiseRateArrivals":
        """Diurnal QPS replay: the sinusoidal day of :func:`diurnal_qps_curve`
        sampled at ``samples_per_hour`` steps, driving Poisson arrivals."""
        samples_per_hour = count.check("samples_per_hour", samples_per_hour)
        hours = count.check("hours", hours)
        curve = diurnal_qps_curve(
            float(peak_qps), float(trough_fraction),
            hours=hours, samples=hours * samples_per_hour,
        )
        return cls(
            rates=tuple(float(rate) for rate in curve),
            interval_seconds=_HOUR_SECONDS / samples_per_hour,
            seed=seed,
        )

    @property
    def period_seconds(self) -> float:
        return len(self.rates) * self.interval_seconds

    def peak_rate(self) -> float:
        return max(self.rates)

    def arrival_times(self, count: int) -> np.ndarray:
        count = self._checked_count(count)
        rng = substream(self.seed, "arrivals-piecewise", self.rates, self.interval_seconds)
        targets = np.cumsum(rng.exponential(1.0, size=count))
        # Cumulative expected arrivals at segment boundaries (one period).
        rates = np.asarray(self.rates)
        boundaries = np.concatenate(
            [[0.0], np.cumsum(rates) * self.interval_seconds]
        )
        per_period = boundaries[-1]
        periods = np.floor(targets / per_period)
        remainder = targets - periods * per_period
        # Float roundoff can push a remainder to exactly per_period; fold
        # it into the next period rather than indexing past the curve.
        overflow = remainder >= per_period
        periods = periods + overflow
        remainder = np.where(overflow, remainder - per_period, remainder)
        segment = np.clip(
            np.searchsorted(boundaries, remainder, side="right") - 1,
            0, len(self.rates) - 1,
        )
        within = np.maximum(0.0, remainder - boundaries[segment]) / rates[segment]
        return (
            periods * self.period_seconds
            + segment * self.interval_seconds
            + within
        )


@dataclass(frozen=True)
class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson arrivals: bursty open-loop traffic.

    The process cycles through ``rates`` (e.g. a calm state and a burst
    state); each visit dwells for an exponential time with mean
    ``mean_dwell_seconds``, and arrivals within a dwell follow a Poisson
    process at that state's rate (realized as a Poisson count with
    sorted-uniform placement, the standard conditional construction).
    """

    rates: tuple[float, ...] = checked(
        each(positive, "a non-empty tuple of positive state rates"),
        (10.0, 100.0),
        normalise=True,
    )
    mean_dwell_seconds: float = checked(positive, 60.0, normalise=True)
    seed: int = checked(any_seed, 0)

    def __post_init__(self):
        check_fields(self)
        if len(self.rates) < 2:
            raise ValueError("MMPP arrivals require >= 2 positive state rates")

    def peak_rate(self) -> float:
        return max(self.rates)

    def arrival_times(self, count: int) -> np.ndarray:
        count = self._checked_count(count)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        rng = substream(self.seed, "arrivals-mmpp", self.rates, self.mean_dwell_seconds)
        chunks: list[np.ndarray] = []
        collected = 0
        start = 0.0
        state = 0
        while collected < count:
            dwell = float(rng.exponential(self.mean_dwell_seconds))
            arrivals = int(rng.poisson(self.rates[state] * dwell))
            if arrivals:
                chunks.append(start + np.sort(rng.uniform(0.0, dwell, size=arrivals)))
                collected += arrivals
            start += dwell
            state = (state + 1) % len(self.rates)
        return np.concatenate(chunks)[:count]
