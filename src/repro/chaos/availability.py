"""Availability accounting: timelines, windows, and SLO retention.

Chaos replays answer one question: *of the traffic that arrived, how much
was served well?*  A completed request falls into one of three classes:

* **ok** -- full (undegraded) response within the latency SLO;
* **slow** -- full response, but over the SLO;
* **degraded** -- partial (dense-tower-only) response: at least one
  sparse RPC found no live replica and the request shipped without those
  embeddings.

Requests that never completed at all (only possible on an aborted
replay) count as **failed**.  Two headline numbers summarize a replay:

* ``availability`` -- fraction of requests that received a *full*
  response, however slow: ``(ok + slow) / total``.  This is service
  availability in the N-nines sense (a degraded response means the
  embedding tier was unavailable to that request).
* ``slo_retention`` -- fraction that received a full response *within*
  the SLO: ``ok / total``.  This is the capacity planner's objective:
  "how much of the healthy SLO compliance survives the fault?".

The **timeline** view bins requests by *arrival* time, so a window's
availability describes the experience of traffic that arrived during it
-- crash, detection, and recovery show up as a dip and a ramp exactly
where they occur in simulation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.types import positive


@dataclass(frozen=True)
class ChaosEvent:
    """One fault or healing transition, stamped with simulation time."""

    time: float
    kind: str
    shard: int | None = None
    server: str | None = None
    detail: str = ""

    def describe(self) -> str:
        parts = [f"t={self.time:8.3f}s", self.kind]
        if self.shard is not None:
            parts.append(f"shard {self.shard}")
        if self.server is not None:
            parts.append(self.server)
        if self.detail:
            parts.append(f"({self.detail})")
        return "  ".join(parts)


@dataclass(frozen=True)
class AvailabilityWindow:
    """Request outcomes for traffic arriving in ``[start, end)``."""

    start: float
    end: float
    arrived: int
    ok: int
    slow: int
    degraded: int
    failed: int

    @property
    def availability(self) -> float:
        if self.arrived == 0:
            return 1.0
        return (self.ok + self.slow) / self.arrived

    @property
    def slo_retention(self) -> float:
        if self.arrived == 0:
            return 1.0
        return self.ok / self.arrived


@dataclass(frozen=True)
class AvailabilityReport:
    """One replay's availability summary + arrival-binned timeline."""

    slo_latency: float
    window: float
    total: int
    ok: int
    slow: int
    degraded: int
    failed: int
    retried: int
    """Requests that retried at least one RPC (successful failovers show
    up here rather than in ``degraded``)."""

    windows: tuple[AvailabilityWindow, ...]

    @property
    def availability(self) -> float:
        if self.total == 0:
            return 1.0
        return (self.ok + self.slow) / self.total

    @property
    def slo_retention(self) -> float:
        if self.total == 0:
            return 1.0
        return self.ok / self.total


def nines(value: float) -> float:
    """``0.999 -> 3.0``; capped at 9 so a perfect replay stays finite."""
    if value >= 1.0:
        return 9.0
    if value <= 0.0:
        return 0.0
    return min(9.0, -math.log10(1.0 - value))


def availability_report(
    result,
    arrival_times: np.ndarray,
    slo_latency: float,
    window: float = 0.5,
) -> AvailabilityReport:
    """Classify one replay's requests against an SLO, binned by arrival.

    ``result`` is a :class:`~repro.experiments.runner.RunResult` carrying
    the chaos columns (``request_ids``/``status``/``retries``);
    ``arrival_times[rid]`` is request ``rid``'s arrival time.  Requests
    absent from the result (an aborted replay) are counted as failed, in
    the window they arrived in.
    """
    positive.check("slo_latency", slo_latency)
    positive.check("window", window)
    arrival_times = np.asarray(arrival_times, dtype=np.float64)
    total = len(arrival_times)

    request_ids = result.request_ids
    status = result.status
    e2e = result.e2e
    retries = result.retries

    degraded_mask = status != 0
    ok_mask = ~degraded_mask & (e2e <= slo_latency)
    slow_mask = ~degraded_mask & (e2e > slo_latency)
    failed_ids = np.setdiff1d(np.arange(total, dtype=np.int64), request_ids)

    span = float(arrival_times.max()) if total else 0.0
    nbins = max(1, int(span / window) + 1)

    def binned(ids: np.ndarray) -> np.ndarray:
        if len(ids) == 0:
            return np.zeros(nbins, dtype=np.int64)
        bins = np.minimum(
            (arrival_times[ids] / window).astype(np.int64), nbins - 1
        )
        return np.bincount(bins, minlength=nbins)

    per_ok = binned(request_ids[ok_mask])
    per_slow = binned(request_ids[slow_mask])
    per_degraded = binned(request_ids[degraded_mask])
    per_failed = binned(failed_ids)
    per_arrived = per_ok + per_slow + per_degraded + per_failed

    windows = tuple(
        AvailabilityWindow(
            start=index * window,
            end=(index + 1) * window,
            arrived=int(per_arrived[index]),
            ok=int(per_ok[index]),
            slow=int(per_slow[index]),
            degraded=int(per_degraded[index]),
            failed=int(per_failed[index]),
        )
        for index in range(nbins)
    )
    return AvailabilityReport(
        slo_latency=float(slo_latency),
        window=float(window),
        total=total,
        ok=int(np.count_nonzero(ok_mask)),
        slow=int(np.count_nonzero(slow_mask)),
        degraded=int(np.count_nonzero(degraded_mask)),
        failed=int(len(failed_ids)),
        retried=int(np.count_nonzero(retries > 0)),
        windows=windows,
    )


def format_timeline(
    events: tuple[ChaosEvent, ...] | list[ChaosEvent],
    report: AvailabilityReport | None = None,
) -> list[str]:
    """Human-readable merged timeline: fault/heal events, and (with a
    report) the per-window availability ramp."""
    lines = [event.describe() for event in events]
    if report is not None:
        for win in report.windows:
            if win.arrived == 0:
                continue
            lines.append(
                f"t=[{win.start:7.3f}s, {win.end:7.3f}s)  "
                f"availability {win.availability:7.2%}  "
                f"slo-retention {win.slo_retention:7.2%}  "
                f"({win.ok} ok / {win.slow} slow / {win.degraded} degraded"
                f"{f' / {win.failed} failed' if win.failed else ''}"
                f" of {win.arrived})"
            )
    return lines
