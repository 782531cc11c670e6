"""Workloads: *what* arrives, *when*, and *for which model*.

A :class:`Workload` binds a model, its seeded
:class:`~repro.requests.generator.RequestGenerator`, an
:class:`~repro.workloads.arrivals.ArrivalProcess`, and (optionally) a
temporally-correlated sparse-ID stream for the caching analysis.  A
:class:`WorkloadMix` interleaves several workloads into one merged,
time-ordered request stream, which is what a co-located multi-model
cluster (``ClusterSimulation.colocated``) consumes: contention between
the models is then *simulated* on shared hosts, not post-processed.

Request timestamps in a sampled stream are the arrival times themselves,
so the generator's diurnal request-size modulation tracks the arrival
curve: a diurnal arrival process peaks exactly when requests are largest,
the coupling the HPCA 2020 production characterization describes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.types import check_fields, checked
from repro.core.types import seed as any_seed
from repro.models.config import ModelConfig
from repro.requests.access_trace import (
    AccessTrace,
    CorrelatedStream,
    collect_access_trace,
    collect_correlated_trace,
)
from repro.requests.generator import Request, RequestGenerator
from repro.workloads.arrivals import ArrivalProcess


@dataclass(frozen=True)
class Workload:
    """One model's request stream: generator seed + arrival process."""

    name: str
    model: ModelConfig
    arrivals: ArrivalProcess
    request_seed: int = checked(any_seed, 3)
    id_stream: CorrelatedStream | None = None
    """When set, :meth:`access_trace` emits a temporally-correlated
    (popularity + recency) sparse-ID stream instead of i.i.d. Zipf draws;
    the trace feeds :mod:`repro.analysis.caching` directly."""

    def __post_init__(self):
        check_fields(self)

    def generator(self) -> RequestGenerator:
        return RequestGenerator(self.model, seed=self.request_seed)

    def sample(self, count: int) -> tuple[np.ndarray, list[Request]]:
        """Draw ``count`` requests with their arrival times.

        Raises for serial (closed-loop) arrivals: those have no
        precomputable times and cannot join a merged timed stream.
        """
        times = self.arrivals.arrival_times(count)
        if times is None:
            raise ValueError(
                f"workload {self.name!r}: serial arrivals have no arrival "
                "times; use an open-loop arrival process"
            )
        return times, self.generator().generate_batch(times)

    def access_trace(self, requests: list[Request]) -> AccessTrace:
        """Row-access trace of ``requests``: correlated when ``id_stream``
        is set, i.i.d. Zipf otherwise.

        Both paths are keyed by *position in the list*, never by request
        id -- mix sampling renumbers ids to merged positions, and a
        workload's trace must be identical whether it was sampled alone
        or co-located (renumbering is not a cache effect).
        """
        if self.id_stream is None:
            positional = [
                replace(request, request_id=position)
                for position, request in enumerate(requests)
            ]
            return collect_access_trace(
                self.model, positional, seed=self.request_seed
            )
        return collect_correlated_trace(self.model, requests, self.id_stream)


class MixedStream:
    """A merged, time-ordered request stream over several workloads.

    ``requests[i]`` arrives at ``times[i]`` and belongs to workload
    ``workload_ids[i]``; request ids equal merged positions, so any
    per-request record (completion, trace, column row) maps back to its
    workload by indexing ``workload_ids`` with the request id.  ``times``
    is None for a one-workload stream of serial (closed-loop) arrivals.
    """

    def __init__(
        self,
        times: np.ndarray | None,
        workload_ids: np.ndarray,
        requests: list[Request],
        counts: tuple[int, ...],
    ):
        self.times = times
        self.workload_ids = workload_ids
        self.requests = requests
        self.counts = counts

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[tuple[float, int, Request]]:
        assert self.times is not None, "a serial stream has no arrival times"
        times = self.times.tolist()
        ids = self.workload_ids.tolist()
        return iter(zip(times, ids, self.requests))


@dataclass(frozen=True)
class WorkloadMix:
    """Several workloads co-located on one simulated cluster."""

    workloads: tuple[Workload, ...]

    def __post_init__(self):
        workloads = tuple(self.workloads)
        if not workloads:
            raise ValueError("a WorkloadMix needs at least one workload")
        names = [workload.name for workload in workloads]
        if len(set(names)) != len(names):
            raise ValueError(f"workload names must be unique, got {names}")
        object.__setattr__(self, "workloads", workloads)

    def labels(self) -> tuple[str, ...]:
        return tuple(workload.name for workload in self.workloads)

    def sample(self, count: int | Sequence[int]) -> MixedStream:
        """Draw every workload's stream and merge by arrival time.

        ``count`` is either one per-workload request count or a sequence
        with one entry per workload, each an integer ``>= 0`` and not a
        bool (:meth:`ArrivalProcess._checked_count`).  The merge is
        **stable**: at equal timestamps, requests keep workload
        declaration order, then per-workload generation order -- so a mix
        replays identically however the per-workload streams happen to
        collide.
        """
        if not isinstance(count, Iterable):
            count = [count] * len(self.workloads)
        counts = [ArrivalProcess._checked_count(c) for c in count]
        if len(counts) != len(self.workloads):
            raise ValueError(
                f"got {len(counts)} counts for {len(self.workloads)} workloads"
            )
        all_times: list[np.ndarray] = []
        all_requests: list[list[Request]] = []
        for workload, per_workload in zip(self.workloads, counts):
            times, requests = workload.sample(per_workload)
            all_times.append(np.asarray(times, dtype=np.float64))
            all_requests.append(requests)
        times = np.concatenate(all_times) if all_times else np.empty(0)
        workload_ids = np.concatenate(
            [
                np.full(len(chunk), index, dtype=np.int64)
                for index, chunk in enumerate(all_times)
            ]
        ) if all_times else np.empty(0, dtype=np.int64)
        order = np.argsort(times, kind="stable")
        flat = [request for chunk in all_requests for request in chunk]
        merged = [flat[position] for position in order.tolist()]
        for request_id, request in enumerate(merged):
            request.request_id = request_id
        return MixedStream(
            times=times[order],
            workload_ids=workload_ids[order],
            requests=merged,
            counts=tuple(counts),
        )

    def access_traces(self, stream: MixedStream) -> dict[str, AccessTrace]:
        """Per-workload access traces of a sampled stream (merged order),
        ready for :mod:`repro.analysis.caching`."""
        traces: dict[str, AccessTrace] = {}
        ids = stream.workload_ids.tolist()
        for index, workload in enumerate(self.workloads):
            requests = [
                request
                for request, workload_id in zip(stream.requests, ids)
                if workload_id == index
            ]
            traces[workload.name] = workload.access_trace(requests)
        return traces
