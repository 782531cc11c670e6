"""Paging-from-disk as an alternative to distributed inference (§I, §X).

The paper lists on-demand paging of embedding tables from SSD as the other
single-server option for over-DRAM models ("this requires fast solid-state
drives to meet latency constraints") and names it as design-space future
work.  This model answers: with only a fraction of each table's *hot
working set* resident in DRAM (frequency-provisioned from an offline
access trace, as in :mod:`repro.analysis.caching`), what does paging do to
the embedded portion of inference latency -- and when does distributed
inference win?

The comparison charges paging only where it differs from singular serving:
cache-miss lookups stall on SSD reads instead of DRAM.  Coverage is
expressed working-set-relative (see the caching module) because embedding
tables are sized for hash-collision avoidance.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.caching import frequency_hit_rate
from repro.core.types import US
from repro.models.config import ModelConfig
from repro.requests.access_trace import AccessTrace


@dataclass(frozen=True)
class SsdSpec:
    """NVMe read characteristics for the paging tier."""

    read_latency: float = 85 * US
    """Per-read latency for a 4K-class random read on the latency-critical
    path (low queue depth)."""

    reads_per_row: float = 1.0
    """Embedding rows fit one read apiece at typical dims."""


@dataclass
class PagingAssessment:
    """Expected paging behaviour of one model at a working-set coverage."""

    model_name: str
    resident_coverage: float
    hit_rate: float
    expected_misses_per_request: float
    expected_stall_per_request: float


def assess_paging(
    model: ModelConfig,
    trace: AccessTrace,
    resident_coverage: float,
    ssd: SsdSpec | None = None,
) -> PagingAssessment:
    """Evaluate single-server paging with ``resident_coverage`` of each
    table's hot working set in DRAM.

    Every table pins the hottest ``resident_coverage`` fraction of its
    observed working set; remaining accesses stall on SSD reads.  Misses
    on the latency-critical path stall serially (singular execution runs
    SLS ops sequentially), so the expected stall per request is
    ``misses x read latency``.
    """
    ssd = ssd or SsdSpec()
    if not 0.0 < resident_coverage <= 1.0:
        raise ValueError("resident_coverage must be in (0, 1]")
    total_accesses = trace.total_accesses()
    if total_accesses == 0:
        raise ValueError("access trace is empty")

    hits = 0.0
    for name, accesses in trace.accesses.items():
        hits += frequency_hit_rate(
            accesses, trace.num_rows[name], resident_coverage
        ) * len(accesses)
    hit_rate = hits / total_accesses
    misses_per_request = (1.0 - hit_rate) * total_accesses / trace.num_requests
    stall = misses_per_request * ssd.reads_per_row * ssd.read_latency
    return PagingAssessment(
        model_name=model.name,
        resident_coverage=resident_coverage,
        hit_rate=hit_rate,
        expected_misses_per_request=misses_per_request,
        expected_stall_per_request=stall,
    )


def paging_vs_distributed_stall(
    paging: PagingAssessment, distributed_embedded_added: float
) -> float:
    """How much slower paging's embedded stall is than distribution's.

    ``distributed_embedded_added`` is the measured increase of the
    embedded portion under the distributed configuration (its network +
    shard cost over local SLS).  Values > 1 mean distribution wins.
    """
    if distributed_embedded_added <= 0:
        raise ValueError("distributed_embedded_added must be positive")
    return paging.expected_stall_per_request / distributed_embedded_added
