"""Embedding-table access traces (paper Section IX).

The paper highlights trace-driven experimentation as the academic-friendly
methodology for this domain: "Bandana used embedding table access traces
-- which can be collected offline -- to reduce effective DRAM
requirements.  Because embedding table behavior is the dominating design
factor in large models, explorations [of] table placement and
frequency-based caching are also valuable directions enabled with
trace-based analyses."

This module collects such traces from the request generator.  Row-access
popularity follows a bounded Zipf(~1) distribution -- production embedding
accesses are heavily skewed toward hot entities -- realized by sampling
log-uniform ranks and scattering them over the table with a mixing
permutation (hot rows are not physically adjacent).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.rng import substream
from repro.core.types import check_fields, checked, count, real
from repro.core.types import seed as any_seed
from repro.models.config import ModelConfig
from repro.requests.generator import Request

_RECENCY = real("a number in [0, 1)", lambda value: 0.0 <= value < 1.0)

_MIX_MULTIPLIER = np.int64(0x9E3779B97F4A7C15 & 0x7FFFFFFFFFFFFFFF)


@dataclass
class AccessTrace:
    """Ordered row accesses per table, plus table row counts."""

    model_name: str
    num_requests: int
    accesses: dict[str, np.ndarray] = field(default_factory=dict)
    num_rows: dict[str, int] = field(default_factory=dict)

    def total_accesses(self) -> int:
        return sum(len(rows) for rows in self.accesses.values())

    def tables(self) -> list[str]:
        return sorted(self.accesses)


_SKEW_EXPONENT = 2.0
"""Popularity skew: rank CDF is (ln r / ln N) ** (1/exponent).  At 2.0,
~10% of a trace's working set captures ~2/3 of its accesses, matching the
skew production embedding traces exhibit (Bandana-class workloads)."""


def _zipf_rows(rng: np.random.Generator, count: int, num_rows: int) -> np.ndarray:
    """Sample ``count`` row ids with Zipf-like popularity.

    Ranks are drawn log-uniform with an extra skew exponent (density
    steeper than 1/rank near the head), then scattered across the
    physical row space with a fixed odd-multiplier permutation.
    """
    if num_rows <= 1:
        return np.zeros(count, dtype=np.int64)
    u = rng.uniform(0.0, 1.0, size=count) ** _SKEW_EXPONENT
    ranks = np.floor(np.exp(u * np.log(num_rows))).astype(np.int64)
    ranks = np.minimum(ranks, num_rows - 1)
    return (ranks * _MIX_MULTIPLIER) % num_rows


def collect_access_trace(
    model: ModelConfig, requests: list[Request], seed: int = 0
) -> AccessTrace:
    """Expand count-level requests into per-table row-access streams."""
    trace = AccessTrace(model_name=model.name, num_requests=len(requests))
    buffers: dict[str, list[np.ndarray]] = {}
    for request in requests:
        # Sorted draw order (DET004): each draw has its own
        # (table, request) substream, so ordering by table name is
        # byte-identical to insertion order -- but provably so.
        for draw in sorted(request.draws.values(), key=lambda d: d.table_name):
            table = model.table(draw.table_name)
            rng = substream(seed, "access", draw.table_name, request.request_id)
            buffers.setdefault(draw.table_name, []).append(
                _zipf_rows(rng, draw.total_ids, table.num_rows)
            )
    for name, chunks in buffers.items():
        trace.accesses[name] = np.concatenate(chunks)
        trace.num_rows[name] = model.table(name).num_rows
    return trace


@dataclass(frozen=True)
class CorrelatedStream:
    """Temporally-correlated (popularity + recency) sparse-ID stream.

    :func:`collect_access_trace` draws every access i.i.d. from the Zipf
    popularity law, which understates what an online cache captures:
    production embedding accesses also exhibit *recency* -- entities
    active right now are re-referenced far above their stationary
    popularity (session locality).  Under this stream each access is,
    with probability ``recency_weight``, a re-reference of one of the
    last ``window`` rows touched on that table; otherwise it is a fresh
    popularity draw.  The emitted :class:`AccessTrace` feeds
    :mod:`repro.analysis.caching` directly, closing the cache-aware loop
    from the request stream to the DRAM-reduction study.
    """

    recency_weight: float = checked(_RECENCY, 0.3, normalise=True)
    window: int = checked(count, 2048, normalise=True)
    seed: int = checked(any_seed, 0)

    def __post_init__(self):
        check_fields(self)


def collect_correlated_trace(
    model: ModelConfig, requests: list[Request], stream: CorrelatedStream
) -> AccessTrace:
    """Expand requests into recency-correlated per-table access streams.

    Requests are consumed in list order (arrival order for a sampled
    workload stream), one substream per table advancing with them -- the
    trace is a pure function of ``(model, requests, stream)``.
    """
    trace = AccessTrace(model_name=model.name, num_requests=len(requests))
    buffers: dict[str, list[np.ndarray]] = {}
    recent: dict[str, np.ndarray] = {}
    rngs: dict[str, np.random.Generator] = {}
    for request in requests:
        # Sorted draw order (DET004): every stream below (rng, recency
        # window, buffers) is keyed per table, so each table's draw
        # sequence depends only on the *request* order, never on the
        # intra-request table order -- sorting changes no bytes.
        for draw in sorted(request.draws.values(), key=lambda d: d.table_name):
            name = draw.table_name
            rng = rngs.get(name)
            if rng is None:
                rng = substream(stream.seed, "correlated-access", name)
                rngs[name] = rng
            num_rows = model.table(name).num_rows
            rows = _zipf_rows(rng, draw.total_ids, num_rows)
            window = recent.get(name)
            if window is not None and stream.recency_weight > 0.0:
                rehit = rng.uniform(0.0, 1.0, size=rows.size) < stream.recency_weight
                picks = rng.integers(0, window.size, size=rows.size)
                rows = np.where(rehit, window[picks], rows)
            buffers.setdefault(name, []).append(rows)
            tail = (
                rows if window is None else np.concatenate([window, rows])
            )[-stream.window :]
            recent[name] = tail
    for name, chunks in buffers.items():
        trace.accesses[name] = np.concatenate(chunks)
        trace.num_rows[name] = model.table(name).num_rows
    return trace
