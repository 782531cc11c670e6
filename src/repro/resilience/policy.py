"""The tail-resilience policy: *when* to retry, hedge, or give up.

A :class:`ResiliencePolicy` is pure data -- validated, frozen,
picklable -- describing how the serving layer's sparse-shard RPCs react
to slowness and failure:

* a **per-attempt timeout** (``rpc_timeout``): an attempt that has not
  responded after this long stops being waited on exclusively and a new
  attempt is issued (the old one keeps running and may still win);
* **bounded attempts** (``max_attempts``) with **exponential backoff**
  between timeout-driven retries (``backoff_base`` doubled by
  ``backoff_factor`` per attempt, stretched by a deterministic jitter
  draw from the dedicated resilience substream);
* an optional **hedged request** (``hedge_delay`` /
  ``hedge_quantile``): one speculative second attempt to another
  replica after a fixed delay, the classic tail-at-scale lever against
  stragglers;
* a **request deadline** (``deadline``): no new attempt is issued once
  the request is past it, and requests finishing over it are flagged in
  the ``deadline_exceeded`` result column;
* a **token-bucket retry budget** (``retry_budget`` refilled at
  ``retry_refill_rate`` tokens/second): every retry or hedge spends one
  token, so correlated failure cannot trigger a retry storm -- denials
  are counted, not queued.

An **empty** policy (the default construction) drives nothing: the
serving layer installs no runtime for it and the replay is
byte-identical to ``resilience=None``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.core.types import (
    at_least_one,
    check_fields,
    checked,
    count,
    finite_non_negative,
    non_negative,
    optional,
    positive,
    probability,
    real,
)

_PERCENTILE = real(
    "a percentile in (0, 100)", lambda value: 0.0 < value < 100.0
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """How one deployment's sparse RPCs respond to slowness and failure."""

    rpc_timeout: float | None = checked(optional(positive), None)
    """Per-attempt response timeout (seconds).  When an attempt has been
    outstanding this long, a replacement attempt is issued (budget and
    ``max_attempts`` permitting); the timed-out attempt keeps running
    and the first response wins.  ``None`` disables timeout retries."""

    max_attempts: int = checked(count, 1)
    """Total attempts per RPC, counting the first send and any hedge.
    ``1`` means no retries at all."""

    backoff_base: float = checked(finite_non_negative, 0.0)
    """Base delay (seconds) before a timeout-driven retry; attempt ``n``
    waits ``backoff_base * backoff_factor**(n - 1)``.  ``0`` retries
    immediately."""

    backoff_factor: float = checked(at_least_one, 2.0)
    """Exponential growth factor between successive retry backoffs."""

    backoff_jitter: float = checked(probability, 0.0)
    """Deterministic jitter fraction in ``[0, 1]``: each nonzero backoff
    is stretched by ``1 + backoff_jitter * u`` with ``u`` drawn from the
    dedicated ``substream(seed, "resilience", ...)`` stream -- replayed
    draws are bit-identical, serial or parallel."""

    hedge_delay: float | None = checked(optional(positive), None)
    """Issue one speculative duplicate attempt to the next replica this
    many seconds after the first send (budget permitting).  ``None``
    disables hedging."""

    hedge_quantile: float | None = checked(optional(_PERCENTILE), None)
    """Derive ``hedge_delay`` from the healthy baseline instead of
    fixing it: :func:`repro.chaos.experiment.availability_sweep`
    resolves it to this percentile (0-100) of the healthy replay's
    per-request embedded-window totals.  Unresolved policies cannot be
    attached to a cluster directly -- resolve via
    :meth:`with_hedge_delay` first."""

    deadline: float | None = checked(optional(positive), None)
    """Per-request latency deadline (seconds, from request arrival): no
    retry or hedge is issued for a request already past it, and requests
    completing over it set the ``deadline_exceeded`` result column."""

    retry_budget: float = checked(non_negative, 10.0)
    """Token-bucket capacity shared by all retries/hedges of a cluster
    replay; each spends one token.  Exhaustion denies (and counts) the
    attempt instead of queueing it -- the anti-retry-storm valve."""

    retry_refill_rate: float = checked(non_negative, 10.0)
    """Bucket refill rate in tokens per simulated second."""

    def __post_init__(self) -> None:
        check_fields(self)
        if self.hedge_delay is not None and self.hedge_quantile is not None:
            raise ValueError(
                "set hedge_delay or hedge_quantile, not both; "
                "hedge_quantile is resolved to a delay by availability_sweep"
            )
        if (
            self.hedge_delay is not None or self.hedge_quantile is not None
        ) and self.max_attempts < 2:
            raise ValueError(
                "hedging issues a second attempt, so max_attempts must be "
                f">= 2, got {self.max_attempts!r}"
            )

    @property
    def is_empty(self) -> bool:
        """True when the policy drives nothing: no timeout retries, no
        extra attempts, no hedge, no deadline.  The serving layer skips
        runtime construction entirely for empty policies, so they replay
        byte-identical to ``resilience=None``."""
        return (
            self.rpc_timeout is None
            and self.max_attempts <= 1
            and self.hedge_delay is None
            and self.hedge_quantile is None
            and self.deadline is None
        )

    def with_hedge_delay(self, hedge_delay: float) -> "ResiliencePolicy":
        """Resolve ``hedge_quantile`` into a concrete ``hedge_delay``."""
        return dataclasses.replace(
            self, hedge_delay=float(hedge_delay), hedge_quantile=None
        )

    def describe(self) -> str:
        """One deterministic human-readable line (report artifacts)."""
        parts = []
        if self.rpc_timeout is not None:
            parts.append(f"timeout {self.rpc_timeout * 1e3:g}ms")
        if self.max_attempts > 1:
            parts.append(f"max {self.max_attempts} attempts")
        if self.backoff_base > 0.0:
            jitter = (
                f"+{self.backoff_jitter:g}j" if self.backoff_jitter > 0.0 else ""
            )
            parts.append(
                f"backoff {self.backoff_base * 1e3:g}ms"
                f"x{self.backoff_factor:g}{jitter}"
            )
        if self.hedge_delay is not None:
            parts.append(f"hedge after {self.hedge_delay * 1e3:.3f}ms")
        elif self.hedge_quantile is not None:
            parts.append(f"hedge at p{self.hedge_quantile:g}")
        if self.deadline is not None:
            parts.append(f"deadline {self.deadline * 1e3:g}ms")
        if not parts:
            return "empty"
        parts.append(
            f"budget {self.retry_budget:g}@{self.retry_refill_rate:g}/s"
        )
        return ", ".join(parts)
