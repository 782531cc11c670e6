"""Resilience runtime: per-replay retry accounting and the token bucket.

:class:`ResilienceRuntime` interprets one
:class:`~repro.resilience.policy.ResiliencePolicy` for one cluster
replay.  It owns everything the healthy serving path must not know
about:

* **per-request accounting** -- the ``attempts``/``hedged``/
  ``deadline_exceeded`` fields of the cluster's per-request
  :class:`~repro.tracing.aggregate.OutcomeLedger`, which the tracing
  layer folds into result columns and the cluster sums into
  ``RunResult.resilience_stats``;
* the **token-bucket retry budget** -- one shared bucket per cluster
  replay, refilled in simulated time, spent by every retry and hedge;
  exhaustion is counted (``budget_denied``), never queued, so
  correlated failure cannot amplify into a retry storm;
* **backoff jitter** -- the only random draws in the layer, taken from
  the dedicated ``substream(seed, "resilience", ...)`` stream handed in
  by the cluster, in event order, so serial and parallel replays are
  bit-identical.

The runtime is deliberately passive: the serving layer's RPC
orchestrator (:meth:`repro.serving.simulator.ClusterSimulation.
_rpc_resilient`) asks it *may I retry?* and *how long do I back off?*;
all event scheduling stays in the serving generators.
"""

from __future__ import annotations

from repro.resilience.policy import ResiliencePolicy
from repro.tracing.aggregate import (
    ATTEMPTS,
    DEADLINE_EXCEEDED,
    HEDGED,
    OutcomeLedger,
)


class ResilienceRuntime:
    """Interprets a :class:`ResiliencePolicy` for one cluster replay."""

    def __init__(
        self, policy: ResiliencePolicy, engine, rng, outcomes: OutcomeLedger
    ):
        if policy.hedge_quantile is not None:
            raise ValueError(
                "hedge_quantile is unresolved; derive a concrete hedge_delay "
                "first (availability_sweep resolves it from the healthy "
                "baseline, or call policy.with_hedge_delay)"
            )
        self.policy = policy
        self.engine = engine
        self._rng = rng
        #: The cluster's per-request outcome ledger (shared with the
        #: chaos runtime); this runtime writes attempts/hedged/
        #: deadline_exceeded.
        self.outcomes = outcomes
        #: Request arrival times (engine time), for deadline checks.
        self._starts: dict[int, float] = {}

        # Token bucket (simulated time): retries and hedges spend 1 each.
        self._tokens = float(policy.retry_budget)
        self._refilled_at = 0.0

        #: Retries and hedges the empty bucket denied: a replay-level
        #: count, not a per-request outcome.
        self.budget_denied = 0

    # -- per-request accounting -------------------------------------------
    def start_request(self, request_id: int) -> float:
        """Record a request's arrival time; returns it (deadline base)."""
        start = self.engine.now
        self._starts[request_id] = start
        return start

    def finish_request(self, request_id: int, e2e: float) -> None:
        """Close out one request: stamp the deadline flag from its E2E."""
        self._starts.pop(request_id, None)
        deadline = self.policy.deadline
        if deadline is not None and e2e > deadline:
            self.outcomes[request_id][DEADLINE_EXCEEDED] = 1

    def deadline_at(self, request_id: int) -> float | None:
        """Absolute engine time of this request's deadline (or None)."""
        deadline = self.policy.deadline
        if deadline is None:
            return None
        start = self._starts.get(request_id)
        if start is None:
            return None
        return start + deadline

    def count_attempt(self, request_id: int) -> None:
        self.outcomes[request_id][ATTEMPTS] += 1

    def count_hedge(self, request_id: int) -> None:
        self.outcomes[request_id][HEDGED] += 1

    # -- retry budget ------------------------------------------------------
    def _refill(self) -> None:
        now = self.engine.now
        elapsed = now - self._refilled_at
        if elapsed > 0.0:
            self._tokens = min(
                float(self.policy.retry_budget),
                self._tokens + elapsed * self.policy.retry_refill_rate,
            )
            self._refilled_at = now

    def try_spend(self) -> bool:
        """Spend one retry/hedge token; count (never queue) a denial."""
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        self.budget_denied += 1
        return False

    # -- backoff -----------------------------------------------------------
    def backoff_delay(self, attempts_made: int) -> float:
        """Backoff before the next attempt, given ``attempts_made`` so far.

        ``backoff_base * backoff_factor**(attempts_made - 1)``, stretched
        by ``1 + backoff_jitter * u`` with ``u ~ U[0, 1)`` from the
        resilience substream.  A zero base backs off not at all and
        consumes no draw, so policies without backoff leave the stream
        untouched.
        """
        policy = self.policy
        delay = policy.backoff_base * policy.backoff_factor ** max(
            0, attempts_made - 1
        )
        if delay > 0.0 and policy.backoff_jitter > 0.0:
            delay *= 1.0 + policy.backoff_jitter * float(self._rng.random())
        return delay
