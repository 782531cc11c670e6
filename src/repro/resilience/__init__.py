"""Tail-resilience layer: deadlines, retries, hedging, retry budgets.

The paper's capacity-driven scale-out thesis makes every ranking query
fan out across many sparse shards, so one slow or dead host governs the
request tail -- exactly the regime where production recommendation
stacks lean on per-attempt timeouts, hedged requests, and retry budgets
rather than a single hard-coded failover timeout.

* :mod:`repro.resilience.policy` -- the validated, frozen
  :class:`~repro.resilience.policy.ResiliencePolicy` attached to a
  :class:`~repro.serving.simulator.ServingConfig` via its ``resilience``
  field;
* :mod:`repro.resilience.runtime` -- the in-simulation interpreter:
  per-request attempt/hedge/deadline accounting and the token-bucket
  retry budget.

Determinism contract (see :mod:`repro.core.rng`): every resilience
random draw (backoff jitter) comes from the dedicated
``substream(seed, "resilience", ...)`` substream, so the healthy
request/jitter/skew streams are never consumed by retry machinery.  An
**empty** policy (no timeout, one attempt, no hedge, no deadline)
installs no runtime at all and replays byte-identical to
``resilience=None`` (regression-tested in ``tests/test_resilience.py``).
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {"policy": ("ResiliencePolicy",), "runtime": ("ResilienceRuntime",)},
)
__all__ = list(_EXPORTS)
