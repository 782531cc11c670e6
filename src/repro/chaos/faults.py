"""Fault experiments: *what* breaks, *when*, and for *how long*.

A :class:`FaultSchedule` is a deterministic, composable description of a
chaos experiment over one simulated replay: host crashes (permanent, or
with a restart), straggler shards (a service-time multiplier over an
interval), network latency/jitter spikes, and correlated crashes of a
whole fault domain.  It is attached to a
:class:`~repro.serving.simulator.ServingConfig` via its ``chaos`` field
and interpreted by :class:`~repro.chaos.runtime.ChaosRuntime`, which
hooks the DES replay.

Everything here is pure data -- validated, frozen, picklable -- so a
schedule travels unchanged to parallel sweep workers, and identical
schedules replay identical fault timelines.

Determinism contract: all fault *times* are explicit simulation times
(never drawn), and any chaos randomness (e.g. spike jitter) draws from
dedicated ``substream(seed, "chaos", ...)`` substreams, so the healthy
request/jitter/skew streams are never consumed by fault machinery.  An
**empty** schedule with ``replicas=1`` and no healing injects nothing and
is byte-identical to running without a schedule at all
(regression-tested in ``tests/test_chaos.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import (
    Contract,
    at_least_one,
    check_fields,
    checked,
    count,
    finite_non_negative,
    index,
    non_negative,
    optional,
    positive,
)

#: A sparse shard index: an integral value >= 0 (``2.0`` passes and is
#: stored as ``2``; ``2.7``, ``True`` and NaN are rejected).
_SHARD = Contract(
    "a sparse shard index, one of the integers >= 0 (main-tier faults "
    "are not modeled)",
    lambda value: non_negative.accepts(value) and float(value).is_integer(),
    int,
)


@dataclass(frozen=True)
class HostCrash:
    """One replica of a sparse shard crashes at ``at``.

    With ``restart_after`` set, the same host comes back that many
    seconds later; otherwise the crash is permanent (only a
    :class:`HealingPolicy` can restore the shard's redundancy).  While a
    host is down, new RPC arrivals fail over to a live replica of the
    shard or -- with none left -- degrade to dense-only partial results.
    """

    shard: int = checked(_SHARD, normalise=True)
    at: float = checked(finite_non_negative)
    restart_after: float | None = checked(optional(finite_non_negative), None)
    replica: int = checked(index, 0)
    """Replica slot to kill: 0 is the primary ``sparse-{shard}`` host,
    ``k`` the ``sparse-{shard}-r{k}`` replica."""

    def __post_init__(self):
        check_fields(self)

    def end_time(self) -> float:
        return self.at + (self.restart_after or 0.0)


@dataclass(frozen=True)
class StragglerShard:
    """A shard serves slowly for an interval (service-time multiplier).

    Every component of the shard-side service (deserialization, fixed
    service time, framework overhead, SLS work, response serialization)
    is scaled by ``multiplier`` while the window is active; overlapping
    stragglers on the same shard compose multiplicatively.  With
    ``replica=None`` (the default) all replicas of the shard straggle
    together (a shard-local cause: compaction, page cache loss); with a
    replica slot set, only that host straggles (a host-local cause) --
    the regime where hedged requests to a healthy sibling replica win.
    """

    shard: int = checked(_SHARD, normalise=True)
    start: float = checked(finite_non_negative)
    duration: float = checked(finite_non_negative)
    multiplier: float = checked(at_least_one, 4.0)
    replica: int | None = checked(optional(index), None)
    """Replica slot that straggles: ``None`` slows every replica of the
    shard; ``k`` slows only slot ``k`` (0 = the primary)."""

    def __post_init__(self):
        check_fields(self)

    def end_time(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class NetworkSpike:
    """Fabric degradation over an interval: every RPC one-way delay is
    scaled by ``multiplier``, then ``extra_latency`` is added, then (with
    ``jitter_sigma`` > 0) the sum is scaled by a lognormal factor drawn
    from the dedicated ``(seed, "chaos", "network")`` substream -- chaos
    jitter never consumes the healthy fabric's jitter stream."""

    start: float = checked(finite_non_negative)
    duration: float = checked(finite_non_negative)
    extra_latency: float = checked(finite_non_negative, 0.0)
    multiplier: float = checked(at_least_one, 1.0)
    jitter_sigma: float = checked(non_negative, 0.0)

    def __post_init__(self):
        check_fields(self)

    def end_time(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class CorrelatedFailure:
    """Every host of one fault domain crashes together at ``at``.

    The correlated multi-host failure the ROADMAP leaves open: a rack
    power event or top-of-rack switch loss takes out all hosts sharing
    the domain, not one replica.  With ``stagger`` > 0, each victim's
    onset is offset by an independent draw from ``U[0, stagger)`` on the
    dedicated ``(seed, "chaos", "correlated")`` substream (breakers trip
    host-by-host); with ``restart_after`` set, each victim restarts that
    many seconds after its own crash.  Whether the replay degrades or
    merely fails over is decided by the schedule's ``placement``: spread
    placement leaves every shard a live replica in another domain,
    packed placement loses whole shards.
    """

    domain: int = checked(index)
    at: float = checked(finite_non_negative)
    restart_after: float | None = checked(optional(finite_non_negative), None)
    stagger: float = checked(finite_non_negative, 0.0)

    def __post_init__(self):
        check_fields(self)

    def end_time(self) -> float:
        return self.at + self.stagger + (self.restart_after or 0.0)


FaultExperiment = HostCrash | StragglerShard | NetworkSpike | CorrelatedFailure

#: Valid domain-aware replica placement strategies: ``"spread"`` places
#: replica slot ``r`` of shard ``s`` in domain ``(s + r) % domains`` (no
#: shard loses more than one replica per domain crash); ``"packed"``
#: places every replica of shard ``s`` in domain ``s % domains`` (a
#: domain crash takes out whole shards -- the anti-pattern the planner
#: sweep quantifies).
PLACEMENTS = ("spread", "packed")


@dataclass(frozen=True)
class HealingPolicy:
    """The self-healing controller's reaction speed.

    A heartbeat fires every ``check_interval`` seconds; a shard whose
    live replica count is below the schedule's target for
    ``consecutive_misses`` consecutive heartbeats is *detected* as
    unhealthy (detection lag is therefore roughly
    ``consecutive_misses * check_interval``), and each missing replica is
    re-replicated onto a fresh host that joins the routing set
    ``recovery_lag`` seconds later.
    """

    check_interval: float = checked(positive, 0.25)
    consecutive_misses: int = checked(count, 2)
    recovery_lag: float = checked(finite_non_negative, 2.0)

    def __post_init__(self):
        check_fields(self)

    def detection_lag(self) -> float:
        """Worst-case time from failure to detection."""
        return self.consecutive_misses * self.check_interval


@dataclass(frozen=True)
class FaultSchedule:
    """A full chaos experiment: faults + redundancy + failover + healing.

    ``replicas`` is the sparse-tier redundancy: every shard index is
    served by that many hosts (primary plus ``replicas - 1`` clones),
    round-robin routed.  ``failover_timeout`` is what an RPC pays to
    discover a dead host (connection timeout) before retrying a live
    replica or degrading.  ``healing`` enables the self-healing
    controller; ``None`` leaves failures to scheduled restarts only.
    """

    experiments: tuple[FaultExperiment, ...] = ()
    replicas: int = checked(count, 1, normalise=True)
    failover_timeout: float = checked(finite_non_negative, 2e-3)
    healing: HealingPolicy | None = None

    domains: int = checked(count, 1, normalise=True)
    """Number of fault domains the sparse hosts are placed across; a
    :class:`CorrelatedFailure` crashes one whole domain.  ``1`` puts
    every host in the same (never-jointly-crashed) domain."""

    placement: str = "spread"
    """Domain-aware replica placement strategy (:data:`PLACEMENTS`):
    ``"spread"`` stripes a shard's replicas across domains, ``"packed"``
    keeps them in one."""

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "experiments", tuple(self.experiments))
        for experiment in self.experiments:
            if not isinstance(
                experiment,
                (HostCrash, StragglerShard, NetworkSpike, CorrelatedFailure),
            ):
                raise TypeError(
                    f"experiments must be FaultExperiment instances, "
                    f"got {experiment!r}"
                )
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )
        for experiment in self.experiments:
            if (
                isinstance(experiment, CorrelatedFailure)
                and experiment.domain >= self.domains
            ):
                raise ValueError(
                    f"CorrelatedFailure targets domain {experiment.domain}, "
                    f"but the schedule provisions {self.domains} domain(s)"
                )

    def check_deployment(self, num_shards: int) -> None:
        """Raise ``ValueError`` unless every experiment's shard and
        replica exist in a deployment of ``num_shards`` sparse shards."""
        for experiment in self.experiments:
            shard = getattr(experiment, "shard", None)
            if shard is not None and shard >= num_shards:
                raise ValueError(
                    f"{type(experiment).__name__} targets shard {shard}, but "
                    f"the deployment has only {num_shards} sparse shard(s)"
                )
            replica = getattr(experiment, "replica", None)
            if replica is not None and replica >= self.replicas:
                raise ValueError(
                    f"{type(experiment).__name__} targets replica {replica}, "
                    f"but the schedule provisions {self.replicas} "
                    f"replica(s) per shard"
                )

    @property
    def is_empty(self) -> bool:
        """True when the schedule injects nothing at all."""
        return not self.experiments and self.healing is None

    def horizon(self) -> float:
        """Last scheduled fault transition (0.0 for an empty schedule)."""
        return max(
            (experiment.end_time() for experiment in self.experiments),
            default=0.0,
        )
