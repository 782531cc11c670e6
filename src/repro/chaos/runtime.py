"""Chaos runtime: replica routing, liveness, injection, self-healing.

:class:`ChaosRuntime` interprets one
:class:`~repro.chaos.faults.FaultSchedule` against a live
:class:`~repro.serving.simulator.ClusterSimulation`.  It owns everything
the healthy serving path must not know about:

* the **replica sets** -- each sparse shard index is served by
  ``schedule.replicas`` hosts (plus any healed ones), round-robin routed
  via :meth:`route`;
* **liveness** -- crash/restart and correlated domain-crash experiments
  run as ordinary engine processes flipping per-host alive bits, so fault
  transitions interleave deterministically with request events
  (same-time ordering follows process creation order, and all chaos
  processes are created before the replay driver);
* **degradation accounting** -- writes the ``degraded``/``retries``
  fields of the cluster's per-request
  :class:`~repro.tracing.aggregate.OutcomeLedger`, which the tracing
  layer folds into result columns;
* the **healing controller** -- a heartbeat process that detects shards
  below their replica target, and re-replicates after a configurable
  detection + recovery lag, emitting ``detected``/``healed`` timeline
  events.  The controller ticks only up to a bounded horizon derived from
  the schedule (last fault + detection lag + recovery lag + slack), so
  the event heap always drains and the replay terminates.

The runtime receives a *server factory* from the cluster instead of
importing :class:`~repro.serving.simulator.SimServer`, keeping the
dependency one-directional (serving -> chaos, lazily).

Fault model granularity: a crash aborts in-flight work at *segment
boundaries* -- an RPC in service on a crashed host completes the segment
it is in (deserialization, SLS gather, ...), then notices the host is
dead at the next instrumented boundary, releases the worker, and aborts
(counted in ``ClusterSimulation.aborted_rpcs``); the client pays
``failover_timeout`` and retries the next live replica, or -- with none
left -- degrades to a dense-only partial result.  Dead-on-arrival hosts
are still discovered by the client at arrival time: the RPC pays the
network trip, finds the host dead, pays ``failover_timeout``, and fails
over.  Work already past response serialization is considered committed
(the response is on the wire) and delivers normally.

Fault domains: with ``schedule.domains > 1`` every host is assigned to
one fault domain by the schedule's ``placement`` strategy (spread
stripes a shard's replicas across domains; packed keeps them together),
and a :class:`~repro.chaos.faults.CorrelatedFailure` crashes a whole
domain through the dedicated ``(seed, "chaos", "correlated")``
substream.
"""

from __future__ import annotations

import math
from typing import Callable

from repro.chaos.availability import ChaosEvent
from repro.chaos.faults import (
    CorrelatedFailure,
    FaultSchedule,
    HealingPolicy,
    HostCrash,
    NetworkSpike,
    StragglerShard,
)
from repro.tracing.aggregate import DEGRADED, RETRIES, OutcomeLedger


class ChaosRuntime:
    """Interprets a :class:`FaultSchedule` for one cluster replay."""

    def __init__(
        self,
        schedule: FaultSchedule,
        engine,
        primaries: list,
        make_server: Callable[[str], object],
        outcomes: OutcomeLedger,
        spike_rng=None,
        corr_rng=None,
    ):
        self.schedule = schedule
        self.engine = engine
        self.make_server = make_server
        #: The cluster's per-request outcome ledger (shared with the
        #: resilience runtime); this runtime writes degraded/retries.
        self.outcomes = outcomes
        self.num_shards = len(primaries)
        self.failover_timeout = schedule.failover_timeout
        schedule.check_deployment(self.num_shards)

        #: Replica sets per shard index: slot 0 is the healthy primary
        #: (``sparse-{i}``), slots 1..R-1 the static replicas, and healed
        #: hosts append after.  Replica-major construction order keeps the
        #: primaries' clock-skew draws identical to the no-chaos cluster.
        self.replicas: dict[int, list] = {
            shard: [server] for shard, server in enumerate(primaries)
        }
        for clone in range(1, schedule.replicas):
            for shard in range(self.num_shards):
                self.replicas[shard].append(
                    make_server(f"sparse-{shard}-r{clone}")
                )
        self._alive: dict[str, bool] = {
            server.name: True
            for servers in self.replicas.values()
            for server in servers
        }
        self._round_robin = [0] * self.num_shards

        #: Fault/heal transitions in simulation-time order.
        self.timeline: list[ChaosEvent] = []

        self._active_stragglers: list[StragglerShard] = []
        self._active_spikes: list[NetworkSpike] = []
        self._spike_rng = spike_rng
        self._corr_rng = corr_rng
        self._misses: dict[int, int] = {}
        self._pending_heals: dict[int, int] = {}
        self._heal_seq = 0

        #: Fault-domain assignment: host name -> domain index, from the
        #: schedule's placement strategy.  Healed hosts are assigned as
        #: they join (same formula, their replica slot).
        self._domain_of: dict[str, int] = {}
        for shard, servers in self.replicas.items():
            for slot, server in enumerate(servers):
                self._domain_of[server.name] = self.domain_for(shard, slot)

    # -- fault domains -----------------------------------------------------
    def domain_for(self, shard: int, slot: int) -> int:
        """Fault domain of replica ``slot`` of ``shard`` (placement map)."""
        domains = self.schedule.domains
        if domains <= 1:
            return 0
        if self.schedule.placement == "packed":
            return shard % domains
        return (shard + slot) % domains

    # -- process wiring ----------------------------------------------------
    def start(self) -> None:
        """Spawn every injection process (and the healing controller).

        Must run before the replay driver process is created so that
        same-timestamp fault transitions order before request arrivals.
        """
        engine = self.engine
        for experiment in self.schedule.experiments:
            if isinstance(experiment, HostCrash):
                engine.process(self._run_crash(experiment))
            elif isinstance(experiment, StragglerShard):
                engine.process(self._run_straggler(experiment))
            elif isinstance(experiment, NetworkSpike):
                engine.process(self._run_spike(experiment))
            elif isinstance(experiment, CorrelatedFailure):
                engine.process(self._run_correlated(experiment))
        if self.schedule.healing is not None:
            engine.process(self._run_controller(self.schedule.healing))

    # -- liveness ----------------------------------------------------------
    def _set_alive(self, shard: int, replica: int, alive: bool, kind: str) -> None:
        server = self.replicas[shard][replica]
        self._alive[server.name] = alive
        live = self.live_replicas(shard)
        self.timeline.append(
            ChaosEvent(
                time=self.engine.now,
                kind=kind,
                shard=shard,
                server=server.name,
                detail=f"{live} live replica(s)",
            )
        )

    def _run_crash(self, experiment: HostCrash):
        yield float(experiment.at)
        self._set_alive(experiment.shard, experiment.replica, False, "crash")
        if experiment.restart_after is not None:
            yield float(experiment.restart_after)
            self._set_alive(experiment.shard, experiment.replica, True, "restart")

    def _run_correlated(self, experiment: CorrelatedFailure):
        yield float(experiment.at)
        # Victims are snapshotted at fire time, in shard-major slot order
        # -- the deterministic order the stagger offsets are drawn in.
        victims = [
            (shard, slot)
            for shard in range(self.num_shards)
            for slot, server in enumerate(self.replicas[shard])
            if self._domain_of[server.name] == experiment.domain
        ]
        self.timeline.append(
            ChaosEvent(
                time=self.engine.now,
                kind="domain-crash",
                detail=f"domain {experiment.domain}: {len(victims)} host(s)",
            )
        )
        offsets = [0.0] * len(victims)
        if experiment.stagger > 0.0 and self._corr_rng is not None:
            offsets = [
                float(self._corr_rng.uniform(0.0, experiment.stagger))
                for _ in victims
            ]
        for (shard, slot), offset in zip(victims, offsets):
            self.engine.process(
                self._run_domain_victim(experiment, shard, slot, offset)
            )

    def _run_domain_victim(
        self, experiment: CorrelatedFailure, shard: int, slot: int, offset: float
    ):
        if offset > 0.0:
            yield offset
        self._set_alive(shard, slot, False, "correlated-crash")
        if experiment.restart_after is not None:
            yield float(experiment.restart_after)
            self._set_alive(shard, slot, True, "restart")

    def live_replicas(self, shard: int) -> int:
        alive = self._alive
        return sum(1 for server in self.replicas[shard] if alive[server.name])

    def is_live(self, server) -> bool:
        return self._alive[server.name]

    # -- routing & degradation --------------------------------------------
    def route(self, shard: int):
        """Next live replica of ``shard`` (round-robin), or ``None``.

        Pure counter arithmetic -- no RNG -- so routing is deterministic
        and, with one live replica, byte-identical to direct addressing.
        """
        servers = self.replicas[shard]
        n = len(servers)
        start = self._round_robin[shard]
        alive = self._alive
        for offset in range(n):
            index = (start + offset) % n
            server = servers[index]
            if alive[server.name]:
                self._round_robin[shard] = (index + 1) % n
                return server
        return None

    def count_retry(self, request_id: int) -> None:
        self.outcomes[request_id][RETRIES] += 1

    def mark_degraded(self, request_id: int) -> None:
        self.outcomes[request_id][DEGRADED] += 1

    # -- service & network perturbation -----------------------------------
    def _run_straggler(self, experiment: StragglerShard):
        yield float(experiment.start)
        self._active_stragglers.append(experiment)
        self.timeline.append(
            ChaosEvent(
                time=self.engine.now,
                kind="straggler-start",
                shard=experiment.shard,
                detail=f"x{experiment.multiplier:g}",
            )
        )
        yield float(experiment.duration)
        self._active_stragglers.remove(experiment)
        self.timeline.append(
            ChaosEvent(
                time=self.engine.now,
                kind="straggler-end",
                shard=experiment.shard,
            )
        )

    def _run_spike(self, experiment: NetworkSpike):
        yield float(experiment.start)
        self._active_spikes.append(experiment)
        self.timeline.append(
            ChaosEvent(
                time=self.engine.now,
                kind="spike-start",
                detail=(
                    f"x{experiment.multiplier:g}"
                    f"+{experiment.extra_latency * 1e6:g}us"
                ),
            )
        )
        yield float(experiment.duration)
        self._active_spikes.remove(experiment)
        self.timeline.append(
            ChaosEvent(time=self.engine.now, kind="spike-end")
        )

    def scale_service(self, shard: int, delay: float, server=None) -> float:
        """Apply active straggler multipliers to a shard-side delay.

        ``server`` identifies which replica is doing the work: a
        replica-scoped straggler (``StragglerShard.replica`` set) only
        slows that slot, so a hedged attempt on a sibling replica runs
        at full speed.  ``server=None`` keeps the historical shard-wide
        behaviour.
        """
        for straggler in self._active_stragglers:
            if straggler.shard != shard:
                continue
            if straggler.replica is not None and server is not None:
                slots = self.replicas[shard]
                if (
                    straggler.replica >= len(slots)
                    or slots[straggler.replica] is not server
                ):
                    continue
            delay *= straggler.multiplier
        return delay

    def network_delay(self, delay: float) -> float:
        """Apply active network spikes to an RPC one-way delay.

        Spike jitter draws from the dedicated chaos substream, never from
        the healthy fabric's jitter stream; with no active spike this is
        an exact identity.
        """
        for spike in self._active_spikes:
            delay = delay * spike.multiplier + spike.extra_latency
            if spike.jitter_sigma > 0.0 and self._spike_rng is not None:
                delay *= math.exp(
                    float(self._spike_rng.normal(0.0, spike.jitter_sigma))
                )
        return delay

    # -- self-healing controller -------------------------------------------
    def controller_horizon(self, policy: HealingPolicy) -> float:
        """Last heartbeat worth taking: after every scheduled fault has
        fired, been detectable, and had time to recover, plus slack."""
        return (
            self.schedule.horizon()
            + policy.detection_lag()
            + policy.recovery_lag
            + 2.0 * policy.check_interval
        )

    def _run_controller(self, policy: HealingPolicy):
        interval = float(policy.check_interval)
        horizon = self.controller_horizon(policy)
        elapsed = 0.0
        while elapsed + interval <= horizon:
            yield interval
            elapsed += interval
            self._heartbeat(policy)

    def _heartbeat(self, policy: HealingPolicy) -> None:
        target = self.schedule.replicas
        for shard in range(self.num_shards):
            live = self.live_replicas(shard)
            deficit = target - live - self._pending_heals.get(shard, 0)
            if deficit <= 0:
                self._misses[shard] = 0
                continue
            misses = self._misses.get(shard, 0) + 1
            self._misses[shard] = misses
            if misses < policy.consecutive_misses:
                continue
            self._misses[shard] = 0
            for _ in range(deficit):
                self._pending_heals[shard] = (
                    self._pending_heals.get(shard, 0) + 1
                )
                self.timeline.append(
                    ChaosEvent(
                        time=self.engine.now,
                        kind="detected",
                        shard=shard,
                        detail=f"{live}/{target} live",
                    )
                )
                self.engine.process(self._run_recovery(shard, policy))

    def _run_recovery(self, shard: int, policy: HealingPolicy):
        if policy.recovery_lag > 0.0:
            yield float(policy.recovery_lag)
        self._heal_seq += 1
        name = f"sparse-{shard}-h{self._heal_seq}"
        server = self.make_server(name)
        self.replicas[shard].append(server)
        self._domain_of[name] = self.domain_for(
            shard, len(self.replicas[shard]) - 1
        )
        self._alive[name] = True
        self._pending_heals[shard] -= 1
        self.timeline.append(
            ChaosEvent(
                time=self.engine.now,
                kind="healed",
                shard=shard,
                server=name,
                detail=f"{self.live_replicas(shard)} live replica(s)",
            )
        )
