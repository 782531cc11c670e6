"""Chaos layer: deterministic fault injection, failover, self-healing.

The paper sizes scale-out deployments for latency SLAs on a *healthy*
fleet; this package asks the production question behind capacity-driven
scale-out -- how many replicas keep N-nines SLO retention when hosts
crash mid-replay, shards straggle, and the network spikes.

* :mod:`repro.chaos.faults` -- composable, validated fault experiments
  (:class:`~repro.chaos.faults.FaultSchedule`) attached to a
  :class:`~repro.serving.simulator.ServingConfig`, including correlated
  fault domains (:class:`~repro.chaos.faults.CorrelatedFailure`) and
  domain-aware replica placement (spread vs packed);
* :mod:`repro.chaos.runtime` -- the in-simulation interpreter: replica
  routing, liveness, degradation accounting, the healing controller;
* :mod:`repro.chaos.availability` -- availability/SLO-retention reports
  and arrival-binned timelines;
* :mod:`repro.chaos.experiment` -- replica sweeps under a fault suite
  (:func:`~repro.chaos.experiment.availability_sweep`), fanned out over
  worker processes, byte-identical for every worker count.

Determinism contract (see :mod:`repro.core.rng`): every chaos random
draw comes from dedicated ``substream(seed, "chaos", ...)`` substreams
and fault times are explicit simulation times, so the healthy replay --
and any replay with an empty schedule -- stays byte-identical to a run
without the chaos layer at all.
"""

from repro.chaos.availability import (
    AvailabilityReport,
    AvailabilityWindow,
    ChaosEvent,
    availability_report,
    format_timeline,
    nines,
)
from repro.chaos.experiment import (
    AvailabilityAssessment,
    ChaosOutcome,
    availability_sweep,
    format_assessment,
)
from repro.chaos.faults import (
    PLACEMENTS,
    CorrelatedFailure,
    FaultExperiment,
    FaultSchedule,
    HealingPolicy,
    HostCrash,
    NetworkSpike,
    StragglerShard,
)
from repro.chaos.runtime import ChaosRuntime

__all__ = [
    "AvailabilityAssessment",
    "AvailabilityReport",
    "AvailabilityWindow",
    "ChaosEvent",
    "ChaosOutcome",
    "ChaosRuntime",
    "CorrelatedFailure",
    "FaultExperiment",
    "FaultSchedule",
    "HealingPolicy",
    "HostCrash",
    "NetworkSpike",
    "PLACEMENTS",
    "StragglerShard",
    "availability_report",
    "availability_sweep",
    "format_assessment",
    "format_timeline",
    "nines",
]
