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

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "availability": (
            "AvailabilityReport",
            "AvailabilityWindow",
            "ChaosEvent",
            "availability_report",
            "format_timeline",
            "nines",
        ),
        "experiment": (
            "AvailabilityAssessment",
            "ChaosOutcome",
            "availability_sweep",
            "fault_schedules",
            "format_assessment",
        ),
        "faults": (
            "PLACEMENTS",
            "CorrelatedFailure",
            "FaultExperiment",
            "FaultSchedule",
            "HealingPolicy",
            "HostCrash",
            "NetworkSpike",
            "StragglerShard",
        ),
        "runtime": ("ChaosRuntime",),
    },
)
__all__ = list(_EXPORTS)
