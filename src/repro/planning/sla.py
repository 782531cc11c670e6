"""SLA accounting and fallback-drop modeling (paper Section II).

"In order to provide a satisfactory user experience, recommendation
results are expected within a timed window.  This strict latency
constraint defines the service-level agreement (SLA).  If SLA targets
cannot be satisfied, the inference request is dropped in favor of a
potentially lower quality recommendation result."

This module evaluates measured latency samples against an SLA policy:
what fraction of requests would have fallen back, per configuration --
the serving-quality lens on the latency overheads of Figures 6/7/16, and
the feasibility test of the closed-loop capacity planner
(:mod:`repro.planning.capacity`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.types import check_fields, checked, positive


@dataclass(frozen=True)
class SlaPolicy:
    """A latency SLA: requests slower than ``target_latency`` fall back."""

    target_latency: float = checked(positive)

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_baseline_quantile(
        cls, baseline_latencies, quantile: float = 99.0, slack: float = 1.2
    ) -> "SlaPolicy":
        """Derive an SLA from a baseline configuration's tail, with slack.

        Production SLAs are set so the healthy configuration comfortably
        meets them; ``slack`` models that headroom.
        """
        samples = np.asarray(baseline_latencies, float)
        if samples.size == 0:
            raise ValueError(
                "baseline_latencies must be non-empty to derive an SLA"
            )
        if not 0 < quantile <= 100:
            raise ValueError(f"quantile must be in (0, 100], got {quantile!r}")
        positive.check("slack", slack)
        target = float(np.percentile(samples, quantile))
        return cls(target_latency=target * slack)


@dataclass(frozen=True)
class SlaReport:
    """Fallback statistics of one configuration under one policy."""

    label: str
    drop_rate: float
    met_p99: bool
    headroom_p50: float
    """target / P50 -- how much room the median request has."""


def evaluate_sla(label: str, latencies, policy: SlaPolicy) -> SlaReport:
    """Fraction of requests exceeding the SLA window."""
    samples = np.asarray(latencies, dtype=float)
    if samples.size == 0:
        raise ValueError("no latency samples")
    drops = float(np.mean(samples > policy.target_latency))
    return SlaReport(
        label=label,
        drop_rate=drops,
        met_p99=float(np.percentile(samples, 99)) <= policy.target_latency,
        headroom_p50=policy.target_latency / float(np.percentile(samples, 50)),
    )
