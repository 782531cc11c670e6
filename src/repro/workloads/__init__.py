"""Workload subsystem: what arrives, when, and for which model.

Composable arrival processes (:mod:`repro.workloads.arrivals`), the
:class:`Workload` / :class:`WorkloadMix` binding of models to request
generators and arrival streams, and the correlated sparse-ID stream that
closes the loop into the caching analysis.  ``ReplaySchedule`` in
:mod:`repro.requests.replayer` is a thin frozen facade over this package.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arrivals": (
            "ArrivalProcess",
            "ConstantRateArrivals",
            "MMPPArrivals",
            "PiecewiseRateArrivals",
            "PoissonArrivals",
            "SerialArrivals",
            "diurnal_qps_curve",
        ),
        "workload": ("MixedStream", "Workload", "WorkloadMix"),
        "repro.requests.access_trace": ("CorrelatedStream",),
    },
)
__all__ = list(_EXPORTS)
