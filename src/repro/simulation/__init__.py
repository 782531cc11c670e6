"""Discrete-event simulation substrate: kernel, platforms, network, costs."""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "DEFAULT_KERNEL",
            "KERNELS",
            "AllOf",
            "AnyOf",
            "Engine",
            "Event",
            "Process",
            "Resource",
            "SimulationError",
            "Timeout",
        ),
        "network": ("Fabric", "FabricSpec"),
        "platform": ("PLATFORMS", "SC_LARGE", "SC_SMALL", "Platform"),
    },
)
__all__ = list(_EXPORTS)
