"""Discrete-event simulation substrate: kernel, platforms, network, costs."""

from repro.simulation.engine import (
    DEFAULT_KERNEL,
    KERNELS,
    AllOf,
    AnyOf,
    BatchedEngine,
    Engine,
    Event,
    Process,
    Resource,
    SimulationError,
    SyncResource,
    Timeout,
    make_engine,
)
from repro.simulation.network import Fabric, FabricSpec
from repro.simulation.platform import PLATFORMS, SC_LARGE, SC_SMALL, Platform

__all__ = [
    "AllOf",
    "AnyOf",
    "BatchedEngine",
    "DEFAULT_KERNEL",
    "Engine",
    "Event",
    "Fabric",
    "FabricSpec",
    "KERNELS",
    "PLATFORMS",
    "Platform",
    "Process",
    "Resource",
    "SC_LARGE",
    "SC_SMALL",
    "SimulationError",
    "SyncResource",
    "Timeout",
    "make_engine",
]
