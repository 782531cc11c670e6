"""Server platform specifications (paper Section V-B).

Two server classes are characterized in the paper:

* **SC-Large** -- a typical large data-center server: 256 GB DRAM, two
  20-core CPUs, higher clocks and more network bandwidth.
* **SC-Small** -- a typical efficient web server: 64 GB DRAM, two slower
  18-core CPUs, and less network bandwidth.

The key modeling detail behind the paper's Figure 15 is that embedding
lookups are bound by DRAM *access latency* (pointer-chase style gathers),
which is nearly identical across the two classes, while dense compute
scales with core clock.  The specs below encode that distinction.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from repro.core.types import (
    GIB,
    check_fields,
    checked,
    count,
    finite_non_negative,
    positive,
)


@dataclass(frozen=True)
class Platform:
    """Hardware description consumed by the cost model.

    Attributes:
        name: Display name.
        cores: Worker cores available to the serving process.
        dram_capacity: Usable DRAM for model parameters, in bytes.
        clock_ghz: Core clock; scales dense/serde compute throughput.
        mem_bandwidth: Streaming DRAM bandwidth in bytes/second.
        dram_access_ns: Random-access latency for one dependent cache-line
            fetch, in nanoseconds.  Dominates embedding-lookup cost and is
            roughly platform-independent across the two classes.
        nic_bandwidth: Network interface bandwidth in bytes/second.
    """

    name: str
    cores: int = checked(count)
    dram_capacity: float = checked(positive)
    clock_ghz: float = checked(positive)
    mem_bandwidth: float = checked(positive)
    dram_access_ns: float = checked(finite_non_negative)
    nic_bandwidth: float = checked(positive)

    def __post_init__(self):
        check_fields(self, f"platform {self.name!r}: ")

    @functools.cached_property
    def relative_clock(self) -> float:
        """Clock relative to SC-Large; scales CPU-bound cost terms."""
        return self.clock_ghz / SC_LARGE.clock_ghz


SC_LARGE = Platform(
    name="SC-Large",
    cores=40,
    dram_capacity=256 * GIB,
    clock_ghz=2.5,
    mem_bandwidth=85e9,
    dram_access_ns=78.0,
    nic_bandwidth=3.125e9,  # 25 Gbps
)

SC_SMALL = Platform(
    name="SC-Small",
    cores=36,
    dram_capacity=64 * GIB,
    clock_ghz=2.0,
    mem_bandwidth=60e9,
    dram_access_ns=82.0,
    nic_bandwidth=1.25e9,  # 10 Gbps
)

PLATFORMS = {platform.name: platform for platform in (SC_LARGE, SC_SMALL)}
