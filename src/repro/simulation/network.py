"""Data-center network fabric model.

All inter-shard communication in the paper travels over the standard TCP/IP
stack on the data-center intranet (Section III-C), and the measured
"network latency" bucket includes in-kernel packet processing and
forwarding time (Section VI-B2).  The fabric model therefore charges each
message:

``delay = propagation + kernel + size / min(src_nic, dst_nic) + jitter``

where jitter is lognormal -- long-tailed, as observed in production
fabrics -- and is drawn from a per-fabric seeded stream so experiment runs
are reproducible.  Per-server clock skew is modeled separately (servers
stamp trace points with skewed wall clocks; see :mod:`repro.tracing`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rng import substream
from repro.core.types import US
from repro.simulation.platform import Platform


@dataclass(frozen=True)
class FabricSpec:
    """Tunable parameters of the fabric latency distribution."""

    propagation: float = 15 * US
    """One-way propagation + switching delay between racks."""

    kernel_overhead: float = 8 * US
    """In-kernel packet processing at the two endpoints (combined)."""

    jitter_median: float = 6 * US
    """Median of the lognormal jitter term."""

    jitter_sigma: float = 0.55
    """Log-scale sigma of the jitter term (controls the tail)."""

    def __post_init__(self):
        for name in ("propagation", "kernel_overhead", "jitter_median", "jitter_sigma"):
            value = getattr(self, name)
            if not float(value) >= 0.0:  # also rejects NaN
                raise ValueError(
                    f"FabricSpec.{name} must be non-negative, got {value!r}"
                )


class Fabric:
    """Samples one-way message delays between servers."""

    #: Jitter factors drawn per refill.  A bulk ``normal(size=N)`` draw
    #: consumes the generator's bit stream exactly like ``N`` sequential
    #: scalar draws (the same property the vectorized request generator
    #: relies on), so buffering only changes *when* bits are consumed from
    #: this dedicated substream -- never which jitter a message sees.
    _JITTER_BATCH = 4096

    def __init__(self, spec: FabricSpec | None = None, seed: int = 0):
        self.spec = spec or FabricSpec()
        self._rng = substream(seed, "fabric")
        self._jitter_factors = np.empty(0)
        self._jitter_pos = 0

    def _refill_jitter(self) -> None:
        self._jitter_factors = np.exp(
            self._rng.normal(0.0, self.spec.jitter_sigma, size=self._JITTER_BATCH)
        )
        self._jitter_pos = 0

    def one_way_delay(self, src: Platform, dst: Platform, nbytes: float) -> float:
        """Sample the one-way delay for an ``nbytes`` message src -> dst."""
        spec = self.spec
        wire = nbytes / min(src.nic_bandwidth, dst.nic_bandwidth)
        pos = self._jitter_pos
        if pos >= len(self._jitter_factors):
            self._refill_jitter()
            pos = 0
        self._jitter_pos = pos + 1
        jitter = spec.jitter_median * float(self._jitter_factors[pos])
        return spec.propagation + spec.kernel_overhead + wire + jitter

    def drain_zero_byte_delays(self) -> list[float]:
        """Consume the rest of the jitter buffer as zero-byte delays.

        The vectorized kernel's bulk accessor: refills if the buffer is
        exhausted, converts every remaining factor to the zero-byte
        delay ``one_way_delay(src, dst, 0.0)`` would have returned for it
        (elementwise, so each float is bitwise identical to the scalar
        call), and marks the buffer consumed.  Successive drains walk
        the substream exactly like successive scalar draws.
        """
        if self._jitter_pos >= len(self._jitter_factors):
            self._refill_jitter()
        spec = self.spec
        base = spec.propagation + spec.kernel_overhead + 0.0
        out = (
            base + spec.jitter_median * self._jitter_factors[self._jitter_pos:]
        ).tolist()
        self._jitter_pos = len(self._jitter_factors)
        return out
