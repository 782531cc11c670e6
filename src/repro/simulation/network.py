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
from repro.core.types import US, check_fields, checked, non_negative
from repro.simulation.platform import Platform


@dataclass(frozen=True)
class FabricSpec:
    """Tunable parameters of the fabric latency distribution."""

    propagation: float = checked(non_negative, 15 * US)
    """One-way propagation + switching delay between racks."""

    kernel_overhead: float = checked(non_negative, 8 * US)
    """In-kernel packet processing at the two endpoints (combined)."""

    jitter_median: float = checked(non_negative, 6 * US)
    """Median of the lognormal jitter term."""

    jitter_sigma: float = checked(non_negative, 0.55)
    """Log-scale sigma of the jitter term (controls the tail)."""

    def __post_init__(self):
        check_fields(self, "FabricSpec.")


class Fabric:
    """Samples one-way message delays between servers.

    Jitter is read through one cursor, ``(window, _jitter_pos)``: the
    substream is drawn in windows of :attr:`_JITTER_BATCH` factors, window
    0 holds the next unread draw at ``_jitter_pos``, and later windows are
    drawn on first use.  :meth:`one_way_delay` reads one draw and advances
    the cursor; the vectorized kernel reads ahead through
    :meth:`zero_byte_delays` and moves the cursor with :meth:`seek` only
    once it commits a request -- so an evaluation it abandons leaves the
    cursor exactly where the DES will start drawing.
    """

    #: Jitter factors drawn per window.  A bulk ``normal(size=N)`` draw
    #: consumes the generator's bit stream exactly like ``N`` sequential
    #: scalar draws (the same property the vectorized request generator
    #: relies on), so windowing only changes *when* bits are consumed from
    #: this dedicated substream -- never which jitter a message sees.
    _JITTER_BATCH = 4096

    def __init__(self, spec: FabricSpec | None = None, seed: int = 0):
        self.spec = spec or FabricSpec()
        self._rng = substream(seed, "fabric")
        # The zero-byte delay expression of one_way_delay, minus jitter.
        self._zero_base = self.spec.propagation + self.spec.kernel_overhead + 0.0
        #: Drawn windows, oldest first: (jitter factors, zero-byte delays).
        #: The empty first window is exhausted at position 0, so the first
        #: read draws -- the substream is untouched until a message needs it.
        self._windows: list[tuple[list[float], list[float]]] = [([], [])]
        self._jitter_pos = 0

    def zero_byte_delays(self, window: int) -> list[float]:
        """Zero-byte one-way delays of jitter window ``window``.

        Window 0 holds the cursor; later windows are drawn on first use.
        Element ``k`` is bitwise the float ``one_way_delay(src, dst, 0.0)``
        returns for that draw (computed elementwise from the same factor).
        """
        windows = self._windows
        while len(windows) <= window:
            factors = np.exp(
                self._rng.normal(0.0, self.spec.jitter_sigma, size=self._JITTER_BATCH)
            )
            windows.append((
                factors.tolist(),
                (self._zero_base + self.spec.jitter_median * factors).tolist(),
            ))
        return windows[window][1]

    def jitter_cursor(self) -> tuple[list[float], int]:
        """Window 0's zero-byte delays and the position of the next unread
        draw in it (the window's length when it is exhausted)."""
        return self._windows[0][1], self._jitter_pos

    def seek(self, window: int, position: int) -> None:
        """Move the cursor to draw ``position`` of window ``window``,
        releasing the windows before it."""
        del self._windows[:window]
        self._jitter_pos = position

    def one_way_delay(self, src: Platform, dst: Platform, nbytes: float) -> float:
        """Sample the one-way delay for an ``nbytes`` message src -> dst."""
        spec = self.spec
        wire = nbytes / min(src.nic_bandwidth, dst.nic_bandwidth)
        pos = self._jitter_pos
        if pos == len(self._windows[0][0]):
            self.zero_byte_delays(1)
            self.seek(1, 0)
            pos = 0
        self._jitter_pos = pos + 1
        jitter = spec.jitter_median * self._windows[0][0][pos]
        return spec.propagation + spec.kernel_overhead + wire + jitter
