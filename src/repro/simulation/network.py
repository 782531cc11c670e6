"""Data-center network fabric model.

All inter-shard communication in the paper travels over the standard TCP/IP
stack on the data-center intranet (Section III-C), and the measured
"network latency" bucket includes in-kernel packet processing and
forwarding time (Section VI-B2).  A message is delayed by

``delay = egress + propagation + kernel + jitter``

where ``egress`` is the sender's NIC reservation -- queueing behind its
in-flight messages, then the message's wire time, a column of the
execution plan (:func:`repro.simulation.costmodel.wire_time`) -- and the
fabric model here supplies the rest, the zero-byte delay.  Jitter is
lognormal -- long-tailed, as observed in production fabrics -- and is
drawn from a per-fabric seeded stream so experiment runs are
reproducible.  Per-server clock skew is modeled separately (servers
stamp trace points with skewed wall clocks; see :mod:`repro.tracing`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.rng import substream
from repro.core.types import (
    US,
    check_fields,
    checked,
    finite_non_negative,
)


@dataclass(frozen=True)
class FabricSpec:
    """Tunable parameters of the fabric latency distribution."""

    propagation: float = checked(finite_non_negative, 15 * US)
    """One-way propagation + switching delay between racks."""

    kernel_overhead: float = checked(finite_non_negative, 8 * US)
    """In-kernel packet processing at the two endpoints (combined)."""

    jitter_median: float = checked(finite_non_negative, 6 * US)
    """Median of the lognormal jitter term."""

    jitter_sigma: float = checked(finite_non_negative, 0.55)
    """Log-scale sigma of the jitter term (controls the tail)."""

    def __post_init__(self):
        check_fields(self, "FabricSpec.")


class Fabric:
    """Samples zero-byte one-way message delays between servers.

    Delays are read through one cursor, ``(window, _jitter_pos)``: the
    jitter substream is drawn in windows of :attr:`_JITTER_BATCH` delays,
    window 0 holds the next unread delay at ``_jitter_pos``, and later
    windows are drawn on first use.  :meth:`one_way_delay` reads one
    delay and advances the cursor; the vectorized kernel reads ahead
    through :meth:`zero_byte_delays` and moves the cursor with
    :meth:`seek` only once it commits a request -- so an evaluation it
    abandons leaves the cursor exactly where the DES will start reading.
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
        #: Drawn windows of zero-byte delays, oldest first.  The empty
        #: first window is exhausted at position 0, so the first read
        #: draws -- the substream is untouched until a message needs it.
        self._windows: list[list[float]] = [[]]
        self._jitter_pos = 0

    def zero_byte_delays(self, window: int) -> list[float]:
        """Zero-byte one-way delays of jitter window ``window``:
        ``propagation + kernel_overhead + jitter`` per draw.

        Window 0 holds the cursor; later windows are drawn on first use.
        A drawn delay that is not finite (the lognormal overflowed)
        raises ``ValueError``.
        """
        spec = self.spec
        windows = self._windows
        while len(windows) <= window:
            draws = self._rng.normal(0.0, spec.jitter_sigma, size=self._JITTER_BATCH)
            with np.errstate(over="ignore", invalid="ignore"):
                delays = (
                    spec.propagation + spec.kernel_overhead
                    + spec.jitter_median * np.exp(draws)
                )
            if not np.isfinite(delays).all():
                raise ValueError(
                    f"FabricSpec.jitter_sigma={spec.jitter_sigma!r} drew a "
                    f"non-finite fabric delay (the lognormal jitter overflowed)"
                )
            windows.append(delays.tolist())
        return windows[window]

    def jitter_cursor(self) -> tuple[list[float], int]:
        """Window 0's zero-byte delays and the position of the next unread
        draw in it (the window's length when it is exhausted)."""
        return self._windows[0], self._jitter_pos

    def seek(self, window: int, position: int) -> None:
        """Move the cursor to draw ``position`` of window ``window``,
        releasing the windows before it."""
        del self._windows[:window]
        self._jitter_pos = position

    def one_way_delay(self) -> float:
        """Read the next zero-byte one-way delay and advance the cursor."""
        pos = self._jitter_pos
        if pos == len(self._windows[0]):
            self.zero_byte_delays(1)
            self.seek(1, 0)
            pos = 0
        self._jitter_pos = pos + 1
        return self._windows[0][pos]
