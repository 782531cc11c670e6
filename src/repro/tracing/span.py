"""Trace spans for the cross-layer instrumentation framework (paper Sec. IV).

The paper adds trace points at three layers of the serving stack -- the
RPC service (Thrift), the ML framework (Caffe2), and the ML operators --
on every shard, and logs wall-clock timestamps plus per-request CPU time.
A :class:`Span` is one instrumented interval:

* ``start``/``end`` are **wall-clock** times *as stamped by the recording
  server*, i.e. including that server's clock skew.  Durations of spans on
  the same server are skew-free; cross-server comparisons must use the
  duration-difference method (Section IV-B), which the attribution module
  implements.
* ``cpu_time`` is the core occupancy attributed to the span (the paper
  logs per-shard CPU time per request to validate wall-clock proxies).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.types import OpCategory

MAIN_SHARD = -1
"""Shard index used for the main (dense) shard in spans."""


class Layer(enum.Enum):
    """Instrumentation layer of a span."""

    SERVICE = "service"
    """RPC service handler work (request routing, boilerplate)."""

    SERDE = "serde"
    """Request/response serialization or deserialization."""

    NET_OVERHEAD = "net-overhead"
    """ML-framework time not spent in operators (scheduling etc.)."""

    OPERATOR = "operator"
    """ML operator execution; ``category`` identifies the group."""

    RPC_CLIENT = "rpc-client"
    """Outstanding remote call measured at the calling shard."""

    EMBEDDED = "embedded"
    """The embedded portion: local sparse ops (singular) or the window
    from RPC issue to last response (distributed), per net per batch."""

    BATCH = "batch"
    """One batch's end-to-end execution window on the main shard."""


@dataclass(slots=True)
class Span:
    """One instrumented interval of one request.

    ``slots=True``: simulations allocate one Span per instrumented
    interval (hundreds per request), so the per-instance dict is worth
    eliminating -- see ``benchmarks/test_perf_throughput.py``.
    """

    request_id: int
    shard: int
    server: str
    layer: Layer
    name: str
    start: float
    end: float
    cpu_time: float = 0.0
    category: OpCategory | None = None
    net: str | None = None
    batch: int | None = None
    rpc_id: int | None = None

    @property
    def duration(self) -> float:
        """Wall-clock duration (skew-free: start/end share a server)."""
        return self.end - self.start

    def __post_init__(self):
        if self.end < self.start:
            raise ValueError(
                f"span {self.name}: end {self.end} precedes start {self.start}"
            )


class Tracer:
    """Collects spans, grouped by request for post-processing.

    ``pop_request`` hands a request's spans to the attribution pipeline and
    frees them -- full experiment sweeps process millions of spans and are
    attributed incrementally, mirroring the paper's asynchronous flush of
    trace buffers to offline analysis.
    """

    def __init__(self):
        self._by_request: dict[int, list[Span]] = {}
        self.spans_recorded = 0

    def record(self, span: Span) -> None:
        self._by_request.setdefault(span.request_id, []).append(span)
        self.spans_recorded += 1

    def record_interval(
        self,
        request_id: int,
        shard: int,
        server,
        layer: Layer,
        name: str,
        start: float,
        end: float,
        cpu: float = 0.0,
        category: OpCategory | None = None,
        net: str | None = None,
        batch: int | None = None,
        rpc_id: int | None = None,
    ) -> None:
        """Record one instrumented interval straight from the simulator.

        ``start``/``end`` are engine times; the span is stamped with the
        recording ``server``'s wall clock (engine time + skew), exactly as
        that server would log it.  This is the single tracer entry point
        the serving layer calls -- :class:`AggregatingTracer
        <repro.tracing.aggregate.AggregatingTracer>` implements the same
        signature without materializing ``Span`` objects.
        """
        skew = server.clock_skew
        self.record(
            Span(
                request_id=request_id,
                shard=shard,
                server=server.name,
                layer=layer,
                name=name,
                start=start + skew,
                end=end + skew,
                cpu_time=cpu,
                category=category,
                net=net,
                batch=batch,
                rpc_id=rpc_id,
            )
        )

    def for_request(self, request_id: int) -> list[Span]:
        return list(self._by_request.get(request_id, []))

    def pop_request(self, request_id: int) -> list[Span]:
        return self._by_request.pop(request_id, [])

    def request_ids(self) -> list[int]:
        return sorted(self._by_request)

    def in_flight(self) -> int:
        """Number of requests whose spans are still buffered."""
        return len(self._by_request)

    def drain_incomplete(self) -> list[int]:
        """Free spans of requests that never completed; return their ids.

        Timed-out or abandoned requests are only ever freed via
        ``pop_request`` on completion, so a long replay would otherwise
        accumulate their spans for its whole lifetime.  The replay drivers
        call this once the event heap drains (when completions are being
        consumed incrementally) so a finished run holds no spans.
        """
        stale = sorted(self._by_request)
        self._by_request.clear()
        return stale

    def assert_drained(self) -> None:
        """Raise if any request's spans are still buffered."""
        if self._by_request:
            held = sorted(self._by_request)
            raise RuntimeError(
                f"tracer still holds spans for {len(held)} request(s): "
                f"{held[:8]}{'...' if len(held) > 8 else ''}"
            )

    def clear(self) -> None:
        self._by_request.clear()
