"""Cross-layer distributed tracing: spans, tracer, attribution.

Every experiment run is attributed by the span-free aggregate
accumulator (:class:`~repro.tracing.aggregate.AggregatingTracer`), which
produces every column a figure reads.  Spans (:class:`Span`,
:class:`Tracer`) are an opt-in sink for code that reads them -- trace
rendering and Fig 3 -- and :func:`attribute_request` over them is the
independent oracle the accumulator is tested against.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "aggregate": ("AggregatingTracer", "TraceMode"),
        "attribution": (
            "CPU_BUCKETS",
            "CPU_OPS",
            "CPU_SERVICE",
            "DENSE_OPS",
            "E2E_BUCKETS",
            "EMBEDDED_BUCKETS",
            "EMBEDDED_PORTION",
            "NET_OVERHEAD",
            "NETWORK_LATENCY",
            "RPC_SERDE",
            "RPC_SERVICE",
            "SPARSE_OPS",
            "AttributionError",
            "RequestAttribution",
            "attribute_request",
        ),
        "span": ("MAIN_SHARD", "Layer", "Span", "Tracer"),
        "visualize": ("render_trace",),
    },
)
__all__ = list(_EXPORTS)
