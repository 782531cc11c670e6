"""ASCII rendering of a distributed trace (paper Figure 3).

The paper's tracing framework reconstructs "a visualization of events,
resembling Figure 3": a swimlane per shard, showing the main shard's net
execution with asynchronous RPC windows, and each sparse shard's serde /
service / SLS work.  This module renders one request's spans the same
way, with one lane for the request, one per batch on the main shard, and
one per sparse shard.

Lane glyphs::

    =  service handler / request window      #  dense operator
    S  sparse (SLS) operator                 +  serialization
    ~  framework (net) overhead              .  embedded wait (RPC window)
    -  outstanding RPC (client side)

Wall-clock skew note: lanes use each server's stamped wall clock, exactly
like the paper's visualization; with large skews, shard lanes visibly
shift against the main lane, which is why attribution never compares raw
timestamps across servers (Section IV-B).
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.types import OpCategory
from repro.tracing.span import MAIN_SHARD, Layer, Span

_GLYPHS = {
    Layer.SERVICE: "=",
    Layer.SERDE: "+",
    Layer.NET_OVERHEAD: "~",
    Layer.EMBEDDED: ".",
    Layer.RPC_CLIENT: "-",
    Layer.BATCH: "=",
}

#: Paint order: later entries overwrite earlier ones within a lane.
_PRECEDENCE = (
    Layer.SERVICE,
    Layer.BATCH,
    Layer.RPC_CLIENT,
    Layer.EMBEDDED,
    Layer.NET_OVERHEAD,
    Layer.SERDE,
    Layer.OPERATOR,
)


def _glyph(span: Span) -> str:
    if span.layer is Layer.OPERATOR:
        return "S" if span.category is OpCategory.SPARSE else "#"
    return _GLYPHS[span.layer]


def _lane_key(span: Span) -> tuple:
    if span.shard == MAIN_SHARD:
        if span.layer in (Layer.SERVICE, Layer.SERDE) and span.batch is None:
            return (0, "main request")
        if span.layer is Layer.RPC_CLIENT:
            return (1, f"main batch {span.batch} rpcs")
        return (1, f"main batch {span.batch}")
    return (2, f"sparse shard {span.shard + 1}")


def render_trace(spans: list[Span], width: int = 96) -> str:
    """Render one request's spans as a Figure-3-style timeline."""
    if not spans:
        raise ValueError("no spans to render")
    t0 = min(span.start for span in spans)
    t1 = max(span.end for span in spans)
    window = max(t1 - t0, 1e-12)
    scale = width / window

    lanes: dict[tuple, list[Span]] = defaultdict(list)
    for span in spans:
        lanes[_lane_key(span)].append(span)

    order = {layer: i for i, layer in enumerate(_PRECEDENCE)}
    lines = []
    label_width = max(len(label) for _, label in lanes)
    for (_, label), lane_spans in sorted(lanes.items()):
        row = [" "] * width
        lane_spans.sort(key=lambda s: order.get(s.layer, 0))
        for span in lane_spans:
            begin = int((span.start - t0) * scale)
            end = max(begin + 1, int((span.end - t0) * scale))
            glyph = _glyph(span)
            for column in range(begin, min(end, width)):
                row[column] = glyph
        lines.append(f"{label.ljust(label_width)} |{''.join(row)}|")

    legend = (
        "legend: = service  # dense op  S sparse op  + serde  ~ net overhead  "
        ". rpc wait  - outstanding rpc"
    )
    duration_note = f"window: {window * 1e3:.3f} ms"
    return "\n".join([legend, duration_note] + lines)
