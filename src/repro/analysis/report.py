"""Plain-text rendering of reproduced tables and figures.

Every benchmark prints its artifact through these helpers so that the
regenerated "figures" are readable in CI logs and saved under
``results/`` as aligned text tables (the repository has no plotting
dependency by design).
"""

from __future__ import annotations

import os
from typing import Sequence

from repro.core.types import GIB


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned text table."""
    cells = [[str(h) for h in headers]] + [[_fmt(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(cells[0], widths)))
    lines.append(sep)
    for row in cells[1:]:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell != 0 and abs(cell) < 0.01:
            return f"{cell:.2e}"
        return f"{cell:,.3f}"
    return str(cell)


def format_stack_bars(
    stacks: dict[str, dict[str, float]],
    buckets: Sequence[str],
    title: str = "",
    width: int = 44,
) -> str:
    """Render normalized stacked bars as text (one row per configuration).

    Bars are normalized to the tallest configuration, mirroring the
    paper's normalized stack figures.
    """
    totals = {label: sum(stack.values()) for label, stack in stacks.items()}
    peak = max(totals.values()) or 1.0
    glyphs = "#=+:~o*%@"
    lines = []
    if title:
        lines.append(title)
    legend = "  ".join(
        f"[{glyphs[i % len(glyphs)]}] {bucket}" for i, bucket in enumerate(buckets)
    )
    lines.append(legend)
    label_width = max(len(label) for label in stacks)
    for label, stack in stacks.items():
        bar = []
        for i, bucket in enumerate(buckets):
            chars = round(stack.get(bucket, 0.0) / peak * width)
            bar.append(glyphs[i % len(glyphs)] * chars)
        lines.append(
            f"{label.ljust(label_width)} |{''.join(bar)}  ({totals[label] / peak:.2f})"
        )
    return "\n".join(lines)


def capacity_candidate_rows(candidates) -> list[tuple]:
    """Table rows for a capacity-planning candidate list (one row per
    evaluated (configuration, utilization) point).

    Shared by the ``repro plan`` CLI and ``examples/capacity_planning.py``
    so the two renderings of a :class:`~repro.planning.capacity.MixPlan`
    cannot drift.  Headers: configuration, util, servers, pinned GiB,
    fits DRAM, meets SLA, worst drop.
    """
    return [
        (
            candidate.label,
            f"{candidate.utilization_target:.0%}",
            candidate.total_servers,
            round(candidate.total_memory_bytes / GIB, 1),
            "yes" if candidate.fits_memory else "NO",
            "yes" if candidate.meets_sla else "NO",
            f"{candidate.worst_drop_rate:.1%}",
        )
        for candidate in candidates
    ]


CAPACITY_CANDIDATE_HEADERS = [
    "configuration", "util", "servers", "pinned GiB", "fits DRAM",
    "meets SLA", "worst drop",
]


def capacity_sizing_rows(sizings) -> list[tuple]:
    """Table rows for a chosen candidate's per-workload sizings.

    Headers: workload, model, peak QPS, main replicas, sparse
    replicas/shard, standalone GiB, drop rate, P50 headroom.
    """
    return [
        (
            sizing.workload,
            sizing.model_name,
            round(sizing.qps, 1),
            sizing.standalone.main_replicas,
            " ".join(
                str(count)
                for _, count in sorted(sizing.standalone.sparse_replicas.items())
            )
            or "-",
            round(sizing.standalone.total_memory_bytes / GIB, 1),
            f"{sizing.sla.drop_rate:.1%}",
            f"{sizing.sla.headroom_p50:.2f}x",
        )
        for sizing in sizings
    ]


CAPACITY_SIZING_HEADERS = [
    "workload", "model", "peak QPS", "main replicas", "sparse replicas/shard",
    "standalone GiB", "drop rate", "P50 headroom",
]


def save_artifact(name: str, content: str) -> str:
    """Write an artifact under ``results/`` and return its path."""
    directory = os.environ.get("REPRO_RESULTS_DIR", "results")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(content)
        handle.write("\n")
    return path
