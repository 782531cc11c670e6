"""Generators for every table and figure in the paper's evaluation.

Each function consumes :class:`~repro.experiments.runner.RunResult` maps
(and/or model configs) and produces a :class:`FigureArtifact`: a printable
text rendering plus the structured data the benchmark suite asserts on.
The EXPERIMENTS.md index maps each function to its paper artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.quantiles import (
    QUANTILES,
    median_window_mean_columns,
    overhead_vs_baseline,
)
from repro.analysis.report import format_stack_bars, format_table
from repro.compression.pipeline import CompressionReport
from repro.core.types import GIB, OpCategory
from repro.models.config import ModelConfig
from repro.models.growth import growth_factor, growth_series
from repro.experiments.runner import RunResult, sequential_sum
from repro.sharding.plan import SINGULAR, ShardingPlan
from repro.sharding.pooling import pooling_by_shard
from repro.tracing.attribution import (
    CPU_BUCKETS,
    E2E_BUCKETS,
    EMBEDDED_BUCKETS,
)


@dataclass
class FigureArtifact:
    """One regenerated paper artifact."""

    name: str
    title: str
    text: str
    data: dict = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"== {self.title} ==\n{self.text}"


def _singular(results: dict[str, RunResult]) -> RunResult:
    try:
        return results[SINGULAR]
    except KeyError:
        raise KeyError("results must include the singular baseline") from None


# -- Figure 1 -------------------------------------------------------------------
def fig1_model_growth() -> FigureArtifact:
    """Historical model growth: features and capacity, ~10x in 3 years."""
    points = growth_series()
    features_x, capacity_x = growth_factor(points)
    rows = [
        (p.quarter, p.num_sparse_features, p.embedding_bytes / GIB) for p in points
    ]
    text = format_table(
        ["quarter", "sparse features", "embedding GiB"], rows,
        title="Figure 1: production recommendation model growth",
    )
    text += f"\n=> growth over {points[-1].years_since_start:.1f} years: "
    text += f"features {features_x:.1f}x, capacity {capacity_x:.1f}x"
    return FigureArtifact(
        "fig1", "Model growth", text,
        {"features_x": features_x, "capacity_x": capacity_x, "points": points},
    )


# -- Figure 4 -------------------------------------------------------------------
def fig4_operator_attribution(
    singular_results: dict[str, RunResult], models: dict[str, ModelConfig]
) -> FigureArtifact:
    """Normalized operator-compute attribution per model (singular runs).

    Sparse share is measured from simulated operator CPU; the non-sparse
    remainder is split across categories by each model's op mix.
    """
    shares: dict[str, dict[str, float]] = {}
    for name, result in singular_results.items():
        sparse = sequential_sum(result.sparse_op_cpu)
        dense = sequential_sum(result.dense_op_cpu)
        total = sparse + dense
        mix = models[name].nets[0].op_mix
        model_shares = {"Sparse": sparse / total}
        for category, fraction in mix.items():
            model_shares[category.value] = fraction * dense / total
        shares[name] = model_shares
    categories = [OpCategory.SPARSE.value] + [
        c.value for c in next(iter(models.values())).nets[0].op_mix
    ]
    categories = ["Sparse"] + [c for c in categories if c != "Sparse"]
    rows = [
        [name] + [round(shares[name].get(c, 0.0), 4) for c in categories]
        for name in shares
    ]
    text = format_table(
        ["model"] + categories, rows,
        title="Figure 4: operator compute attribution (fraction of op time)",
    )
    return FigureArtifact("fig4", "Operator attribution", text, {"shares": shares})


# -- Figure 5 -------------------------------------------------------------------
def fig5_table_size_distribution(models: dict[str, ModelConfig]) -> FigureArtifact:
    """Embedding-table size distributions (count, total, largest, tail)."""
    rows = []
    data = {}
    for name, model in models.items():
        sizes = np.array(sorted((t.nbytes for t in model.tables), reverse=True))
        dominant_share = sizes[0] / sizes.sum()
        rows.append(
            (
                name,
                len(sizes),
                sizes.sum() / GIB,
                sizes[0] / GIB,
                float(np.median(sizes)) / GIB,
                round(dominant_share, 3),
            )
        )
        data[name] = {
            "count": len(sizes),
            "total_gib": sizes.sum() / GIB,
            "largest_gib": sizes[0] / GIB,
            "dominant_share": dominant_share,
        }
    text = format_table(
        ["model", "tables", "total GiB", "largest GiB", "median GiB", "largest/total"],
        rows,
        title="Figure 5: embedding table size distribution",
    )
    return FigureArtifact("fig5", "Table size distribution", text, data)


# -- Table II -------------------------------------------------------------------
def table2_sharding_results(
    model: ModelConfig,
    plans: dict[str, ShardingPlan],
    pooling: dict[str, float],
) -> FigureArtifact:
    """Static sharding attributes: capacity / tables / pooling per shard."""
    rows = []
    data: dict[str, dict[str, list[float]]] = {}
    for label, plan in plans.items():
        capacities = [c / GIB for c in plan.capacity_by_shard(model)]
        table_counts = [len(shard.assignments) for shard in plan.shards]
        loads = pooling_by_shard(plan.shards, pooling)
        data[label] = {
            "capacity_gib": capacities,
            "tables": table_counts,
            "pooling": loads,
        }
        for shard_index in range(plan.num_shards):
            rows.append(
                (
                    label if shard_index == 0 else "",
                    shard_index + 1,
                    round(capacities[shard_index], 2),
                    table_counts[shard_index],
                    round(loads[shard_index], 1),
                )
            )
    text = format_table(
        ["configuration", "shard", "capacity GiB", "tables", "est. pooling factor"],
        rows,
        title=f"Table II: sharding results for {model.name}",
    )
    return FigureArtifact("table2", "Sharding results", text, data)


# -- Figures 6 / 7 / 16 -----------------------------------------------------------
def overhead_figure(
    results: dict[str, RunResult], name: str, title: str
) -> FigureArtifact:
    """P50/P90/P99 latency & compute overheads vs singular."""
    baseline = _singular(results)
    rows = []
    data: dict[str, dict[int, dict[str, float]]] = {}
    for label, result in results.items():
        if label == SINGULAR:
            continue
        per_quantile = {}
        for q in QUANTILES:
            latency = overhead_vs_baseline(result.e2e, baseline.e2e, q)
            compute = overhead_vs_baseline(result.cpu, baseline.cpu, q)
            per_quantile[q] = {"latency": latency, "compute": compute}
            rows.append((label, f"P{q}", round(latency, 4), round(compute, 4)))
        data[label] = per_quantile
    text = format_table(
        ["configuration", "quantile", "latency overhead", "compute overhead"],
        rows,
        title=title,
    )
    return FigureArtifact(name, title, text, data)


def fig6_overheads(results: dict[str, RunResult], model_name: str) -> FigureArtifact:
    return overhead_figure(
        results, f"fig6_{model_name.lower()}",
        f"Figure 6 ({model_name}): latency & compute overheads vs singular (serial)",
    )


def fig7_overheads_drm3(results: dict[str, RunResult]) -> FigureArtifact:
    return overhead_figure(
        results, "fig7", "Figure 7 (DRM3): latency & compute overheads vs singular"
    )


def fig16_qps_overheads(results: dict[str, RunResult]) -> FigureArtifact:
    return overhead_figure(
        results, "fig16", "Figure 16 (DRM1 @ 25 QPS): overheads vs singular"
    )


# -- Figures 8 / 9 -----------------------------------------------------------------
_STACK_KEYS = {
    "latency": lambda result: result.e2e,
    "embedded": lambda result: result.embedded_totals,
    "cpu": lambda result: result.cpu,
}


def _p50_stacks(
    results: dict[str, RunResult], kind: str
) -> dict[str, dict[str, float]]:
    """Median-window mean stacks straight from each result's columns."""
    key_getter = _STACK_KEYS[kind]
    return {
        label: median_window_mean_columns(
            result.stack_columns(kind), key_getter(result)
        )
        for label, result in results.items()
    }


def fig8a_e2e_latency_stacks(results: dict[str, RunResult]) -> FigureArtifact:
    stacks = _p50_stacks(results, "latency")
    text = format_stack_bars(
        stacks, E2E_BUCKETS,
        title="Figure 8a: P50 E2E latency stacks (normalized to tallest config)",
    )
    return FigureArtifact("fig8a", "E2E latency stacks", text, {"stacks": stacks})


def fig8b_embedded_stacks(results: dict[str, RunResult]) -> FigureArtifact:
    stacks = _p50_stacks(results, "embedded")
    text = format_stack_bars(
        stacks, EMBEDDED_BUCKETS,
        title="Figure 8b: P50 embedded-portion stacks (bounding shard)",
    )
    return FigureArtifact("fig8b", "Embedded-portion stacks", text, {"stacks": stacks})


def fig9_cpu_stacks(results: dict[str, RunResult]) -> FigureArtifact:
    stacks = _p50_stacks(results, "cpu")
    text = format_stack_bars(
        stacks, CPU_BUCKETS,
        title="Figure 9: P50 aggregate CPU-time stacks (all shards)",
    )
    return FigureArtifact("fig9", "CPU-time stacks", text, {"stacks": stacks})


# -- Figures 10 / 11 / 12 / 15 -----------------------------------------------------
def per_shard_figure(
    results: dict[str, RunResult], name: str, title: str, by_net: bool = False
) -> FigureArtifact:
    """Per-shard mean operator latencies, normalized to the global max."""
    data: dict[str, dict] = {}
    peak = 0.0
    for label, result in results.items():
        per_shard = (
            result.mean_per_shard_net_op_time() if by_net
            else result.mean_per_shard_op_time()
        )
        data[label] = per_shard
        if per_shard:
            peak = max(peak, max(per_shard.values()))
    rows = []
    for label, per_shard in data.items():
        for key, value in per_shard.items():
            if by_net:
                shard, net = key
                rows.append((label, shard + 1, net, round(value / peak, 3)))
            else:
                rows.append((label, key + 1, "-", round(value / peak, 3)))
    text = format_table(
        ["configuration", "shard", "net", "normalized op latency"], rows, title=title
    )
    return FigureArtifact(name, title, text, {"per_shard": data, "peak": peak})


def fig10_per_shard_by_net(results: dict[str, RunResult]) -> FigureArtifact:
    """DRM1 per-shard operator latencies by net: load-bal vs NSBP, 8 shards."""
    wanted = {k: v for k, v in results.items() if k in ("load-bal 8 shards", "NSBP 8 shards")}
    return per_shard_figure(
        wanted, "fig10",
        "Figure 10: DRM1 per-shard operator latencies by net (8 shards)",
        by_net=True,
    )


def fig11_drm3_per_shard(results: dict[str, RunResult]) -> FigureArtifact:
    """DRM3: NSBP per-shard op latencies + embedded stacks by config."""
    nsbp8 = {k: v for k, v in results.items() if k == "NSBP 8 shards"}
    shard_fig = per_shard_figure(
        nsbp8, "fig11a", "Figure 11a: DRM3 per-shard operator latencies (NSBP 8)"
    )
    stacks = _p50_stacks(results, "embedded")
    text = shard_fig.text + "\n\n" + format_stack_bars(
        stacks, EMBEDDED_BUCKETS,
        title="Figure 11b: DRM3 embedded-portion stacks",
    )
    return FigureArtifact(
        "fig11", "DRM3 per-shard latencies", text,
        {"per_shard": shard_fig.data["per_shard"], "stacks": stacks},
    )


def fig12_per_shard_by_strategy(results: dict[str, RunResult]) -> FigureArtifact:
    wanted = {
        k: v
        for k, v in results.items()
        if k in ("load-bal 8 shards", "cap-bal 8 shards", "NSBP 8 shards")
    }
    return per_shard_figure(
        wanted, "fig12",
        "Figure 12: DRM1 per-shard operator latencies by strategy (8 shards)",
    )


def fig15_platforms(
    result_large: RunResult, result_small: RunResult
) -> FigureArtifact:
    results = {"SC-Large": result_large, "SC-Small": result_small}
    artifact = per_shard_figure(
        results, "fig15",
        "Figure 15: DRM1 per-shard operator latencies by server platform",
    )
    large = result_large.mean_per_shard_op_time()
    small = result_small.mean_per_shard_op_time()
    ratios = [small[s] / large[s] for s in large]
    artifact.data["mean_ratio_small_over_large"] = float(np.mean(ratios))
    artifact.text += (
        f"\n=> mean SC-Small/SC-Large per-shard op latency ratio: "
        f"{artifact.data['mean_ratio_small_over_large']:.3f}"
    )
    return artifact


# -- Figures 13 / 14 ---------------------------------------------------------------
def fig13_batching_latency(
    default_results: dict[str, dict[str, RunResult]],
    single_results: dict[str, dict[str, RunResult]],
) -> FigureArtifact:
    """E2E + embedded stacks, default vs single-batch (DRM1 & DRM2)."""
    stacks: dict[str, dict[str, float]] = {}
    overheads: dict[str, dict[str, float]] = {}
    for mode, result_map in (("default", default_results), ("single-batch", single_results)):
        for model_name, results in result_map.items():
            baseline = _singular(results)
            merged = _p50_stacks(results, "latency")
            for label, stack in merged.items():
                stacks[f"{model_name}/{mode}/{label}"] = stack
            overheads[f"{model_name}/{mode}"] = {
                label: overhead_vs_baseline(result.e2e, baseline.e2e, 50)
                for label, result in results.items()
                if label != SINGULAR
            }
    text = format_stack_bars(
        stacks, E2E_BUCKETS,
        title="Figure 13: P50 E2E latency stacks, default vs single batch",
        width=36,
    )
    return FigureArtifact(
        "fig13", "Batching latency stacks", text,
        {"stacks": stacks, "p50_overheads": overheads},
    )


def fig14_batching_cpu(
    default_results: dict[str, dict[str, RunResult]],
    single_results: dict[str, dict[str, RunResult]],
) -> FigureArtifact:
    stacks: dict[str, dict[str, float]] = {}
    overheads: dict[str, dict[str, float]] = {}
    for mode, result_map in (("default", default_results), ("single-batch", single_results)):
        for model_name, results in result_map.items():
            baseline = _singular(results)
            merged = _p50_stacks(results, "cpu")
            for label, stack in merged.items():
                stacks[f"{model_name}/{mode}/{label}"] = stack
            overheads[f"{model_name}/{mode}"] = {
                label: overhead_vs_baseline(result.cpu, baseline.cpu, 50)
                for label, result in results.items()
                if label != SINGULAR
            }
    text = format_stack_bars(
        stacks, CPU_BUCKETS,
        title="Figure 14: P50 CPU-time stacks, default vs single batch",
        width=36,
    )
    return FigureArtifact(
        "fig14", "Batching CPU stacks", text,
        {"stacks": stacks, "p50_overheads": overheads},
    )


# -- Table III -----------------------------------------------------------------------
def table3_compression(
    uncompressed: RunResult,
    compressed: RunResult,
    report: CompressionReport,
) -> FigureArtifact:
    """Size + CPU/latency quantiles, normalized to uncompressed P50."""
    rows = [
        ("Total size (GB)", report.uncompressed_bytes / 1e9, report.compressed_bytes / 1e9),
    ]
    data = {
        "ratio": report.ratio,
        "size_gb": (report.uncompressed_bytes / 1e9, report.compressed_bytes / 1e9),
    }
    cpu_base = np.percentile(uncompressed.cpu, 50)
    e2e_base = np.percentile(uncompressed.e2e, 50)
    for metric, base_values, comp_values, base in (
        ("CPU Time", uncompressed.cpu, compressed.cpu, cpu_base),
        ("E2E Latency", uncompressed.e2e, compressed.e2e, e2e_base),
    ):
        for q in QUANTILES:
            u = np.percentile(base_values, q) / base
            c = np.percentile(comp_values, q) / base
            rows.append((f"{metric} P{q} (x P50 uncompressed)", round(u, 3), round(c, 3)))
            data[f"{metric}-P{q}"] = (float(u), float(c))
    text = format_table(
        ["metric", "uncompressed", "quantized and pruned"],
        rows,
        title=f"Table III: effect of quantization and pruning on {uncompressed.model_name} "
        f"(compression ratio {report.ratio:.2f}x)",
    )
    return FigureArtifact("table3", "Compression effects", text, data)
