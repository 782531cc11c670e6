"""The paper's claims: one registry entry per committed benchmark artifact.

Each :class:`Entry` regenerates ``results/<name>.txt``.  Its ``build``
function reads the session's ``conftest.SuiteCache`` (or runs its own
sweep, for the ablations), calls the step the benchmark times -- an
unchanged ``repro.experiments.figures`` reducer, or the whole sweep --
through ``run``, and returns the :class:`Facts` its claims read: the
artifact ``text``, the paper-number and diagnostic ``notes`` printed
beside it, and the measured values.

A :class:`Claim` states one of the paper's findings as a signed margin
built from the very sub-expressions the finding compares (``b - a`` for
``a < b``), so its sign decides exactly what the comparison would.  It
holds iff ``margin > 0`` (:func:`gt`) or ``margin >= 0`` (:func:`ge`).
An exact equality or membership check has margin 0 when it holds and
minus the mismatch count otherwise (:func:`equal`, :func:`all_of`); a
``pytest.approx`` check has margin ``tolerance - |expected - actual|``
(:func:`near`); a claim over a loop takes the loop's least margin
(:func:`least`).  Claim names are known without running the entry.

:func:`evaluate` runs one entry and returns its facts and every claim's
margin.  ``test_claims.py`` calls it once per entry with pytest-benchmark
as ``run``; anything that wants the margins (across seeds, say) calls it
the same way with its own ``suites``.  Loading this module runs nothing
and imports no ``conftest``, so a test can list the registry by loading
the file by path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Iterable

import numpy as np
import pytest

from repro.analysis import format_table
from repro.analysis.caching import cache_curve
from repro.core.types import GIB, US
from repro.experiments import figures
from repro.experiments.configs import (
    ShardingConfiguration,
    build_plan,
    paper_configurations,
)
from repro.experiments.runner import run_configuration
from repro.models.config import FeatureScope
from repro.requests import RequestGenerator
from repro.requests.access_trace import collect_access_trace
from repro.serving import ClusterSimulation, ServingConfig
from repro.serving.paging import assess_paging, paging_vs_distributed_stall
from repro.sharding import (
    SINGULAR,
    AutoShardObjective,
    auto_shard,
    estimate_pooling_factors,
    singular_plan,
)
from repro.simulation.network import FabricSpec
from repro.tracing import (
    CPU_OPS,
    CPU_SERVICE,
    EMBEDDED_PORTION,
    MAIN_SHARD,
    NETWORK_LATENCY,
    RPC_SERDE,
    SPARSE_OPS,
    Layer,
    render_trace,
)


class Facts(SimpleNamespace):
    """What an entry regenerated: its artifact ``text``, the ``notes``
    printed beside it, and the values its claims read."""

    def __init__(self, text: str, notes: Iterable[str] = (), **values: Any):
        super().__init__(text=text, notes=tuple(notes), **values)


@dataclass(frozen=True)
class Claim:
    """One finding: holds iff ``margin(facts) > 0`` (strict) or ``>= 0``."""

    name: str
    margin: Callable[[Any], float]
    strict: bool

    def holds(self, margin: float) -> bool:
        return margin > 0 if self.strict else margin >= 0


def gt(name: str, margin: Callable[[Any], float]) -> Claim:
    return Claim(name, margin, strict=True)


def ge(name: str, margin: Callable[[Any], float]) -> Claim:
    return Claim(name, margin, strict=False)


def least(margins: Iterable[float]) -> float:
    """A loop's margin: its least one (``inf`` for an empty loop, which holds)."""
    return min(margins, default=math.inf)


def all_of(checks: Iterable[object]) -> float:
    """Minus the number of false ``checks``: 0.0 exactly when all hold."""
    return float(-sum(not check for check in checks))


def equal(actual: Any, expected: Any) -> float:
    """``np.array_equal`` as a margin: minus the number of unequal elements."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    if actual.shape != expected.shape:
        return float(-max(actual.size, expected.size, 1))
    return float(-np.count_nonzero(actual != expected))


def near(actual: float, expected: float, **tolerance: float) -> float:
    """``actual == pytest.approx(expected, **tolerance)`` as a margin."""
    return pytest.approx(expected, **tolerance).tolerance - abs(expected - actual)


Run = Callable[[Callable[[], Any]], Any]


@dataclass(frozen=True)
class Entry:
    """One committed artifact: ``build(suites, run)`` regenerates it and
    ``claims`` judge it; a ``sweep`` is timed once, not repeatedly."""

    name: str
    build: Callable[[Any, Run], Facts]
    claims: tuple[Claim, ...]
    sweep: bool = False

    @property
    def artifact(self) -> str:
        return f"{self.name}.txt"


ENTRIES: list[Entry] = []


def entry(*claims: Claim, sweep: bool = False):
    """Register the decorated ``build`` as the entry named after it."""

    def register(build: Callable[[Any, Run], Facts]) -> Callable[[Any, Run], Facts]:
        ENTRIES.append(Entry(build.__name__, build, claims, sweep))
        return build

    return register


def _call(reduce: Callable[[], Any]) -> Any:
    return reduce()


def evaluate(
    entry: Entry, suites: Any, run: Run = _call
) -> tuple[Facts, dict[str, float]]:
    """Regenerate ``entry`` from ``suites``, calling (and maybe timing) its
    reducer through ``run``; return its facts and each claim's margin."""
    facts = entry.build(suites, run)
    return facts, {claim.name: float(claim.margin(facts)) for claim in entry.claims}


def _figure(artifact: figures.FigureArtifact, notes: Iterable[str] = (), **values):
    return Facts(artifact.text, notes, data=artifact.data, **values)


# -- Ablations ---------------------------------------------------------------------
@entry(
    ge("a_plan_is_chosen", lambda f: all_of([f.outcome.chosen is not None])),
    # The DRAM budget rules out 2-shard plans (~97 GiB per shard).
    ge("dram_budget_needs_4_shards", lambda f: f.outcome.chosen.num_shards - 4),
    # The selection respects the resource-minimizing heuristic.
    ge("chosen_has_fewest_viable_shards", lambda f: equal(
        f.outcome.chosen.num_shards, min(e.plan.num_shards for e in f.viable)
    )),
    sweep=True,
)
def ablation_autoshard(suites, run):
    """The automatic sharding workflow the paper's Section X argues for:
    profile-and-select on DRM1 under a sparse-tier DRAM budget and a P99 SLA."""
    objective = AutoShardObjective(
        shard_dram_budget=55 * GIB,
        max_p99_latency_overhead=0.30,
        shard_counts=(2, 4, 8, 16),
        profile_requests=60,
    )
    outcome = run(
        lambda: auto_shard(suites.models["DRM1"], objective, ServingConfig(seed=1))
    )
    rows = []
    for evaluation in outcome.evaluations:
        rows.append(
            (
                evaluation.label,
                "yes" if evaluation.feasible_capacity else "no",
                round(evaluation.p99_latency_overhead, 4),
                round(evaluation.cpu_overhead, 4),
                "yes" if evaluation.meets_sla else "no",
            )
        )
    text = format_table(
        ["candidate", "fits DRAM", "P99 latency overhead", "CPU overhead", "meets SLA"],
        rows,
        title=f"Auto-sharding evaluation (chosen: {outcome.chosen.label})",
    )
    viable = [e for e in outcome.evaluations if e.feasible_capacity and e.meets_sla]
    return Facts(text, outcome=outcome, viable=viable)


def caching_sweep(suites):
    model = suites.models["DRM1"]
    requests = RequestGenerator(model, seed=3).generate_many(150)
    trace = collect_access_trace(model, requests, seed=7)
    hot_table = max(trace.accesses, key=lambda name: len(trace.accesses[name]))
    curve = cache_curve(trace, hot_table)

    # Distributed embedded-portion cost (8-shard load-bal vs singular).
    results = suites.serial("DRM1")
    singular_emb = np.mean(
        results[SINGULAR].stack_columns("latency")[EMBEDDED_PORTION]
    )
    distributed_emb = np.mean(
        results["load-bal 8 shards"].stack_columns("latency")[EMBEDDED_PORTION]
    )
    added = distributed_emb - singular_emb

    paging_rows = []
    for coverage in (0.05, 0.10, 0.25, 0.50):
        assessment = assess_paging(model, trace, coverage)
        paging_rows.append(
            (
                coverage,
                round(assessment.hit_rate, 3),
                round(assessment.expected_stall_per_request * 1e6, 1),
                round(paging_vs_distributed_stall(assessment, added), 1),
            )
        )
    return curve, paging_rows, added, hot_table


@entry(
    # Frequency (offline-optimal) dominates LRU at every size.
    ge("frequency_dominates_lru", lambda f: least(
        freq_rate - (f.by_policy["lru"][fraction] - 0.02)
        for fraction, freq_rate in f.by_policy["frequency"].items()
    )),
    ge("hit_rate_grows_with_cache_size",
       lambda f: least((b + 1e-9) - a for a, b in zip(f.rates, f.rates[1:]))),
    # Paging's expected stall exceeds the distributed embedded overhead by
    # an order of magnitude until coverage is high: distribution is the
    # latency-safer path for over-DRAM models (the paper's §I position).
    gt("paging_stalls_5x_distributed", lambda f: f.paging_rows[0][3] - 5.0),
    sweep=True,
)
def ablation_caching_paging(suites, run):
    """Bandana-style cache-hit curves for DRM1's hottest table (Section IX),
    and SSD paging (Sections I/X) against distribution's embedded cost."""
    curve, paging_rows, added, hot_table = run(lambda: caching_sweep(suites))
    curve_text = format_table(
        ["policy", "cache fraction (of working set)", "hit rate"],
        [(p.policy, p.cache_fraction, round(p.hit_rate, 3)) for p in curve],
        title=f"Cache-hit curves for {hot_table} (DRM1's hottest table)",
    )
    paging_text = format_table(
        ["resident coverage", "hit rate", "SSD stall/request (us)",
         "stall vs distributed-added (x)"],
        paging_rows,
        title=f"Paging vs distributed (distributed adds {added * 1e6:.0f} us embedded)",
    )
    by_policy: dict = {}
    for point in curve:
        by_policy.setdefault(point.policy, {})[point.cache_fraction] = point.hit_rate
    rates = [rate for _, rate in sorted(by_policy["frequency"].items())]
    return Facts(
        curve_text + "\n\n" + paging_text,
        by_policy=by_policy, rates=rates, paging_rows=paging_rows,
    )


PROPAGATION_US = (5.0, 15.0, 45.0, 135.0)


def network_sweep(suites):
    model = suites.models["DRM1"]
    requests = RequestGenerator(model, seed=3).generate_many(60)
    plan = build_plan(
        model, ShardingConfiguration("load-bal", 8), suites.pooling("DRM1")
    )
    rows = []
    for prop_us in PROPAGATION_US:
        spec = FabricSpec(propagation=prop_us * US)
        serving = ServingConfig(seed=1, fabric_spec=spec)
        base = run_configuration(model, singular_plan(model), requests, serving)
        dist = run_configuration(model, plan, requests, serving)
        overhead = (
            np.percentile(dist.e2e, 50) - np.percentile(base.e2e, 50)
        ) / np.percentile(base.e2e, 50)
        rows.append((prop_us, float(np.percentile(base.e2e, 50)) * 1e3, overhead))
    return rows


@entry(
    gt("overhead_grows_with_propagation",
       lambda f: least(b - a for a, b in zip(f.overheads, f.overheads[1:]))),
    # The singular baseline never touches the fabric.
    gt("singular_baseline_unmoved",
       lambda f: 1e-9 - (max(f.baselines) - min(f.baselines))),
    # Each extra hop of propagation is paid at least twice per batch (two
    # sequential nets, round trip each).
    gt("overhead_spread_over_0_2",
       lambda f: (f.overheads[-1] - f.overheads[0]) - 0.2),
    sweep=True,
)
def ablation_network_propagation(suites, run):
    """Fabric propagation delay vs distributed overhead: Section VI-B2's
    "constant overheads eventually dominate"."""
    rows = run(lambda: network_sweep(suites))
    text = format_table(
        ["propagation (us)", "singular P50 (ms)", "load-bal-8 P50 overhead"],
        [(p, round(b, 3), round(o, 4)) for p, b, o in rows],
        title="Ablation: fabric propagation vs distributed overhead",
    )
    return Facts(
        text, overheads=[o for _, _, o in rows], baselines=[b for _, b, _ in rows]
    )


POOLING_SCALES = (1, 8, 32, 64)


def scale_user_pooling(model, factor):
    tables = tuple(
        dataclasses.replace(t, mean_ids=t.mean_ids * factor)
        if t.scope is FeatureScope.USER
        else t
        for t in model.tables
    )
    return dataclasses.replace(model, name=f"{model.name}-pfx{factor}", tables=tables)


def pooling_sweep(base_model):
    serving = ServingConfig(seed=1).with_batch_size(10**9)  # single batch
    rows = []
    for factor in POOLING_SCALES:
        model = scale_user_pooling(base_model, factor)
        requests = RequestGenerator(model, seed=3).generate_many(60)
        pooling = estimate_pooling_factors(model, 200, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 8), pooling)
        base = run_configuration(model, singular_plan(model), requests, serving)
        dist = run_configuration(model, plan, requests, serving)
        overhead = (
            np.percentile(dist.e2e, 50) - np.percentile(base.e2e, 50)
        ) / np.percentile(base.e2e, 50)
        rows.append((factor, float(overhead)))
    return rows


@entry(
    gt("overhead_falls_as_sparse_work_grows",
       lambda f: least(a - b for a, b in zip(f.values, f.values[1:]))),
    # At DRM1's own (Table II) pooling scale, distribution still costs
    # latency; with enough sparse work it *improves* latency -- the
    # crossover the paper demonstrates with large batches.
    gt("distribution_costs_at_1x", lambda f: f.overheads[1]),
    gt("distribution_wins_at_64x", lambda f: -f.overheads[64]),
    sweep=True,
)
def ablation_pooling_crossover(suites, run):
    """Section VI-B2: "given sufficient sparse operator work, latency could
    be improved" -- DRM1's user pooling scaled up, single-batch replay."""
    rows = run(lambda: pooling_sweep(suites.models["DRM1"]))
    text = format_table(
        ["user pooling x", "load-bal-8 single-batch P50 overhead"],
        [(f, round(o, 4)) for f, o in rows],
        title="Ablation: pooling factor vs distributed latency crossover",
    )
    overheads = dict(rows)
    values = [overheads[f] for f in POOLING_SCALES]
    return Facts(text, overheads=overheads, values=values)


SHARD_COUNTS = (2, 4, 8, 16, 24)


def shard_scaling_sweep(suites):
    model = suites.models["DRM1"]
    requests = RequestGenerator(model, seed=3).generate_many(60)
    serving = ServingConfig(seed=1)
    base = run_configuration(model, singular_plan(model), requests, serving)
    base_e2e = np.percentile(base.e2e, 50)
    base_cpu = np.percentile(base.cpu, 50)
    rows = []
    for count in SHARD_COUNTS:
        plan = build_plan(
            model, ShardingConfiguration("load-bal", count), suites.pooling("DRM1")
        )
        dist = run_configuration(model, plan, requests, serving)
        rows.append(
            (
                count,
                float((np.percentile(dist.e2e, 50) - base_e2e) / base_e2e),
                float((np.percentile(dist.cpu, 50) - base_cpu) / base_cpu),
            )
        )
    return rows


@entry(
    # Latency gains flatten against the network floor (Section VI-B2)...
    gt("latency_gains_2_to_8", lambda f: f.gain_2_to_8),
    gt("latency_gains_flatten_past_8", lambda f: 0.6 * f.gain_2_to_8 - f.gain_8_to_24),
    # ...while compute keeps growing, roughly linearly in the RPC fan-out.
    gt("compute_grows_with_shards",
       lambda f: least(b - a for a, b in zip(f.values, f.values[1:]))),
    gt("compute_does_not_saturate",
       lambda f: f.compute[24] - 2.0 * f.compute[8] * 0.8),
    sweep=True,
)
def ablation_shard_scaling(suites, run):
    """The load-balanced sweep extended past the paper's 8 shards to 24."""
    rows = run(lambda: shard_scaling_sweep(suites))
    text = format_table(
        ["shards", "P50 latency overhead", "P50 compute overhead"],
        [(c, round(l, 4), round(k, 4)) for c, l, k in rows],
        title="Ablation: load-balanced shard-count scaling (DRM1)",
    )
    latency = {c: l for c, l, _ in rows}
    compute = {c: k for c, _, k in rows}
    return Facts(
        text, compute=compute, values=[compute[c] for c in SHARD_COUNTS],
        gain_2_to_8=latency[2] - latency[8], gain_8_to_24=latency[8] - latency[24],
    )


# -- Figures -----------------------------------------------------------------------
@entry(
    # "Both number of features and embeddings have grown an order of
    # magnitude in only three years."
    ge("features_grew_9x", lambda f: f.data["features_x"] - 9.0),
    ge("capacity_grew_9x", lambda f: f.data["capacity_x"] - 9.0),
    ge("series_spans_3_years",
       lambda f: equal(f.data["points"][-1].years_since_start, 3.0)),
)
def fig01_model_growth(suites, run):
    """Figure 1: recommendation-model growth (features & capacity)."""
    return _figure(run(figures.fig1_model_growth))


@entry(
    # All inference flows through the main shard.
    ge("main_and_sparse_shards_drawn", lambda f: all_of(
        lane in f.text for lane in ("main request", "sparse shard 1")
    )),
    ge("rpc_and_shard_service_spans", lambda f: all_of([f.clients, f.services])),
    # Every shard-side service span falls inside its outstanding-RPC client
    # span: the async RPC windows pay network on both sides.
    gt("rpc_window_covers_shard_service", lambda f: least(
        next(c for c in f.clients if c.rpc_id == service.rpc_id).duration
        - service.duration
        for service in f.services
    )),
    # Sparse shards are queried asynchronously, in parallel, within a batch.
    gt("shard_services_overlap", lambda f: f.overlapping),
)
def fig03_example_trace(suites, run):
    """Figure 3: one DRM1 request's cross-layer trace (load-bal 4 shards)."""
    model = suites.models["DRM1"]
    request = RequestGenerator(model, seed=3).generate(0)
    plan = build_plan(
        model, ShardingConfiguration("load-bal", 4), suites.pooling("DRM1")
    )
    sim = ClusterSimulation(model, plan, ServingConfig(seed=1))
    sim.run_serial([request])
    spans = sim.tracer.for_request(0)
    text = run(lambda: render_trace(spans, width=96))
    services = [s for s in spans if s.layer is Layer.SERVICE and s.shard != MAIN_SHARD]
    starts = sorted((s.start, s.end) for s in services)
    return Facts(
        text,
        clients=[s for s in spans if s.layer is Layer.RPC_CLIENT],
        services=services,
        overlapping=sum(1 for (s1, e1), (s2, _) in zip(starts, starts[1:]) if s2 < e1),
    )


PAPER_SPARSE_SHARE = {"DRM1": 0.097, "DRM2": 0.096, "DRM3": 0.031}


@entry(
    gt("sparse_share_near_paper", lambda f: least(
        min(
            f.shares[name]["Sparse"] - 0.5 * paper_value,
            3.0 * paper_value - f.shares[name]["Sparse"],
        )
        for name, paper_value in PAPER_SPARSE_SHARE.items()
    )),
    gt("drm3_sparser_than_drm1",
       lambda f: f.shares["DRM1"]["Sparse"] - f.shares["DRM3"]["Sparse"]),
    gt("drm3_sparser_than_drm2",
       lambda f: f.shares["DRM2"]["Sparse"] - f.shares["DRM3"]["Sparse"]),
    gt("drm1_drm2_more_transform_heavy", lambda f: least(
        f.shares[name]["Memory Transformations"]
        - f.shares["DRM3"]["Memory Transformations"]
        for name in ("DRM1", "DRM2")
    )),
)
def fig04_operator_attribution(suites, run):
    """Figure 4: operator compute attribution for DRM1/DRM2/DRM3 (singular)."""
    singular_results = {
        name: suites.serial(name)[SINGULAR] for name in ("DRM1", "DRM2", "DRM3")
    }
    artifact = run(
        lambda: figures.fig4_operator_attribution(singular_results, suites.models)
    )
    shares = artifact.data["shares"]
    notes = [
        f"paper {name} sparse share {share:.3f} -> measured "
        f"{shares[name]['Sparse']:.3f}"
        for name, share in PAPER_SPARSE_SHARE.items()
    ]
    return _figure(artifact, notes, shares=shares)


@entry(
    # Paper: DRM1 = 200 GB-class / 257 tables / largest 3.6 GB; DRM2 = 138 GB
    # / 133 tables / largest 6.7 GB; DRM3 = 200 GB / 39 tables dominated by
    # one 178.8 GB table.
    ge("drm1_has_257_tables", lambda f: equal(f.data["DRM1"]["count"], 257)),
    ge("drm2_has_133_tables", lambda f: equal(f.data["DRM2"]["count"], 133)),
    ge("drm3_has_39_tables", lambda f: equal(f.data["DRM3"]["count"], 39)),
    ge("drm1_total_194gib",
       lambda f: near(f.data["DRM1"]["total_gib"], 194.05, rel=0.02)),
    ge("drm2_total_138gib",
       lambda f: near(f.data["DRM2"]["total_gib"], 138.0, rel=0.02)),
    ge("drm3_total_200gib",
       lambda f: near(f.data["DRM3"]["total_gib"], 200.0, rel=0.02)),
    ge("drm1_largest_3_7gib", lambda f: 3.7 - f.data["DRM1"]["largest_gib"]),
    ge("drm2_largest_6_8gib", lambda f: 6.8 - f.data["DRM2"]["largest_gib"]),
    ge("drm3_largest_178_8gib",
       lambda f: near(f.data["DRM3"]["largest_gib"], 178.8, rel=0.03)),
    gt("drm1_long_tail", lambda f: 0.05 - f.data["DRM1"]["dominant_share"]),
    gt("drm2_long_tail", lambda f: 0.08 - f.data["DRM2"]["dominant_share"]),
    gt("drm3_one_dominant_table", lambda f: f.data["DRM3"]["dominant_share"] - 0.85),
)
def fig05_table_sizes(suites, run):
    """Figure 5: embedding-table size distributions."""
    return _figure(run(lambda: figures.fig5_table_size_distribution(suites.models)))


def _p50(f, label: str, metric: str) -> float:
    return f.data[label][50][metric]


# Serial blocking requests always lose to singular at P50 (Figs 6 and 7).
SLOWER_AT_P50 = gt("every_config_slower_at_p50", lambda f: least(
    per_quantile[50]["latency"] for per_quantile in f.data.values()
))

FIG6_CLAIMS = (
    SLOWER_AT_P50,
    gt("more_shards_lower_latency", lambda f: least(
        _p50(f, f"{s} 2 shards", "latency") - _p50(f, f"{s} 8 shards", "latency")
        for s in ("load-bal", "cap-bal")
    )),
    gt("more_shards_more_compute", lambda f: least(
        min(
            _p50(f, f"{s} 4 shards", "compute") - _p50(f, f"{s} 2 shards", "compute"),
            _p50(f, f"{s} 8 shards", "compute") - _p50(f, f"{s} 4 shards", "compute"),
        )
        for s in ("load-bal", "cap-bal")
    )),
    gt("nsbp_least_compute", lambda f: least(
        _p50(f, f"load-bal {n} shards", "compute")
        - _p50(f, f"NSBP {n} shards", "compute")
        for n in (4, 8)
    )),
    # NSBP-2 acts like a bounding 1-shard configuration for the hot net:
    # worst or near-worst at P99 (within 10% of the maximum).
    ge("nsbp2_near_worst_p99", lambda f: (
        f.data["NSBP 2 shards"][99]["latency"]
        - 0.9 * max(per_quantile[99]["latency"] for per_quantile in f.data.values())
    )),
    # P99 overheads are more favorable than P50 for the balanced strategies.
    ge("balanced_8_p99_within_p50", lambda f: least(
        (f.data[label][50]["latency"] + 0.02) - f.data[label][99]["latency"]
        for label in ("load-bal 8 shards", "cap-bal 8 shards")
    )),
)


@entry(*FIG6_CLAIMS)
def fig06_overheads_drm1(suites, run):
    """Figure 6: DRM1 latency & compute overheads vs singular (serial)."""
    results = suites.serial("DRM1")
    artifact = run(lambda: figures.fig6_overheads(results, "DRM1"))
    data = artifact.data
    note = (
        "paper DRM1: load-bal-2 P99 +7.3%, load-bal-8 P99 +1%, P50 +11% -> measured "
        f"{data['load-bal 2 shards'][99]['latency']:+.3f}, "
        f"{data['load-bal 8 shards'][99]['latency']:+.3f}, "
        f"{data['load-bal 8 shards'][50]['latency']:+.3f}"
    )
    return _figure(artifact, [note])


@entry(*FIG6_CLAIMS)
def fig06_overheads_drm2(suites, run):
    """Figure 6: DRM2 latency & compute overheads vs singular (serial)."""
    results = suites.serial("DRM2")
    return _figure(run(lambda: figures.fig6_overheads(results, "DRM2")))


@entry(
    SLOWER_AT_P50,
    # DRM3's capacity is one single-lookup table, so "increasing shards does
    # not increase parallelization"...
    gt("p50_flat_in_shards", lambda f: 0.06 - (max(f.p50) - min(f.p50))),
    # ...and only two shards are accessed per batch: the small-tables shard
    # plus one partition of the dominant table.
    ge("two_shards_per_batch", lambda f: least(
        equal(f.results[label].rpcs, 2 * f.results[label].num_batches)
        for label in ("NSBP 4 shards", "NSBP 8 shards")
    )),
)
def fig07_overheads_drm3(suites, run):
    """Figure 7: DRM3 latency & compute overheads (NSBP only)."""
    results = suites.serial("DRM3")
    artifact = run(lambda: figures.fig7_overheads_drm3(results))
    p50 = [per_quantile[50]["latency"] for per_quantile in artifact.data.values()]
    return _figure(artifact, results=results, p50=p50)


def _embedded_fraction(stacks, label: str) -> float:
    stack = stacks[label]
    return stack[EMBEDDED_PORTION] / sum(stack.values())


@entry(
    # Paper (Section VI-B4): singular ~10%; 32% at 1 shard; ~16% at best 8.
    gt("singular_embedded_5_to_18pct",
       lambda f: min(f.singular - 0.05, 0.18 - f.singular)),
    gt("one_shard_embedded_22_to_42pct",
       lambda f: min(f.one_shard - 0.22, 0.42 - f.one_shard)),
    gt("load_bal_8_between_singular_and_1_shard",
       lambda f: min(f.load8 - f.singular, f.one_shard - f.load8)),
)
def fig08a_latency_stacks(suites, run):
    """Figure 8a: P50 latency attribution by sharding strategy (DRM1)."""
    results = suites.serial("DRM1")
    artifact = run(lambda: figures.fig8a_e2e_latency_stacks(results))
    stacks = artifact.data["stacks"]
    singular = _embedded_fraction(stacks, SINGULAR)
    one_shard = _embedded_fraction(stacks, "1 shard")
    load8 = _embedded_fraction(stacks, "load-bal 8 shards")
    note = (
        f"paper embedded fraction: singular ~10%, 1-shard 32%, load-bal-8 15.6% -> "
        f"measured {singular:.1%}, {one_shard:.1%}, {load8:.1%}"
    )
    return _figure(
        artifact, [note], singular=singular, one_shard=one_shard, load8=load8
    )


@entry(
    ge("singular_has_no_network",
       lambda f: equal(f.stacks[SINGULAR][NETWORK_LATENCY], 0.0)),
    gt("singular_is_sparse_ops", lambda f: f.stacks[SINGULAR][SPARSE_OPS] - 0.0),
    # Section VI-B2, on the bounding shard.
    gt("network_exceeds_ops_when_distributed", lambda f: least(
        stack[NETWORK_LATENCY] - stack[SPARSE_OPS]
        for label, stack in f.stacks.items()
        if label != SINGULAR
    )),
    # More shards shrink the bar, but the constant network component stays.
    gt("more_shards_smaller_embedded_bar", lambda f: min(
        f.totals["load-bal 2 shards"] - f.totals["load-bal 8 shards"],
        f.totals["1 shard"] - f.totals["load-bal 2 shards"],
    )),
)
def fig08b_embedded_stacks(suites, run):
    """Figure 8b: P50 embedded-portion attribution by strategy (DRM1)."""
    results = suites.serial("DRM1")
    artifact = run(lambda: figures.fig8b_embedded_stacks(results))
    stacks = artifact.data["stacks"]
    totals = {label: sum(stack.values()) for label, stack in stacks.items()}
    return _figure(artifact, stacks=stacks, totals=totals)


@entry(
    gt("distributed_costs_more_cpu", lambda f: least(
        total - f.totals[SINGULAR]
        for label, total in f.totals.items()
        if label != SINGULAR
    )),
    # For the net-agnostic strategies.
    gt("cpu_grows_with_shards", lambda f: least(
        min(
            f.totals[f"{s} 4 shards"] - f.totals[f"{s} 2 shards"],
            f.totals[f"{s} 8 shards"] - f.totals[f"{s} 4 shards"],
        )
        for s in ("load-bal", "cap-bal")
    )),
    # NSBP never mixes nets within a shard and issues one RPC per shard.
    ge("nsbp_cheapest", lambda f: least(
        f.totals[f"load-bal {n} shards"] - f.totals[f"NSBP {n} shards"]
        for n in (2, 4, 8)
    )),
    gt("growth_is_serde_and_service",
       lambda f: f.overhead_delta - 3 * abs(f.ops_delta)),
    # Section VI-C1.
    gt("overhead_tracks_rpc_count", lambda f: f.rpc_correlation - 0.95),
)
def fig09_cpu_stacks(suites, run):
    """Figure 9: P50 aggregate CPU-time stacks by sharding configuration."""
    results = suites.serial("DRM1")
    artifact = run(lambda: figures.fig9_cpu_stacks(results))
    stacks = artifact.data["stacks"]
    totals = {label: sum(stack.values()) for label, stack in stacks.items()}
    rpc_counts = {
        label: np.mean(result.rpcs)
        for label, result in results.items()
        if label != SINGULAR
    }
    overheads = {label: totals[label] - totals[SINGULAR] for label in rpc_counts}
    ordered = sorted(rpc_counts, key=rpc_counts.get)
    measured = [overheads[label] for label in ordered]
    return _figure(
        artifact,
        totals=totals,
        ops_delta=stacks["load-bal 8 shards"][CPU_OPS] - stacks[SINGULAR][CPU_OPS],
        overhead_delta=(
            stacks["load-bal 8 shards"][RPC_SERDE]
            + stacks["load-bal 8 shards"][CPU_SERVICE]
            - stacks[SINGULAR][RPC_SERDE]
            - stacks[SINGULAR][CPU_SERVICE]
        ),
        rpc_correlation=np.corrcoef(
            [rpc_counts[label] for label in ordered], measured
        )[0, 1],
    )


def _nets_per_shard(per_shard) -> dict:
    nets: dict = {}
    for shard, net in per_shard:
        nets.setdefault(shard, set()).add(net)
    return nets


@entry(
    ge("load_bal_shards_serve_both_nets", lambda f: all_of(
        nets == {"net1", "net2"} for nets in _nets_per_shard(f.load).values()
    )),
    gt("load_bal_per_shard_even",
       lambda f: 1.6 - max(f.load_totals) / min(f.load_totals)),
    # "Only co-locating tables within the same net has a large effect":
    # under NSBP the net1 shards (high pooling, small tables) dominate.
    ge("nsbp_shards_serve_one_net", lambda f: all_of(
        len(nets) == 1 for nets in _nets_per_shard(f.nsbp).values()
    )),
    gt("nsbp_net1_shards_dominate", lambda f: f.net1_peak - 5 * f.net2_peak),
)
def fig10_per_shard_by_net(suites, run):
    """Figure 10: DRM1 per-shard operator latencies by net (8 sparse shards)."""
    results = suites.serial("DRM1")
    artifact = run(lambda: figures.fig10_per_shard_by_net(results))
    load = artifact.data["per_shard"]["load-bal 8 shards"]
    load_totals: dict = {}
    for (shard, _), value in load.items():
        load_totals[shard] = load_totals.get(shard, 0.0) + value
    nsbp = artifact.data["per_shard"]["NSBP 8 shards"]
    return _figure(
        artifact, load=load, load_totals=list(load_totals.values()), nsbp=nsbp,
        net1_peak=max(v for (s, n), v in nsbp.items() if n == "net1"),
        net2_peak=max(v for (s, n), v in nsbp.items() if n == "net2"),
    )


@entry(
    # Under NSBP, shard 1 holds every table except the largest and does the
    # bulk of the (tiny) sparse compute...
    gt("small_tables_shard_dominates", lambda f: f.values[0] - 3 * f.values[1]),
    # ...yet each partition of the dominant table is hit by some request.
    ge("all_8_shards_work", lambda f: equal(len(f.per_shard), 8)),
    gt("embedded_flat_from_4_to_8_shards",
       lambda f: 0.12 - abs(f.nsbp8 - f.nsbp4) / f.nsbp4),
    # Both sit well above the singular sparse-op time (network floor).
    gt("network_floor_over_singular", lambda f: f.nsbp8 - 2 * f.singular),
)
def fig11_drm3_per_shard(suites, run):
    """Figure 11: DRM3 per-shard operator latencies and embedded breakdown."""
    results = suites.serial("DRM3")
    artifact = run(lambda: figures.fig11_drm3_per_shard(results))
    per_shard = artifact.data["per_shard"]["NSBP 8 shards"]
    stacks = artifact.data["stacks"]
    return _figure(
        artifact, per_shard=per_shard, values=sorted(per_shard.values(), reverse=True),
        nsbp4=sum(stacks["NSBP 4 shards"].values()),
        nsbp8=sum(stacks["NSBP 8 shards"].values()),
        singular=sum(stacks[SINGULAR].values()),
    )


def _spread(per_shard) -> float:
    values = list(per_shard.values())
    return max(values) / max(min(values), 1e-12)


@entry(
    gt("load_bal_no_worse_than_cap_bal",
       lambda f: f.cap_spread * 1.2 - f.load_spread),
    gt("nsbp_far_more_skewed", lambda f: f.nsbp_spread - 3 * f.load_spread),
    # Per-shard operator latencies are insignificant versus E2E (Section
    # VI-D2): even the largest is a small fraction of median E2E.
    gt("per_shard_ops_small_vs_e2e", lambda f: 0.25 * f.e2e_p50 - f.data["peak"]),
)
def fig12_per_shard_by_strategy(suites, run):
    """Figure 12: DRM1 per-shard operator latencies by strategy (8 shards)."""
    results = suites.serial("DRM1")
    artifact = run(lambda: figures.fig12_per_shard_by_strategy(results))
    per_shard = artifact.data["per_shard"]
    load_spread = _spread(per_shard["load-bal 8 shards"])
    cap_spread = _spread(per_shard["cap-bal 8 shards"])
    nsbp_spread = _spread(per_shard["NSBP 8 shards"])
    note = (
        f"per-shard op latency spread: load-bal {load_spread:.2f}x, "
        f"cap-bal {cap_spread:.2f}x, NSBP {nsbp_spread:.2f}x"
    )
    return _figure(
        artifact, [note],
        load_spread=load_spread, cap_spread=cap_spread, nsbp_spread=nsbp_spread,
        e2e_p50=np.percentile(results["load-bal 8 shards"].e2e, 50),
    )


def _batching_results(suites):
    default = {"DRM1": suites.serial("DRM1"), "DRM2": suites.serial("DRM2")}
    single = {"DRM1": suites.single_batch("DRM1"), "DRM2": suites.single_batch("DRM2")}
    return default, single


@entry(
    # With one batch per request the sparse operators carry the whole
    # request's work, so distribution gains more from parallelization...
    gt("single_batch_shrinks_latency_overhead", lambda f: least(
        0.85 * f.overheads["DRM1/default"][label]
        - f.overheads["DRM1/single-batch"][label]
        for label in ("load-bal 8 shards", "cap-bal 8 shards")
    )),
    # ...to a near-crossover level (paper: crosses below singular; our
    # Table-II-calibrated pooling stops just short -- see the pooling
    # ablation for the crossover).
    gt("single_batch_near_crossover", lambda f: least(
        0.15 - f.overheads["DRM1/single-batch"][label]
        for label in ("load-bal 8 shards", "cap-bal 8 shards")
    )),
    # "DRM1's larger requests result in more batches compared to DRM2":
    # the mechanism behind DRM1's stronger batching interaction.
    gt("drm1_has_more_batches", lambda f: f.drm1_batches - 1.3 * f.drm2_batches),
)
def fig13_batching_latency(suites, run):
    """Figure 13: latency stacks for default- vs single-batch replay."""
    default, single = _batching_results(suites)
    artifact = run(lambda: figures.fig13_batching_latency(default, single))
    drm1_batches = np.mean(default["DRM1"][SINGULAR].num_batches)
    drm2_batches = np.mean(default["DRM2"][SINGULAR].num_batches)
    note = f"mean batches/request: DRM1 {drm1_batches:.2f}, DRM2 {drm2_batches:.2f}"
    return _figure(
        artifact, [note], overheads=artifact.data["p50_overheads"],
        drm1_batches=drm1_batches, drm2_batches=drm2_batches,
    )


@entry(
    # Each batch issues its own RPC ops: compute overhead is multiplicative
    # in batch count.
    gt("single_batch_lowers_compute_overhead", lambda f: least(
        default_value - f.overheads["DRM1/single-batch"][label]
        for label, default_value in f.overheads["DRM1/default"].items()
    )),
    # One RPC per shard vs one per net per shard.
    gt("nsbp_compute_grows_slower", lambda f: f.load_growth - f.nsbp_growth),
    # Section VI-F2.
    gt("single_batch_compute_grows_slower",
       lambda f: f.load_growth - f.single_growth),
)
def fig14_batching_cpu(suites, run):
    """Figure 14: CPU-time stacks for default- vs single-batch replay."""
    default, single = _batching_results(suites)
    artifact = run(lambda: figures.fig14_batching_cpu(default, single))
    overheads = artifact.data["p50_overheads"]
    default_drm1 = overheads["DRM1/default"]
    single_drm1 = overheads["DRM1/single-batch"]
    load_growth = default_drm1["load-bal 8 shards"] - default_drm1["load-bal 2 shards"]
    nsbp_growth = default_drm1["NSBP 8 shards"] - default_drm1["NSBP 2 shards"]
    single_growth = single_drm1["load-bal 8 shards"] - single_drm1["load-bal 2 shards"]
    return _figure(
        artifact, overheads=overheads, load_growth=load_growth,
        nsbp_growth=nsbp_growth, single_growth=single_growth,
    )


@entry(
    # "No significant latency overheads are incurred despite platform
    # differences": embedding lookups are DRAM-latency bound.
    ge("mean_ratio_within_10pct",
       lambda f: near(f.data["mean_ratio_small_over_large"], 1.0, abs=0.1)),
    ge("every_shard_within_15pct", lambda f: least(
        near(f.small[shard] / f.large[shard], 1.0, abs=0.15) for shard in f.large
    )),
)
def fig15_platforms(suites, run):
    """Figure 15: DRM1 per-shard operator latencies, SC-Large vs SC-Small."""
    result_large, result_small = suites.platform_pair()
    artifact = run(lambda: figures.fig15_platforms(result_large, result_small))
    return _figure(
        artifact,
        large=result_large.mean_per_shard_op_time(),
        small=result_small.mean_per_shard_op_time(),
    )


@entry(
    # "P99 latencies improve over singular for every sharding strategy,
    # including 1-shard": asynchronous RPC waits release worker threads.
    gt("p99_improves_for_every_config", lambda f: least(
        -per_quantile[99]["latency"] for per_quantile in f.data.values()
    )),
    gt("balanced_8_p50_under_5pct", lambda f: least(
        0.05 - f.data[label][50]["latency"]
        for label in ("load-bal 8 shards", "cap-bal 8 shards")
    )),
    ge("below_serial_overheads", lambda f: least(
        (f.serial[label][q]["latency"] + 0.02) - per_quantile[q]["latency"]
        for label, per_quantile in f.data.items()
        for q in (50, 90, 99)
    )),
)
def fig16_qps_overheads(suites, run):
    """Figure 16: DRM1 overheads at 25 QPS open-loop replay."""
    results = suites.qps("DRM1")
    artifact = run(lambda: figures.fig16_qps_overheads(results))
    serial = figures.fig6_overheads(suites.serial("DRM1"), "DRM1").data
    return _figure(artifact, serial=serial)


# -- Tables ------------------------------------------------------------------------
def _ratio(values) -> float:
    return max(values) / min(values)


@entry(
    ge("one_shard_holds_all_257_tables",
       lambda f: equal(f.data["1 shard"]["tables"], [257])),
    ge("one_shard_holds_194gib",
       lambda f: near(f.data["1 shard"]["capacity_gib"][0], 194.05, rel=0.02)),
    # Paper: capacity-balanced pooling imbalance up to 371%.
    gt("cap_bal_equal_capacity", lambda f: 1.15 - _ratio(f.cap8["capacity_gib"])),
    gt("cap_bal_pooling_skewed", lambda f: _ratio(f.cap8["pooling"]) - 1.5),
    # Paper: load-balanced capacity varies up to ~50%.
    gt("load_bal_equal_pooling", lambda f: 1.1 - _ratio(f.load8["pooling"])),
    gt("load_bal_capacity_varies", lambda f: _ratio(f.load8["capacity_gib"]) - 1.1),
    # Paper: the net2 shard holds 4.75x the net1 shard's capacity yet does
    # only 6.3% of its pooling work.
    ge("nsbp2_capacity_ratio_4_75x", lambda f: near(f.cap_ratio, 4.75, rel=0.06)),
    ge("nsbp2_pooling_ratio_6_3pct", lambda f: near(f.pool_ratio, 0.063, rel=0.35)),
    # Table II's magnitude: ~139k lookups over 1000 sampled requests.
    ge("total_pooling_139k",
       lambda f: near(sum(f.data["1 shard"]["pooling"]), 138943, rel=0.1)),
)
def table2_sharding_results(suites, run):
    """Table II: sharding results for DRM1 (capacity / tables / pooling)."""
    model = suites.models["DRM1"]
    pooling = suites.pooling("DRM1")
    plans = {
        config.label: build_plan(model, config, pooling)
        for config in paper_configurations("DRM1")
        if config.strategy != SINGULAR
    }
    artifact = run(lambda: figures.table2_sharding_results(model, plans, pooling))
    nsbp2 = artifact.data["NSBP 2 shards"]
    cap_ratio = max(nsbp2["capacity_gib"]) / min(nsbp2["capacity_gib"])
    pool_ratio = min(nsbp2["pooling"]) / max(nsbp2["pooling"])
    note = (
        f"paper NSBP-2: capacity ratio 4.75x, pooling 6.3% -> "
        f"measured {cap_ratio:.2f}x, {100 * pool_ratio:.1f}%"
    )
    return _figure(
        artifact, [note],
        cap8=artifact.data["cap-bal 8 shards"],
        load8=artifact.data["load-bal 8 shards"],
        cap_ratio=cap_ratio, pool_ratio=pool_ratio,
    )


@entry(
    # Paper: 194.46 GB -> 35 GB.
    ge("compressed_5_56x_smaller", lambda f: near(f.data["ratio"], 5.56, rel=0.08)),
    ge("latency_and_cpu_marginal", lambda f: least(
        near(f.data[f"{metric}-P{q}"][1], f.data[f"{metric}-P{q}"][0], rel=0.05)
        for metric in ("CPU Time", "E2E Latency")
        for q in (50, 90, 99)
    )),
    # Paper: CPU P99 ~6.6x P50 (long-tailed request sizes).
    gt("cpu_tail_survives", lambda f: f.data["CPU Time-P99"][0] - 3.0),
    # The original models are "many times larger" than the 194 GB snapshot,
    # so even 5.56x leaves them beyond a few ~50 GB commodity servers.
    gt("compression_alone_insufficient",
       lambda f: f.report.compressed_bytes * 10 - 4 * 50e9),
)
def table3_compression(suites, run):
    """Table III: effect of quantization and pruning on DRM1."""
    base, comp, report = suites.compression_pair()
    artifact = run(lambda: figures.table3_compression(base, comp, report))
    note = f"paper ratio 5.56x -> measured {report.ratio:.2f}x"
    return _figure(artifact, [note], report=report)
