"""Command-line interface: ``python -m repro <command>``.

Exposes the library's main workflows without writing code:

* ``models``   -- list the model zoo with capacity/table summaries;
* ``shard``    -- build a sharding plan and print (or save) it;
* ``simulate`` -- run one configuration and print latency/CPU quantiles;
* ``suite``    -- run the paper's configuration matrix and print Figure-6
  style overheads;
* ``workload`` -- co-locate several models under a chosen arrival process
  (poisson / constant / diurnal / mmpp) and print per-workload latency,
  optionally with a cache-aware correlated-stream hit-rate summary;
* ``plan``     -- closed-loop capacity planning: simulate every candidate
  sharding configuration under the mix's arrival processes, check the
  latency SLA per workload, size replicas from measured per-shard CPU
  demand, enforce per-server DRAM capacity, and print the cheapest
  feasible deployment;
* ``chaos``    -- fault-injection availability sweep: replay one
  configuration under crash/straggler/network-spike experiments at
  increasing sparse-replica counts, and report availability, SLO
  retention, and the replica count needed for a retention target;
* ``lint``     -- static determinism lint: reject RNG/replay-contract
  hazards (global-state RNG, unseeded generators, wall-clock reads,
  draws under unordered iteration, salted ``hash()``, duplicated
  substream key paths, env reads in the simulation core) before a
  sweep can silently diverge; exits 1 on findings;
* ``trace``    -- replay one request and render the Figure-3 timeline.

Each shared flag is declared once and each config object has one
builder.  A verb builds every config it needs before its first replay,
inside :func:`_usage`: a value the constructors reject exits 2 with a
one-line message; a replay's own ``ValueError`` keeps its traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

# Only what build_parser needs loads with the module: each verb imports
# its own subsystems in its handler, so ``repro lint`` never loads the
# simulator and ``repro models`` never loads the planner.
from repro.chaos.faults import PLACEMENTS
from repro.core.types import GIB, Contract, count, finite_positive, fraction
from repro.models.zoo import MODEL_FACTORIES, build
from repro.sharding.plan import SINGULAR

if TYPE_CHECKING:
    from repro.experiments.configs import ShardingConfiguration
    from repro.experiments.runner import SuiteSettings
    from repro.resilience.policy import ResiliencePolicy
    from repro.workloads.workload import WorkloadMix

STRATEGIES = [SINGULAR, "1-shard", "load-bal", "cap-bal", "NSBP"]


def _flag(cast: Callable[[str], Any], contract: Contract) -> Callable[[str], Any]:
    """An argparse type: ``cast`` the raw string, then check ``contract``."""

    def parse(raw: str) -> Any:
        try:
            return contract.check("value", cast(raw))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be {contract.rule}, got {raw!r}"
            ) from None

    return parse


#: Counts (requests, shards, replicas, workers): an integer >= 1.
_positive_int = _flag(int, count)
#: Rates, multipliers and durations: a finite number > 0.
_positive_float = _flag(float, finite_positive)
#: Fractions of a whole (cache size, diurnal trough): a number in (0, 1].
_fraction = _flag(float, fraction)


@contextlib.contextmanager
def _usage(args: argparse.Namespace) -> Iterator[None]:
    """Wrap a verb's config building: a ``ValueError`` raised here is a
    bad flag value, so it exits 2 through the verb's parser.  Replays run
    outside this block, so their errors keep their tracebacks."""
    try:
        yield
    except ValueError as exc:
        args.parser.error(str(exc))


def _add_run_arguments(
    parser: argparse.ArgumentParser,
    *,
    models: list[str] | None = None,
    shards: int | None = None,
    strategies: list[str] = STRATEGIES,
    pooling: bool = True,
    requests: int | None = None,
    workers: bool = False,
) -> None:
    """The run flags the simulating verbs share, with the verb's own
    defaults.  ``models`` declares ``--models`` (one workload each)
    instead of ``--model``; ``shards=None`` leaves out ``--strategy`` and
    ``--shards``, ``requests=None`` leaves out ``--requests``."""
    if models is None:
        parser.add_argument(
            "--model", default="DRM1", choices=sorted(MODEL_FACTORIES),
            help="zoo model to operate on",
        )
    else:
        parser.add_argument(
            "--models", nargs="+", default=models,
            choices=sorted(MODEL_FACTORIES),
            help="one workload per named model (repeat a name to co-locate "
            "two instances of the same model)",
        )
    if shards is not None:
        parser.add_argument(
            "--strategy", default="load-bal", choices=strategies,
            help="sharding strategy"
            + (" applied to every workload's model" if models else ""),
        )
        parser.add_argument("--shards", type=_positive_int, default=shards)
    if pooling:
        parser.add_argument("--pooling-requests", type=_positive_int, default=300)
    if requests is not None:
        parser.add_argument(
            "--requests", type=_positive_int, default=requests,
            help="request count per workload" if models else None,
        )
    parser.add_argument("--seed", type=int, default=1)
    if workers:
        parser.add_argument(
            "--workers", type=_positive_int, default=None,
            help="worker-process cap for the sweep's cluster replays "
            "(default: REPRO_SWEEP_WORKERS, else the usable CPUs); output "
            "is byte-identical for every count, and 1 replays in-process",
        )


def _add_arrival_arguments(
    parser: argparse.ArgumentParser, arrivals: str, qps: float
) -> None:
    """The arrival-process flags of the open-loop verbs."""
    parser.add_argument(
        "--arrivals", default=arrivals,
        choices=["poisson", "constant", "diurnal", "mmpp"],
        help="arrival process per workload: 'poisson' fixed-QPS open loop, "
        "'constant' deterministic gaps, 'diurnal' non-homogeneous Poisson "
        "over the sinusoidal day curve, 'mmpp' bursty Markov-modulated "
        "Poisson alternating qps/2 and 2*qps states",
    )
    parser.add_argument(
        "--qps", type=_positive_float, default=qps,
        help="rate per workload: the fixed/constant rate, the diurnal peak, "
        "or the MMPP anchor rate",
    )
    parser.add_argument(
        "--trough-fraction", type=_fraction, default=0.35,
        help="diurnal trough as a fraction of peak QPS",
    )
    parser.add_argument(
        "--hours", type=_positive_int, default=24,
        help="length of the diurnal curve",
    )
    parser.add_argument(
        "--dwell-seconds", type=_positive_float, default=60.0,
        help="mean MMPP state dwell time",
    )


def _configuration(args: argparse.Namespace) -> ShardingConfiguration:
    from repro.experiments.configs import ShardingConfiguration

    if args.strategy == SINGULAR:
        return ShardingConfiguration(SINGULAR)
    if args.strategy == "1-shard":
        return ShardingConfiguration("1-shard", 1)
    return ShardingConfiguration(args.strategy, args.shards)


def _plan(args: argparse.Namespace):
    """The ``--model``'s zoo config and its sharding plan, from a pooling
    sample of ``--pooling-requests`` (shard, simulate, trace).  Callers
    build it inside :func:`_usage`: a plan the strategy cannot build for
    these flags is a usage error."""
    from repro.experiments.configs import build_plan
    from repro.sharding.pooling import estimate_pooling_factors

    model = build(args.model)
    pooling = estimate_pooling_factors(model, num_requests=args.pooling_requests)
    return model, build_plan(model, _configuration(args), pooling)


def _settings(args: argparse.Namespace) -> SuiteSettings:
    """The sweep settings of every verb that replays through the runner;
    ``suite`` has no ``--pooling-requests`` and keeps the library's
    pooling sample."""
    from repro.experiments.runner import SuiteSettings
    from repro.serving.simulator import ServingConfig

    return SuiteSettings(
        num_requests=args.requests,
        pooling_requests=getattr(
            args, "pooling_requests", SuiteSettings.pooling_requests
        ),
        serving=ServingConfig(seed=args.seed),
    )


def _arrival_process(args: argparse.Namespace, seed: int):
    from repro.workloads.arrivals import (
        ConstantRateArrivals,
        MMPPArrivals,
        PiecewiseRateArrivals,
        PoissonArrivals,
    )

    if args.arrivals == "poisson":
        return PoissonArrivals(args.qps, seed=seed)
    if args.arrivals == "constant":
        return ConstantRateArrivals(args.qps)
    if args.arrivals == "diurnal":
        return PiecewiseRateArrivals.diurnal(
            args.qps, trough_fraction=args.trough_fraction,
            hours=args.hours, seed=seed,
        )
    return MMPPArrivals(
        (args.qps / 2.0, 2.0 * args.qps),
        mean_dwell_seconds=args.dwell_seconds, seed=seed,
    )


def _mix(args: argparse.Namespace) -> WorkloadMix:
    """One workload per ``--models`` entry (chaos: its one ``--model``).

    Workload ``index`` seeds its arrivals, requests and (with
    ``--cache-summary``) correlated id stream at ``--seed + index``, so
    co-located tenants draw independent streams."""
    from repro.requests.access_trace import CorrelatedStream
    from repro.workloads.workload import Workload, WorkloadMix

    names = args.models if "models" in args else [args.model]
    correlated = getattr(args, "cache_summary", False)
    workloads = []
    for index, name in enumerate(names):
        seed = args.seed + index
        workloads.append(
            Workload(
                name=f"{name.lower()}-{index}" if names.count(name) > 1 else name,
                model=build(name),
                arrivals=_arrival_process(args, seed),
                request_seed=seed,
                id_stream=(
                    CorrelatedStream(recency_weight=args.recency_weight, seed=seed)
                    if correlated
                    else None
                ),
            )
        )
    return WorkloadMix(tuple(workloads))


def _seconds(ms: float | None) -> float | None:
    """An optional millisecond flag in seconds."""
    return None if ms is None else ms / 1e3


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "resilience policy",
        "per-attempt timeouts, retries, hedging, and request deadlines for "
        "the faulted replays; leave every flag unset for the historical "
        "failover-only path (byte-identical to runs without the policy)",
    )
    group.add_argument(
        "--retry-timeout-ms", type=float, default=None,
        help="per-attempt RPC timeout in milliseconds; a timed-out attempt "
        "is replaced (budget permitting) up to --retry-max-attempts",
    )
    group.add_argument(
        "--retry-max-attempts", type=int, default=None,
        help="total attempts per RPC including the first (default 1; "
        "hedge flags imply 2)",
    )
    group.add_argument(
        "--retry-backoff-ms", type=float, default=0.0,
        help="exponential backoff base before each retry, milliseconds",
    )
    group.add_argument(
        "--retry-jitter", type=float, default=0.0,
        help="deterministic jitter fraction stretching each backoff "
        "(draws from the dedicated 'resilience' substream)",
    )
    group.add_argument(
        "--retry-budget", type=float, default=10.0,
        help="token-bucket capacity for extra attempts (anti-retry-storm)",
    )
    group.add_argument(
        "--retry-refill", type=float, default=10.0,
        help="token-bucket refill rate, tokens per simulated second",
    )
    group.add_argument(
        "--hedge-ms", type=float, default=None,
        help="issue one speculative duplicate this many milliseconds after "
        "the first send; first response wins",
    )
    group.add_argument(
        "--hedge-quantile", type=float, default=None,
        help="derive the hedge delay from this percentile of the healthy "
        "baseline's per-request embedded totals (e.g. 95)",
    )
    group.add_argument(
        "--deadline-ms", type=float, default=None,
        help="end-to-end request deadline in milliseconds; no new attempts "
        "start past it and overruns are flagged per request",
    )


def _resilience_policy(args: argparse.Namespace) -> ResiliencePolicy | None:
    """Build the policy from CLI flags; ``None`` when no timeout,
    attempt cap, hedge or deadline flag was set.  It is built either way,
    so every flag's value is checked."""
    from repro.resilience.policy import ResiliencePolicy

    hedging = args.hedge_ms is not None or args.hedge_quantile is not None
    max_attempts = args.retry_max_attempts
    if max_attempts is None:
        # Hedging needs a second attempt to issue; a bare timeout or
        # deadline changes accounting but not the attempt cap.
        max_attempts = 2 if hedging else 1
    policy = ResiliencePolicy(
        rpc_timeout=_seconds(args.retry_timeout_ms),
        max_attempts=max_attempts,
        backoff_base=args.retry_backoff_ms / 1e3,
        backoff_jitter=args.retry_jitter,
        hedge_delay=_seconds(args.hedge_ms),
        hedge_quantile=args.hedge_quantile,
        deadline=_seconds(args.deadline_ms),
        retry_budget=args.retry_budget,
        retry_refill_rate=args.retry_refill,
    )
    unset = policy.is_empty and args.retry_max_attempts is None
    return None if unset else policy


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """The fault-suite flags of ``plan --assess-availability`` and
    ``chaos``."""
    parser.add_argument(
        "--crash-at", type=float, default=0.1,
        help="crash time in simulated seconds",
    )
    parser.add_argument(
        "--domains", type=_positive_int, default=1,
        help="fault domains to place sparse replicas across (racks/zones); "
        "1 disables domain-aware placement",
    )
    parser.add_argument(
        "--placement", default="spread", choices=list(PLACEMENTS),
        help="'spread' stripes a shard's replicas across domains so one "
        "domain crash leaves survivors; 'packed' fills domain-by-domain",
    )


def cmd_models(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table

    rows = []
    for name in sorted(MODEL_FACTORIES):
        model = build(name)
        pooling = model.expected_pooling_per_net()
        rows.append(
            (
                name,
                len(model.tables),
                round(model.sparse_bytes / GIB, 2),
                round(model.largest_table_bytes / GIB, 2),
                len(model.nets),
                round(sum(pooling.values()), 1),
            )
        )
    print(
        format_table(
            ["model", "tables", "sparse GiB", "largest GiB", "nets", "ids/request"],
            rows,
            title="Model zoo",
        )
    )
    return 0


def cmd_shard(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.sharding.serialization import dump_plan

    with _usage(args):
        model, plan = _plan(args)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dump_plan(plan))
        print(f"wrote {plan.label} plan to {args.output}")
        return 0
    rows = [
        (
            shard.index + 1,
            round(shard.capacity_bytes(model) / GIB, 2),
            len(shard.assignments),
            ", ".join(sorted(shard.nets_present(model))),
        )
        for shard in plan.shards
    ]
    print(
        format_table(
            ["shard", "capacity GiB", "tables", "nets"],
            rows,
            title=f"{model.name}: {plan.label}",
        )
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.runner import run_configuration
    from repro.requests.generator import RequestGenerator
    from repro.serving.simulator import ServingConfig

    with _usage(args):
        model, plan = _plan(args)
    requests = RequestGenerator(model, seed=args.seed).generate_many(args.requests)
    result = run_configuration(model, plan, requests, ServingConfig(seed=args.seed))
    rows = [
        (
            f"P{q}",
            round(float(np.percentile(result.e2e, q)) * 1e3, 3),
            round(float(np.percentile(result.cpu, q)) * 1e3, 3),
        )
        for q in (50, 90, 99)
    ]
    print(
        format_table(
            ["quantile", "E2E latency (ms)", "aggregate CPU (ms)"],
            rows,
            title=f"{model.name} / {plan.label} ({args.requests} serial requests)",
        )
    )
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.experiments.runner import run_suite

    model = build(args.model)
    settings = _settings(args)
    if args.profile:
        import cProfile
        import pstats
        import time

        profiler = cProfile.Profile()
        start = time.perf_counter()  # detlint: disable=DET003 -- profiling host wall time, not simulated time
        profiler.enable()
        try:
            # One worker, so the profile sees the replay, not a pool wait.
            results = run_suite(model, settings, max_workers=1)
        finally:
            profiler.disable()
        elapsed = time.perf_counter() - start  # detlint: disable=DET003 -- profiling host wall time, not simulated time
        print(f"[profile] sweep wall time {elapsed:.2f}s", file=sys.stderr)
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
    else:
        results = run_suite(model, settings, max_workers=args.workers)
    base = results[SINGULAR]
    rows = []
    for label, result in results.items():
        if label == SINGULAR:
            continue
        row = [label]
        for q in (50, 99):
            overhead = (
                np.percentile(result.e2e, q) - np.percentile(base.e2e, q)
            ) / np.percentile(base.e2e, q)
            row.append(f"{overhead:+.1%}")
        cpu = (
            np.percentile(result.cpu, 50) - np.percentile(base.cpu, 50)
        ) / np.percentile(base.cpu, 50)
        row.append(f"{cpu:+.1%}")
        rows.append(tuple(row))
    print(
        format_table(
            ["configuration", "P50 latency", "P99 latency", "P50 compute"],
            rows,
            title=f"{model.name} overheads vs singular ({args.requests} requests)",
        )
    )
    return 0


def cmd_workload(args: argparse.Namespace) -> int:
    from repro.analysis.caching import trace_hit_summary
    from repro.analysis.report import format_table
    from repro.experiments.runner import (
        mix_plans,
        mix_poolings,
        mix_stream,
        run_mix_configuration,
    )

    with _usage(args):
        mix = _mix(args)
        settings = _settings(args)
        configuration = _configuration(args)
        plans = mix_plans(mix, configuration, mix_poolings(mix, settings))
    result = run_mix_configuration(
        mix, plans, mix_stream(mix, settings), settings.resolved_serving(),
        label=configuration.label,
    )
    rows = []
    per_workload = result.per_workload_e2e()
    for workload, plan in zip(mix.workloads, result.plans):
        latencies = per_workload[workload.name]
        rows.append(
            (
                workload.name,
                workload.model.name,
                plan.label,
                len(latencies),
                round(float(np.percentile(latencies, 50)) * 1e3, 3),
                round(float(np.percentile(latencies, 99)) * 1e3, 3),
            )
        )
    rows.append(
        (
            "all", "-", "-", len(result),
            round(float(np.percentile(result.e2e, 50)) * 1e3, 3),
            round(float(np.percentile(result.e2e, 99)) * 1e3, 3),
        )
    )
    print(
        format_table(
            ["workload", "model", "plan", "requests", "P50 (ms)", "P99 (ms)"],
            rows,
            title=(
                f"co-located {'+'.join(w.model.name for w in mix.workloads)} "
                f"under {args.arrivals} arrivals ({args.qps} QPS peak)"
            ),
        )
    )
    if args.cache_summary:
        cache_rows = []
        stream = mix_stream(mix, settings)
        for name, trace in mix.access_traces(stream).items():
            summary = trace_hit_summary(trace, cache_fraction=args.cache_fraction)
            cache_rows.append(
                (name, trace.total_accesses(), round(summary["overall"], 3))
            )
        print()
        print(
            format_table(
                ["workload", "accesses", "LRU hit rate"],
                cache_rows,
                title=(
                    f"correlated-stream cache summary "
                    f"(LRU at {args.cache_fraction:.0%} of working set)"
                ),
            )
        )
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.report import (
        CAPACITY_CANDIDATE_HEADERS,
        CAPACITY_SIZING_HEADERS,
        capacity_candidate_rows,
        capacity_sizing_rows,
        format_table,
    )
    from repro.chaos.experiment import format_assessment
    from repro.chaos.faults import CorrelatedFailure, HostCrash
    from repro.planning.capacity import CandidateSpace, CapacityPlanner
    from repro.planning.sla import SlaPolicy

    with _usage(args):
        mix = _mix(args)
        planner = CapacityPlanner(
            policy=None if args.target_ms is None else SlaPolicy(args.target_ms / 1e3),
            space=CandidateSpace(utilization_targets=tuple(args.utilization)),
            settings=_settings(args),
            slack=args.slack,
        )
        experiments = (
            CorrelatedFailure(domain=0, at=args.crash_at)
            if args.domains > 1
            else HostCrash(shard=0, at=args.crash_at),
        )
        policy = _resilience_policy(args)
    plan = planner.plan(mix, max_workers=args.workers)
    origin = (
        "explicit" if args.target_ms is not None
        else f"singular P99 x {args.slack}"
    )
    print(f"SLA window: {plan.policy.target_latency * 1e3:.3f} ms ({origin})")
    print(
        format_table(
            CAPACITY_CANDIDATE_HEADERS,
            capacity_candidate_rows(plan.candidates),
            title=(
                f"closed-loop search: {'+'.join(w.model.name for w in mix.workloads)} "
                f"under {args.arrivals} arrivals (sizing peaks: "
                + ", ".join(
                    f"{w.arrivals.peak_rate():g} QPS" for w in mix.workloads
                )
                + ")"
            ),
        )
    )
    if not plan.feasible:
        print("\nno feasible deployment: no candidate meets the SLA within DRAM capacity")
        return 1
    chosen = plan.chosen
    print(
        f"\nchosen: {chosen.label} at {chosen.utilization_target:.0%} utilization "
        f"-- {chosen.total_servers} servers, "
        f"{chosen.total_memory_bytes / GIB:.1f} GiB pinned"
    )
    print(
        format_table(
            CAPACITY_SIZING_HEADERS,
            capacity_sizing_rows(chosen.workloads),
            title="per-workload sizing (label-column demand, own sharding plan)",
        )
    )
    if args.assess_availability:
        assessment = planner.assess_availability(
            mix,
            chosen,
            experiments,
            tuple(args.assess_replicas),
            domains=args.domains,
            placement=args.placement,
            policy=policy,
            max_workers=args.workers,
        )
        print(
            "\navailability assessment under "
            + ", ".join(type(e).__name__ for e in experiments)
            + ":"
        )
        print("\n".join(format_assessment(assessment)))
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos.experiment import (
        availability_sweep,
        fault_schedules,
        format_assessment,
    )
    from repro.chaos.faults import (
        CorrelatedFailure,
        HealingPolicy,
        HostCrash,
        NetworkSpike,
        StragglerShard,
    )
    from repro.experiments.runner import mix_plans, mix_poolings

    with _usage(args):
        mix = _mix(args)
        configuration = _configuration(args)
        experiments: list = []
        if not args.no_crash:
            experiments.append(
                HostCrash(args.crash_shard, args.crash_at, args.restart_after)
            )
        if args.straggler is not None:
            experiments.append(StragglerShard(*args.straggler))
        if args.spike is not None:
            start, duration, extra_ms = args.spike
            experiments.append(
                NetworkSpike(start, duration, extra_latency=extra_ms / 1e3)
            )
        if args.correlated_domain is not None:
            experiments.append(
                CorrelatedFailure(
                    domain=args.correlated_domain,
                    at=args.correlated_at,
                    restart_after=args.correlated_restart,
                    stagger=args.correlated_stagger,
                )
            )
        healing = (
            HealingPolicy(
                check_interval=args.check_interval,
                consecutive_misses=args.misses,
                recovery_lag=args.recovery_lag,
            )
            if args.heal
            else None
        )
        policy = _resilience_policy(args)
        settings = _settings(args)
        # Every fault must target a shard and replica the plans provide.
        fault_schedules(
            experiments,
            args.replicas,
            mix_plans(mix, configuration, mix_poolings(mix, settings)),
            healing=healing,
            domains=args.domains,
            placement=args.placement,
        )
    assessment = availability_sweep(
        mix,
        configuration,
        tuple(experiments),
        tuple(args.replicas),
        healing=healing,
        domains=args.domains,
        placement=args.placement,
        policy=policy,
        settings=settings,
        slo_latency=_seconds(args.slo_ms),
        slo_slack=args.slack,
        window=args.window,
        max_workers=args.workers,
    )
    title = (
        f"chaos sweep: {mix.workloads[0].model.name} / {configuration.label} under "
        + ", ".join(type(experiment).__name__ for experiment in experiments)
        + (" with healing" if healing else "")
    )
    lines = [title, ""]
    lines.extend(format_assessment(assessment))
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.report:
        with open(args.report, "w") as handle:
            handle.write(report)
        print(f"\nwrote availability report to {args.report}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.config import AllowRule, LintConfig
    from repro.lint.reporters import render_json, render_text
    from repro.lint.runner import lint_paths

    config = LintConfig(allowlist=()) if args.no_default_allow else LintConfig()
    if args.allow:
        config = config.with_extra(
            tuple(AllowRule.parse(spec) for spec in args.allow)
        )
    report = lint_paths(args.paths, config)
    rendered = (
        render_json(report) if args.format == "json" else render_text(report)
    )
    print(rendered)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
            handle.write("\n")
        print(f"wrote lint report to {args.output}", file=sys.stderr)
    return 1 if report.findings else 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.requests.generator import RequestGenerator
    from repro.serving.simulator import ClusterSimulation, ServingConfig
    from repro.tracing.visualize import render_trace

    with _usage(args):
        model, plan = _plan(args)
    request = RequestGenerator(model, seed=args.seed).generate(args.request_id)
    cluster = ClusterSimulation(model, plan, ServingConfig(seed=args.seed))
    cluster.run_serial([request])
    print(render_trace(cluster.tracer.for_request(request.request_id), width=args.width))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Capacity-driven scale-out recommendation inference (ISPASS 2021 reproduction)",
        epilog="Every verb above replays deterministically: identical "
        "inputs give byte-identical results across --workers counts and "
        "chaos baselines (the contract in repro/core/rng.py).  'repro "
        "lint' enforces that contract statically -- run it (like CI does, "
        "next to 'repro plan' and 'repro chaos' smokes) before landing "
        "changes to simulation, serving, or chaos code.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def verb(name, func, **kwargs) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, **kwargs)
        sub.set_defaults(func=func, parser=sub)
        return sub

    verb("models", cmd_models, help="list the model zoo")

    shard = verb("shard", cmd_shard, help="build and print a sharding plan")
    _add_run_arguments(shard, shards=8)
    shard.add_argument("--output", help="write the plan as JSON to this path")

    simulate = verb("simulate", cmd_simulate, help="simulate one configuration")
    _add_run_arguments(simulate, shards=8, requests=150)

    suite = verb("suite", cmd_suite, help="run the paper's config matrix")
    _add_run_arguments(suite, pooling=False, requests=120, workers=True)
    suite.add_argument(
        "--profile", action="store_true",
        help="profile the sweep with cProfile and print the top 25 "
        "functions by cumulative time to stderr (results are unchanged; "
        "the sweep runs on one worker so the profile sees the replay)",
    )

    workload = verb(
        "workload", cmd_workload,
        help="co-locate models under a chosen arrival process",
        description="Run a multi-model workload mix on one shared simulated "
        "cluster: each model gets its own sharding plan, requests "
        "interleave by merged arrival order, and contention between the "
        "models is simulated on shared hosts.  Prints per-workload and "
        "overall latency quantiles.",
    )
    _add_run_arguments(workload, models=["DRM1", "DRM2"], shards=4, requests=120)
    _add_arrival_arguments(workload, "diurnal", 40.0)
    workload.add_argument(
        "--cache-summary", action="store_true",
        help="also emit each workload's temporally-correlated "
        "(popularity + recency) sparse-ID stream and print its LRU "
        "cache hit rates",
    )
    workload.add_argument(
        "--cache-fraction", type=_fraction, default=0.10,
        help="cache size for --cache-summary, as a fraction of each "
        "table's observed working set",
    )
    workload.add_argument(
        "--recency-weight", type=float, default=0.3,
        help="probability an access re-references a recently touched row "
        "(--cache-summary streams)",
    )

    plan = verb(
        "plan", cmd_plan,
        help="closed-loop SLA-driven capacity planning over a workload mix",
        description="Search the deployment space (sharding configuration x "
        "utilization target) for the cheapest deployment that meets a "
        "latency SLA: each candidate is simulated under the mix's arrival "
        "processes (co-location contention included), checked per workload "
        "against the SLA, sized from measured per-shard CPU demand, and "
        "required to fit every server's pinned bytes in platform DRAM.  "
        "Exits 1 when no candidate qualifies.",
    )
    _add_run_arguments(plan, models=["DRM1", "DRM2"], requests=60, workers=True)
    _add_arrival_arguments(plan, "diurnal", 40.0)
    plan.add_argument(
        "--target-ms", type=_positive_float, default=None,
        help="explicit SLA window in milliseconds; default derives it from "
        "the mix's own singular baseline (P99 x slack)",
    )
    plan.add_argument(
        "--slack", type=_positive_float, default=1.5,
        help="headroom multiplier for the derived SLA window (ignored with "
        "--target-ms)",
    )
    plan.add_argument(
        "--utilization", nargs="+", type=float, default=[0.4, 0.6, 0.8],
        help="candidate utilization ceilings, headroom-first (ties resolve "
        "toward the first listed)",
    )
    plan.add_argument(
        "--assess-availability", action="store_true",
        help="after choosing a plan, re-simulate it under a chaos suite "
        "(a correlated domain crash with --domains > 1, a host crash "
        "otherwise) and report replicas-for-N-nines sizing",
    )
    plan.add_argument(
        "--assess-replicas", nargs="+", type=_positive_int, default=[1, 2, 3],
        help="sparse replica counts the availability assessment sweeps",
    )
    _add_fault_arguments(plan)
    _add_resilience_arguments(plan)

    chaos = verb(
        "chaos", cmd_chaos,
        help="fault-injection availability sweep over replica counts",
        description="Replay one sharded configuration under a deterministic "
        "fault suite (host crash, straggler shard, network spike) at "
        "increasing sparse-replica counts.  Each request ends ok (full, "
        "in-SLO), slow, degraded (dense-only partial result), or failed; "
        "the sweep reports availability and SLO retention per replica "
        "count, the replica count needed for the retention targets, and "
        "the crash/heal timeline.",
    )
    # Chaos needs remote sparse shards, so singular is excluded.
    _add_run_arguments(
        chaos, shards=4, strategies=STRATEGIES[1:], requests=120, workers=True
    )
    _add_arrival_arguments(chaos, "poisson", 80.0)
    chaos.add_argument(
        "--replicas", nargs="+", type=_positive_int, default=[1, 2, 3],
        help="sparse replica counts to sweep",
    )
    chaos.add_argument(
        "--crash-shard", type=int, default=0,
        help="shard whose replica 0 crashes (see --no-crash)",
    )
    chaos.add_argument(
        "--restart-after", type=float, default=None,
        help="bring the crashed host back after this many seconds "
        "(default: stays down)",
    )
    chaos.add_argument(
        "--no-crash", action="store_true",
        help="drop the default host-crash experiment",
    )
    chaos.add_argument(
        "--straggler", nargs=4, type=float, default=None,
        metavar=("SHARD", "START", "DURATION", "MULT"),
        help="slow one shard's service times by MULT over [START, START+DURATION)",
    )
    chaos.add_argument(
        "--spike", nargs=3, type=float, default=None,
        metavar=("START", "DURATION", "EXTRA_MS"),
        help="add EXTRA_MS one-way latency to every RPC over [START, START+DURATION)",
    )
    chaos.add_argument(
        "--correlated-domain", type=int, default=None,
        help="crash every host in this fault domain at --correlated-at "
        "(requires --domains > 1 to be interesting)",
    )
    chaos.add_argument(
        "--correlated-at", type=float, default=0.1,
        help="correlated-failure time in simulated seconds",
    )
    chaos.add_argument(
        "--correlated-restart", type=float, default=None,
        help="bring the crashed domain back after this many seconds",
    )
    chaos.add_argument(
        "--correlated-stagger", type=float, default=0.0,
        help="spread the per-host crash instants over this window "
        "(deterministic draws from the chaos/correlated substream)",
    )
    _add_fault_arguments(chaos)
    _add_resilience_arguments(chaos)
    chaos.add_argument(
        "--heal", action="store_true",
        help="run the self-healing controller (heartbeat detection + "
        "re-replication)",
    )
    chaos.add_argument("--check-interval", type=float, default=0.05)
    chaos.add_argument("--misses", type=_positive_int, default=2)
    chaos.add_argument("--recovery-lag", type=float, default=0.25)
    chaos.add_argument(
        "--slo-ms", type=_positive_float, default=None,
        help="explicit latency SLO in milliseconds (default: healthy p99 "
        "x --slack)",
    )
    chaos.add_argument("--slack", type=_positive_float, default=1.5)
    chaos.add_argument(
        "--window", type=_positive_float, default=0.5,
        help="availability-timeline bin width in seconds",
    )
    chaos.add_argument(
        "--report", default=None,
        help="also write the availability report to this path",
    )

    lint = verb(
        "lint", cmd_lint,
        help="statically enforce the determinism contract (exit 1 on findings)",
        description="AST-based determinism lint over the given files or "
        "directories.  Rules DET001-DET007 reject RNG/replay-contract "
        "hazards: global-state RNG (DET001), unseeded generators "
        "(DET002), wall-clock reads (DET003), draws under unordered "
        "iteration (DET004), salted hash() in seed derivation (DET005), "
        "duplicated constant substream key paths across the whole linted "
        "tree (DET006), and os.environ reads inside the simulation core "
        "(DET007).  Silence a finding with a path-scoped allowlist entry "
        "or an inline '# detlint: disable=DETnnn -- <reason>' comment; "
        "the reason is mandatory.",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format", default="text", choices=["text", "json"],
        help="report format ('json' is the versioned CI-artifact form)",
    )
    lint.add_argument(
        "--output", default=None,
        help="also write the report to this path",
    )
    lint.add_argument(
        "--allow", action="append", default=None, metavar="DETnnn:GLOB",
        help="extra allowlist entry, e.g. DET003:benchmarks/* (repeatable)",
    )
    lint.add_argument(
        "--no-default-allow", action="store_true",
        help="drop the built-in allowlist (DET003 under benchmarks/*)",
    )

    trace = verb("trace", cmd_trace, help="render one request's trace")
    _add_run_arguments(trace, shards=8)
    trace.add_argument("--request-id", type=int, default=0)
    trace.add_argument("--width", type=_positive_int, default=96)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
