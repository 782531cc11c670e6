"""Pin the exact work three small replays do.

Wall time on a shared host drifts; a count of work does not.  Each test
replays one small fixed suite in-process (``max_workers=1``) with
counting wrappers it installs itself -- nothing under ``src/`` carries a
hook -- and compares every count with the pinned table:

* ``heap``: evaluator heap calls (every ``heapq`` function called
  through :mod:`repro.simulation.vectorized`);
* ``pool_scans``: evaluator pool scans (every ``min`` called through
  :mod:`repro.simulation.vectorized`: a grant from a pool's free list);
* ``offers``: requests offered to the evaluator
  (``SweepEvaluator.replay_chunk`` calls);
* ``events``: events the DES scheduled (each engine's sequence counter
  when ``ClusterSimulation._finish_replay`` runs);
* ``des_requests``: requests the DES replayed;
* ``chunks``: ``build_chunk_plans`` calls;
* ``finalized``: ``AggregatingTracer.finalize_request`` calls;
* ``packings``: NSBP ``_pack`` calls (bin-count search and final pack).

The equivalence tests compare results, so redundant work that changes
no column passes them; it changes a count here.  A change that moves a
count on purpose re-pins it and states old -> new with its reason.
"""

from __future__ import annotations

import functools
import heapq
import sys
import types

import pytest

from repro.chaos import CorrelatedFailure, availability_sweep
from repro.experiments import ShardingConfiguration, SuiteSettings, run_suite
from repro.models import drm1
from repro.requests import ReplaySchedule
from repro.resilience import ResiliencePolicy
from repro.serving import ServingConfig, columnar
from repro.serving.simulator import ClusterSimulation
from repro.sharding.strategies import NetSpecificBinPacking
from repro.simulation import vectorized
from repro.simulation.vectorized import SweepEvaluator
from repro.tracing.aggregate import AggregatingTracer
from repro.workloads import PiecewiseRateArrivals, Workload

REQUESTS = 40


def _suite(**settings):
    """An 11-configuration DRM1 sweep."""
    settings = SuiteSettings(num_requests=REQUESTS, **settings)
    return lambda: run_suite(drm1(), settings, max_workers=1)


def _chaos():
    """Healthy replay plus one per replica count, all under retries and
    hedging; the faulted replays run on the DES."""
    availability_sweep(
        Workload(
            "drm1-chaos", drm1(),
            PiecewiseRateArrivals.diurnal(50.0, seed=7), request_seed=3,
        ),
        ShardingConfiguration("load-bal", 4),
        (CorrelatedFailure(domain=0, at=0.1),),
        replica_counts=(1, 2),
        domains=2,
        placement="spread",
        policy=ResiliencePolicy(
            rpc_timeout=5e-3, max_attempts=3, hedge_quantile=95.0
        ),
        settings=SuiteSettings(num_requests=REQUESTS),
        max_workers=1,
    )


#: Each replay and its counts.
REPLAYS = {
    "serial": (_suite(serving=ServingConfig(seed=1)), dict(
        heap=35_770, pool_scans=6_622, offers=440, events=22, des_requests=0,
        chunks=11, finalized=440, packings=171,
    )),
    "open-loop": (_suite(
        serving=ServingConfig(seed=1, service_workers=2),
        schedule=ReplaySchedule.open_loop(200.0, seed=2),
    ), dict(
        heap=22_749, pool_scans=9_681, offers=282, events=57_053, des_requests=246,
        chunks=11, finalized=440, packings=171,
    )),
    "chaos": (_chaos, dict(
        heap=4_109, pool_scans=770, offers=39, events=24_685, des_requests=82,
        chunks=3, finalized=120, packings=0,
    )),
}


def _counting(counts, key, function):
    @functools.wraps(function)
    def counted(*args, **kwargs):
        counts[key] += 1
        return function(*args, **kwargs)

    return counted


def _install(monkeypatch) -> dict[str, int]:
    """Wrap every counted call site; returns the live counts."""
    counts = dict.fromkeys(REPLAYS["serial"][1], 0)
    monkeypatch.setattr(vectorized, "heapq", types.SimpleNamespace(**{
        name: _counting(counts, "heap", getattr(heapq, name))
        for name in heapq.__all__
    }))
    # The module's global shadows the builtin.
    monkeypatch.setattr(
        vectorized, "min", _counting(counts, "pool_scans", min), raising=False
    )
    monkeypatch.setattr(
        SweepEvaluator, "replay_chunk",
        _counting(counts, "offers", SweepEvaluator.replay_chunk),
    )
    monkeypatch.setattr(
        AggregatingTracer, "finalize_request",
        _counting(counts, "finalized", AggregatingTracer.finalize_request),
    )
    pack = vars(NetSpecificBinPacking)["_pack"].__func__
    monkeypatch.setattr(
        NetSpecificBinPacking, "_pack",
        staticmethod(_counting(counts, "packings", pack)),
    )
    # A module function is rebound wherever a repro module holds it.
    build = columnar.build_chunk_plans
    counted_build = _counting(counts, "chunks", build)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro":
            continue
        for attribute, value in list(vars(module).items()):
            if value is build:
                monkeypatch.setattr(module, attribute, counted_build)

    finish = ClusterSimulation._finish_replay

    @functools.wraps(finish)
    def finish_replay(cluster):
        counts["events"] += cluster.engine._sequence
        counts["des_requests"] += cluster.des_requests
        finish(cluster)

    monkeypatch.setattr(ClusterSimulation, "_finish_replay", finish_replay)
    return counts


@pytest.mark.parametrize("name", REPLAYS)
def test_work_counts(name, monkeypatch):
    replay, expected = REPLAYS[name]
    counts = _install(monkeypatch)
    replay()
    assert counts == expected
