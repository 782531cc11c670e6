"""Idle-arrival columnar replay == the batched DES, bit for bit.

Under the default ``vectorized`` kernel an open-loop run or a co-located
mix replays on the DES, but every request that arrives at an idle
cluster, fits the worker pools and finishes strictly before the next
arrival is replayed by the columnar evaluator instead (see "Idle
arrivals" in ``repro/simulation/vectorized.py``).  The matrix below
sweeps the busy-period share from about 0% (5 QPS) to about 100%
(1000 QPS) on roomy and 2-worker hosts, with and without clock skew;
the rest pins the tie rule, the cluster state a hybrid replay leaves
behind, and the ``des_requests`` count.
"""

import numpy as np
import pytest

from test_kernel_equivalence import assert_run_identical

from repro.experiments import (
    RunResult,
    ShardingConfiguration,
    SuiteSettings,
    build_plan,
    paper_configurations,
    run_configuration,
    run_mix_suite,
)
from repro.experiments import runner
from repro.experiments.runner import suite_requests
from repro.models import drm1, drm2, drm3
from repro.requests import ReplaySchedule
from repro.serving import ServingConfig
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.network import Fabric
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix

pytestmark = pytest.mark.filterwarnings("error")

FACTORIES = {"DRM1": drm1, "DRM2": drm2, "DRM3": drm3}


def _inputs(name, num_requests=20):
    model = FACTORIES[name]()
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    plans = [build_plan(model, c, pooling) for c in paper_configurations(name)]
    requests = suite_requests(
        model, SuiteSettings(num_requests=num_requests, pooling_requests=150)
    )
    return model, plans, requests


@pytest.mark.parametrize("qps", [5.0, 25.0, 200.0, 1000.0])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_hybrid_matches_batched(name, qps):
    """Every paper configuration on roomy hosts, on the 2-worker hosts
    of the Fig. 16 replay, and on those with skewed clocks."""
    model, plans, requests = _inputs(name)
    schedule = ReplaySchedule.open_loop(qps, seed=2)
    des = total = 0
    for workers, skew in ((32, 0.0), (2, 0.0), (2, 0.002)):
        for plan in plans:
            def replay(kernel):
                serving = ServingConfig(
                    seed=1, kernel=kernel, service_workers=workers,
                    clock_skew_sigma=skew,
                )
                return run_configuration(model, plan, requests, serving, schedule)

            batched = replay("batched")
            hybrid = replay("vectorized")
            label = (name, qps, workers, skew, plan.label)
            assert hybrid.kernel_used == "vectorized", label
            assert hybrid.kernel_fallback is None, label
            assert batched.des_requests == len(batched), label
            assert_run_identical(batched, hybrid, label)
            des += hybrid.des_requests
            total += len(hybrid)
    # The matrix spans the regimes it claims: nearly every request takes
    # the evaluator at 5 QPS, nearly none at 1000 QPS.
    if qps == 5.0:
        assert des < total / 2, (des, total)
    if qps == 1000.0:
        assert des > total / 2, (des, total)


def test_diurnal_mix_matches_batched():
    mix = WorkloadMix(
        (
            Workload(
                "drm1-mix", drm1(),
                PiecewiseRateArrivals.diurnal(80.0, seed=7), request_seed=3,
            ),
            Workload(
                "drm2-mix", drm2(),
                PiecewiseRateArrivals.diurnal(60.0, seed=8), request_seed=4,
            ),
        )
    )
    configurations = (
        ShardingConfiguration("singular"),
        ShardingConfiguration("load-bal", 2),
        ShardingConfiguration("cap-bal", 4),
    )

    def sweep(kernel):
        return run_mix_suite(
            mix,
            SuiteSettings(
                num_requests=40, pooling_requests=150,
                serving=ServingConfig(seed=1, kernel=kernel),
            ),
            configurations,
            max_workers=1,
        )

    batched = sweep("batched")
    hybrid = sweep("vectorized")
    assert list(batched) == list(hybrid)
    for label, result in hybrid.items():
        assert result.kernel_used == "vectorized", label
        assert 0 < result.des_requests < len(result), label
        assert set(result.workloads.tolist()) == {0, 1}, label
        assert_run_identical(batched[label], result, label)


def _replay_stream(model, plan, stream, kernel, planned=None):
    """Replay an explicit ``(time, tenant, request)`` stream the way
    ``run_configuration`` replays a schedule; returns the result and the
    cluster it ran on.  The cluster is built for the ``planned`` requests
    (default: the stream's own)."""
    serving = ServingConfig(seed=1, kernel=kernel)
    requests = planned or [request for _, _, request in stream]
    tracer, cluster = runner._stream_cluster(
        [(model, plan)], serving, [0] * len(requests), requests
    )
    result = RunResult(model_name=model.name, label=plan.label, plan=plan)
    runner._replay(cluster, tracer, result, cluster.run_stream, stream)
    return result, cluster


class TestCommitRule:
    @pytest.fixture(scope="class")
    def inputs(self):
        model, plans, requests = _inputs("DRM1", num_requests=2)
        plan = next(plan for plan in plans if not plan.is_singular)
        # The first request's completion float when it runs alone.
        _, cluster = _replay_stream(
            model, plan, [(0.0, 0, requests[0])], "batched"
        )
        return model, plan, requests, cluster.engine.now

    def test_arrival_at_the_completion_float_goes_to_the_des(self, inputs):
        """A tie is not "strictly before": at equal times the engine
        resumes the driver before the request's last events, so the
        second arrival finds the first still in flight."""
        model, plan, requests, done = inputs
        stream = [(0.0, 0, requests[0]), (done, 0, requests[1])]
        batched, _ = _replay_stream(model, plan, stream, "batched")
        hybrid, _ = _replay_stream(model, plan, stream, "vectorized")
        assert hybrid.des_requests == 2
        assert_run_identical(batched, hybrid, "tie")

    def test_arrival_just_after_completion_is_columnar(self, inputs):
        model, plan, requests, done = inputs
        after = float(np.nextafter(done, np.inf))
        stream = [(0.0, 0, requests[0]), (after, 0, requests[1])]
        batched, _ = _replay_stream(model, plan, stream, "batched")
        hybrid, _ = _replay_stream(model, plan, stream, "vectorized")
        assert hybrid.des_requests == 0
        assert_run_identical(batched, hybrid, "after")

    def test_unplanned_stream_entry_goes_to_the_des(self, inputs):
        """The evaluator replays only the request it planned at a stream
        position; a stream that carries another one there is the DES's."""
        model, plan, requests, done = inputs
        stream = [(0.0, 0, requests[1]), (done + 1.0, 0, requests[0])]
        batched, _ = _replay_stream(model, plan, stream, "batched")
        hybrid, _ = _replay_stream(
            model, plan, stream, "vectorized", planned=requests[:2]
        )
        assert hybrid.des_requests == 2
        assert_run_identical(batched, hybrid, "unplanned")
        planned, _ = _replay_stream(model, plan, stream, "vectorized")
        assert planned.des_requests == 0


@pytest.mark.parametrize("qps", [25.0, 400.0])
def test_hybrid_leaves_the_des_cluster_state(qps):
    """Every cluster state a later reader sees -- the fabric's jitter
    cursor and RNG state, the egress reservations, the clock and the
    completion map -- is what the batched replay leaves."""
    model, plans, requests = _inputs("DRM1", num_requests=200)
    plan = next(plan for plan in plans if plan.num_shards >= 4)
    arrivals = ReplaySchedule.open_loop(qps, seed=2).arrival_times(len(requests))
    stream = list(zip(arrivals.tolist(), [0] * len(requests), requests))
    batched, des = _replay_stream(model, plan, stream, "batched")
    hybrid, mixed = _replay_stream(model, plan, stream, "vectorized")
    assert 0 < hybrid.des_requests < len(hybrid)
    assert_run_identical(batched, hybrid, qps)
    # Two jitter draws per RPC: the replay reads past the first jitter
    # window, so the cursor has crossed a window boundary on both paths.
    assert 2 * int(hybrid.rpcs.sum()) > Fabric._JITTER_BATCH
    assert mixed.fabric._rng.bit_generator.state == des.fabric._rng.bit_generator.state
    assert mixed.fabric._jitter_pos == des.fabric._jitter_pos
    assert mixed.fabric.jitter_cursor() == des.fabric.jitter_cursor()
    assert mixed.engine.now == des.engine.now
    assert mixed.completed == des.completed
    assert mixed.main.egress_free == des.main.egress_free
    assert [s.egress_free for s in mixed.sparse_servers] == [
        s.egress_free for s in des.sparse_servers
    ]


class TestDesRequests:
    """``RunResult.des_requests`` counts the requests the DES replayed."""

    def test_serial_columnar_run_replays_none_on_the_des(self):
        model, plans, requests = _inputs("DRM1", num_requests=10)
        result = run_configuration(model, plans[1], requests, ServingConfig(seed=1))
        assert result.kernel_used == "vectorized"
        assert result.des_requests == 0

    @pytest.mark.parametrize("kernel", ["batched", "reference"])
    def test_des_kernels_replay_every_request(self, kernel):
        model, plans, requests = _inputs("DRM1", num_requests=10)
        schedule = ReplaySchedule.open_loop(25.0, seed=2)
        for serving_schedule in (None, schedule):
            result = run_configuration(
                model, plans[1], requests,
                ServingConfig(seed=1, kernel=kernel), serving_schedule,
            )
            assert result.des_requests == len(result) == 10

    def test_count_is_deterministic(self):
        model, plans, requests = _inputs("DRM1", num_requests=40)
        schedule = ReplaySchedule.open_loop(200.0, seed=2)
        counts = {
            run_configuration(
                model, plans[1], requests, ServingConfig(seed=1), schedule
            ).des_requests
            for _ in range(2)
        }
        assert len(counts) == 1 and 0 < counts.pop() < 40
