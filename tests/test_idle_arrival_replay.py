"""Idle-arrival columnar replay == the batched DES, bit for bit.

Under the default ``vectorized`` kernel every run -- serial closed-loop,
open-loop, or a co-located mix -- replays on the DES, but every request
that arrives at an idle cluster and finishes strictly before the next
arrival is replayed by the columnar evaluator instead, its batches
queueing FIFO for the worker pools (see "Idle arrivals" in
``repro/simulation/vectorized.py``).  The matrix below sweeps the
busy-period share from about 0% (5 QPS) to about 100% (1000 QPS), plus
the serial closed loop, on roomy, 2-worker and 1-worker hosts, with and
without clock skew; the rest pins the horizon and pool tie rules, the
cluster state a hybrid replay leaves behind, and the ``des_requests``
count.
"""

import dataclasses
import math

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
from repro.models import drm1, drm2, drm3
from repro.requests import (
    ReplaySchedule,
    Request,
    RequestGenerator,
    SparseFeatureDraw,
)
from repro.serving import ServingConfig
from repro.serving.simulator import ClusterSimulation
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.costmodel import CostModel
from repro.simulation.network import Fabric, FabricSpec
from repro.simulation.platform import SC_LARGE
from repro.simulation.vectorized import SweepEvaluator
from repro.tracing.aggregate import AggregatingTracer
from repro.workloads import PiecewiseRateArrivals, Workload, WorkloadMix

pytestmark = pytest.mark.filterwarnings("error")

FACTORIES = {"DRM1": drm1, "DRM2": drm2, "DRM3": drm3}


def _inputs(name, num_requests=20):
    model = FACTORIES[name]()
    pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
    plans = [build_plan(model, c, pooling) for c in paper_configurations(name)]
    requests = RequestGenerator(model, seed=3).generate_many(num_requests)
    return model, plans, requests


@pytest.mark.parametrize("qps", [None, 5.0, 25.0, 200.0, 1000.0])
@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_hybrid_matches_batched(name, qps):
    """Every paper configuration on roomy hosts, on the 2-worker hosts
    of the Fig. 16 replay, on those with skewed clocks, and on 1-worker
    hosts, where every batch queues; ``qps`` None is the serial closed
    loop."""
    model, plans, requests = _inputs(name)
    if qps is None:
        schedule = ReplaySchedule.serial()
    else:
        schedule = ReplaySchedule.open_loop(qps, seed=2)
    des = total = 0
    for workers, skew in ((32, 0.0), (2, 0.0), (2, 0.002), (1, 0.0)):
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
            if qps is None:
                # A serial request always arrives at an idle cluster
                # with an infinite horizon, and no request of these
                # inputs ties two acquires on a pool: the evaluator
                # replays every one, whatever the pool depth.
                assert hybrid.des_requests == 0, label
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


@pytest.mark.parametrize("qps", [None, 200.0])
def test_io_thread_pool_matches_batched(qps):
    """The IO-thread pool that deserializes RPC responses at the main
    shard, one and two threads deep, on a fabric with no jitter: the
    zero-byte hops are then equal, so responses reach the main shard at
    one exact time and queue for the pool far more often than under
    jitter."""
    model, plans, requests = _inputs("DRM1")
    plans = [
        plan for plan in plans
        if plan.label in ("singular", "load-bal 8 shards", "NSBP 4 shards")
    ]
    assert len(plans) == 3
    if qps is None:
        schedule = ReplaySchedule.serial()
    else:
        schedule = ReplaySchedule.open_loop(qps, seed=2)
    for io_threads in (1, 2):
        for workers in (2, 1):
            for plan in plans:
                def replay(kernel):
                    serving = ServingConfig(
                        seed=1, kernel=kernel, service_workers=workers,
                        cost_model=CostModel(io_threads=io_threads),
                        fabric_spec=FabricSpec(jitter_median=0.0),
                    )
                    return run_configuration(
                        model, plan, requests, serving, schedule
                    )

                hybrid = replay("vectorized")
                label = (qps, io_threads, workers, plan.label)
                assert hybrid.kernel_used == "vectorized", label
                if qps is None:
                    assert hybrid.des_requests == 0, label
                assert_run_identical(replay("batched"), hybrid, label)


@pytest.mark.parametrize("name", ["DRM1", "DRM3"])
def test_evaluator_counts_the_des_spans(name):
    """The evaluator's span count -- one formula for both plan shapes --
    equals the DES's on every paper configuration (singular, NSBP and
    the sharded ones), serial closed loop."""
    model, plans, requests = _inputs(name)
    for plan in plans:
        batched, des = _replay_stream(
            model, plan, requests, "batched", serial=True
        )
        hybrid, mixed = _replay_stream(
            model, plan, requests, "vectorized", serial=True
        )
        assert hybrid.des_requests == 0, plan.label
        assert mixed.tracer.spans_recorded == des.tracer.spans_recorded, (
            plan.label
        )
        assert des.tracer.spans_recorded > 0, plan.label


def _replay_stream(model, plan, stream, kernel, serial=False, **serving_kwargs):
    """Replay an explicit ``(time, tenant, request)`` stream the way
    ``run_configuration`` replays a schedule; returns the result and the
    cluster it ran on.  With ``serial``, ``stream`` is a plain request
    list replayed in a closed loop."""
    serving = ServingConfig(seed=1, kernel=kernel, **serving_kwargs)
    tracer = AggregatingTracer()
    cluster = ClusterSimulation(model, plan, serving, tracer=tracer)
    if kernel == "vectorized":
        cluster.evaluator = SweepEvaluator(cluster)
    cluster.on_complete = tracer.finalize_request
    (cluster.run_serial if serial else cluster.run_stream)(stream)
    result = RunResult(model_name=model.name, label=plan.label, plan=plan)
    result.adopt_aggregate(tracer)
    result.des_requests = cluster.des_requests
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


def _hosts(bandwidth, main_cores):
    """Serving options for hosts whose NICs run at ``bandwidth``, with a
    ``main_cores``-worker main pool."""
    return {
        "main_platform": dataclasses.replace(
            SC_LARGE, cores=main_cores, nic_bandwidth=bandwidth
        ),
        "sparse_platform": dataclasses.replace(SC_LARGE, nic_bandwidth=bandwidth),
    }


def _float_bits(value):
    return int(np.array(value, dtype=np.float64).view(np.int64))


def _bits_float(bits):
    return float(np.array(bits, dtype=np.int64).view(np.float64))


class TestPoolTies:
    """Two acquires on one pool at one exact time are ordered by the
    engine's sequence counter, which decides who waits, so the evaluator
    declines such a request to the DES.  On a jitter-free fabric with
    infinitely fast NICs, equal batches of a request run in lockstep and
    their RPC groups rejoin at one instant; on a 2-worker main pool the
    second re-acquire waits."""

    @pytest.fixture(scope="class")
    def tied(self):
        model, plans, requests = _inputs("DRM1")
        plan = next(plan for plan in plans if plan.num_shards == 2)

        def replay(request, bandwidth, kernel="vectorized"):
            result, _ = _replay_stream(
                model, plan, [(0.0, 0, request)], kernel,
                fabric_spec=FabricSpec(jitter_sigma=0.0),
                **_hosts(bandwidth, main_cores=2),
            )
            return result

        request = next(r for r in requests if replay(r, math.inf).des_requests)
        return replay, request

    def test_acquire_tie_goes_to_the_des(self, tied):
        replay, request = tied
        hybrid = replay(request, math.inf)
        assert hybrid.des_requests == 1
        assert_run_identical(replay(request, math.inf, "batched"), hybrid, "tie")

    def test_one_ulp_of_bandwidth_either_side_of_the_tie(self, tied):
        """A finite bandwidth queues the second RPC behind the first's
        wire on the egress NIC; once that wire survives rounding, the
        re-acquires no longer tie.  Bisecting the bandwidth over
        adjacent floats finds the two bandwidths, ``np.nextafter`` apart,
        either side of that edge: the lower commits, the upper ties, and
        both equal the DES."""
        replay, request = tied
        low, high = _float_bits(1e18), _float_bits(math.inf)
        assert replay(request, _bits_float(low)).des_requests == 0
        while high - low > 1:
            middle = (low + high) // 2
            if replay(request, _bits_float(middle)).des_requests:
                high = middle
            else:
                low = middle
        below, above = _bits_float(low), _bits_float(high)
        assert above == np.nextafter(below, np.inf)
        for bandwidth, des in ((below, 0), (above, 1)):
            hybrid = replay(request, bandwidth)
            assert hybrid.des_requests == des, bandwidth
            assert_run_identical(
                replay(request, bandwidth, "batched"), hybrid, bandwidth
            )

    def test_handed_over_workers_resume_in_fifo_order(self):
        """Re-acquires that waited are handed workers in FIFO order, and
        lockstep chains granted at one instant keep that order -- not
        batch order -- for their later equal-time events.  This
        configuration hands two waiting re-acquires of equal batches
        their workers at one instant, out of batch order."""
        model, plans, requests = _inputs("DRM1", num_requests=40)
        plan = next(plan for plan in plans if plan.label == "cap-bal 8 shards")
        options = _hosts(math.inf, main_cores=3)
        batched, _ = _replay_stream(
            model, plan, requests, "batched", serial=True, **options
        )
        hybrid, _ = _replay_stream(
            model, plan, requests, "vectorized", serial=True, **options
        )
        assert hybrid.des_requests == 0
        assert_run_identical(batched, hybrid, "handover")

    def test_handed_over_chains_rejoin_in_lane_order(self):
        """Chains handed workers at one instant keep their FIFO lanes
        through a wait-free re-acquire.  DRM1 with its item-scoped net
        first, four 72-item batches on a 2-core main host, a jitter-free
        fabric and infinitely fast NICs: batches 0 and 1 are equal and
        heavy in the item net, batch 3 lighter than batch 2, so batch 3
        overtakes batch 2, and both re-acquires wait behind batches 0
        and 1 and are handed workers at one instant, 3 before 2.  The
        user net is equal for all batches, so 3 and 2 then run in
        lockstep, rejoin at one instant with both workers free, and
        resume in lane order, not batch order; their ends tie, and the
        bounding batch is the one recorded first."""
        base = drm1()
        model = dataclasses.replace(base, nets=tuple(reversed(base.nets)))
        pooling = estimate_pooling_factors(model, num_requests=150, seed=42)
        plan = build_plan(model, ShardingConfiguration("load-bal", 2), pooling)
        sample = RequestGenerator(model, seed=3).generate_many(1)[0]
        batch = model.profile.batch_size
        per_item = np.repeat(np.array([200, 200, 196, 193]), batch)
        item_ids = np.repeat(np.arange(len(per_item)), per_item)
        draws = {
            name: SparseFeatureDraw(name, 40 * draw.total_ids)
            if draw.item_ids is None
            else SparseFeatureDraw(name, len(item_ids), item_ids)
            for name, draw in sample.draws.items()
        }
        request = Request(sample.request_id, 0.0, 4 * batch, draws)
        options = {
            "fabric_spec": FabricSpec(jitter_sigma=0.0),
            **_hosts(math.inf, main_cores=2),
        }
        batched, _ = _replay_stream(
            model, plan, [(0.0, 0, request)], "batched", **options
        )
        hybrid, _ = _replay_stream(
            model, plan, [(0.0, 0, request)], "vectorized", **options
        )
        assert hybrid.des_requests == 0
        assert_run_identical(batched, hybrid, "rejoin")


@pytest.mark.parametrize("qps", [None, 25.0, 400.0])
def test_hybrid_leaves_the_des_cluster_state(qps):
    """Every cluster state a later reader sees -- the fabric's jitter
    cursor and RNG state, the egress reservations, the clock and the
    completion map -- is what the batched replay leaves.  ``qps`` None
    is the serial closed loop on 2-worker hosts, where every request
    takes the evaluator and most of them queue batches."""
    model, plans, requests = _inputs("DRM1", num_requests=200)
    plan = next(plan for plan in plans if plan.num_shards >= 4)
    if qps is None:
        stream = requests
        options = {"serial": True, "service_workers": 2}
    else:
        arrivals = ReplaySchedule.open_loop(qps, seed=2).arrival_times(
            len(requests)
        )
        stream = list(zip(arrivals.tolist(), [0] * len(requests), requests))
        options = {}
    batched, des = _replay_stream(model, plan, stream, "batched", **options)
    hybrid, mixed = _replay_stream(model, plan, stream, "vectorized", **options)
    if qps is None:
        assert hybrid.des_requests == 0
        assert (hybrid.num_batches > 2).any()
    else:
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

    def test_des_kernel_replays_every_request(self):
        model, plans, requests = _inputs("DRM1", num_requests=10)
        schedule = ReplaySchedule.open_loop(25.0, seed=2)
        for serving_schedule in (None, schedule):
            result = run_configuration(
                model, plans[1], requests,
                ServingConfig(seed=1, kernel="batched"), serving_schedule,
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
