"""Exact ties: the evaluator == the DES when events land on one instant.

The paper's constants and lognormal fabric jitter almost never put two
events of a request on one exact time, so the equivalence suites see few
ties.  Dyadic constants make them common: every ``CostModel`` time field
here is a multiple (0-32) of 2**-20 s, and sums of such multiples are
exact, so chains of equal costs run in lockstep and chains of unequal
ones meet by rounding.  The engine breaks a tie by its sequence counter;
the evaluator must reproduce that order (its dispatch keys) on every
resource a tie can contend for -- the egress NICs, the jitter cursor,
the worker pools and IO threads -- and in the order it folds CPU
charges.  Each case replays one plan under ``batched`` and
``vectorized`` and compares every column bit for bit, and every
request's CPU charges in the order they are folded: an equal-time
charge folded out of the DES's order can leave the sums unchanged (a
zero charge, or exact dyadic terms) and still be wrong.  Each case also
draws the replay's chunk size, so open-loop busy periods straddle chunk
boundaries, and the servers' clock skew: mostly none, else skews drawn
at a dyadic sigma, which move every wall-stamped duration off the
dyadic grid while the event times stay on it.
"""

import functools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_kernel_equivalence import assert_run_identical

from repro.experiments import ShardingConfiguration, build_plan, run_configuration
from repro.models import drm1, drm2, drm3
from repro.requests import RequestGenerator
from repro.serving import ServingConfig, columnar
from repro.sharding.pooling import estimate_pooling_factors
from repro.simulation.costmodel import CostModel
from repro.simulation.network import FabricSpec
from repro.tracing import aggregate
from repro.workloads import PoissonArrivals, SerialArrivals

pytestmark = pytest.mark.filterwarnings("error")

UNIT = 2.0**-20

#: ``CostModel``'s time fields, in the order a case lists their units.
TIME_FIELDS = (
    "serde_fixed", "serde_per_table", "client_serde_per_table",
    "request_handler_fixed", "response_handler_fixed", "rpc_service_fixed",
    "rpc_dispatch_fixed", "fill_per_table", "net_overhead_fixed",
    "net_overhead_per_op", "sls_dispatch_per_table", "dequant_per_id",
)

PLANS = (
    ("DRM1", "load-bal", 2), ("DRM1", "load-bal", 4), ("DRM1", "load-bal", 8),
    ("DRM1", "singular", 0), ("DRM1", "1-shard", 1),
    ("DRM2", "singular", 0), ("DRM2", "cap-bal", 2), ("DRM2", "NSBP", 4),
    ("DRM3", "singular", 0), ("DRM3", "NSBP", 2), ("DRM3", "NSBP", 4),
)

MODELS = {"DRM1": drm1, "DRM2": drm2, "DRM3": drm3}


@functools.lru_cache(maxsize=None)
def _inputs(name):
    model = MODELS[name]()
    pooling = estimate_pooling_factors(model, num_requests=200, seed=42)
    requests = RequestGenerator(model, seed=3).generate_many(40)
    return model, pooling, requests


@functools.lru_cache(maxsize=None)
def _plan(name, strategy, shards):
    model, pooling, _ = _inputs(name)
    return build_plan(model, ShardingConfiguration(strategy, shards), pooling)


def _replay(case, kernel):
    plan_key, units, io_threads, fabric, workers, arrivals, chunk_size, skew = (
        case
    )
    model, _, requests = _inputs(plan_key[0])
    propagation, kernel_overhead, jitter_median, jitter_sigma = fabric
    serving = ServingConfig(
        seed=1,
        kernel=kernel,
        service_workers=workers,
        clock_skew_sigma=skew * UNIT,
        cost_model=CostModel(
            io_threads=io_threads,
            **{field: n * UNIT for field, n in zip(TIME_FIELDS, units)},
        ),
        fabric_spec=FabricSpec(
            propagation=propagation * UNIT,
            kernel_overhead=kernel_overhead * UNIT,
            jitter_median=jitter_median * UNIT,
            jitter_sigma=jitter_sigma,
        ),
    )
    if arrivals is None:
        schedule = SerialArrivals()
    else:
        schedule = PoissonArrivals(arrivals[0], seed=arrivals[1])
    with mock.patch.object(columnar, "CHUNK_SIZE", chunk_size):
        return run_configuration(
            model, _plan(*plan_key), requests, serving, schedule
        )


def _charges(records):
    """A request's CPU charges in folding order, without the fields that
    place them: an evaluator record is the key of its dispatch, and the
    evaluator fuses a response serialization with its fixed service
    charge."""
    charges = []
    for _t, _parent, _index, net, kind, shard, cpu, dur in records:
        if kind == aggregate._K_SRS_SVC:
            charges.append((aggregate._K_SERDE, shard, cpu))
            charges.append((aggregate._K_SERVICE, shard, dur))
        elif kind == aggregate._K_OPS_SLW:
            charges.append((kind, shard, cpu, dur, net))
        else:
            charges.append((kind, shard, cpu))
    return charges


def _replay_charges(case, kernel):
    """``_replay``, plus the charges of each request it attributes."""
    folded = []
    fold = aggregate.fold_charges

    def spy(records):
        folded.append(_charges(records))
        return fold(records)

    with mock.patch.object(aggregate, "fold_charges", spy):
        return _replay(case, kernel), folded


_units = st.sampled_from((0, 1, 2, 4, 8, 16, 32))

cases = st.tuples(
    st.sampled_from(PLANS),
    st.tuples(*[_units] * len(TIME_FIELDS)),
    st.sampled_from((1, 2, 4)),
    st.tuples(
        st.sampled_from((0, 4, 16)),
        st.sampled_from((0, 8)),
        st.sampled_from((0, 4)),
        st.sampled_from((0.0, 0.0, 0.5)),
    ),
    st.integers(1, 3),
    st.one_of(
        st.none(),
        st.tuples(st.sampled_from((200.0, 1000.0, 5000.0)), st.integers(0, 4)),
    ),
    # The replay's chunk size: one chunk for the stream in half the
    # draws, else chunk boundaries inside the busy periods.
    st.sampled_from((2048, 2048, 2048, 1, 2, 3)),
    # The clock-skew sigma in units: none in two draws of three.
    st.sampled_from((0, 0, 0, 0, 1, 16)),
)

# Case A: chains that meet by rounding at one client serialization end
# must take the main egress NIC in the order they were scheduled, not in
# batch order; request 0 ended 16.9 us late on the evaluator.
CASE_A = (
    ("DRM1", "load-bal", 4), (4, 4, 8, 32, 16, 1, 8, 1, 2, 8, 1, 16), 4,
    (0, 0, 0, 0.0), 3, None, 2048, 0,
)
# Case B: two unequal charges recorded at one instant fold in the DES's
# order; request 0's dense_op_cpu was 1 ulp off.
CASE_B = (
    ("DRM1", "load-bal", 4), (0, 8, 32, 32, 2, 16, 32, 8, 0, 2, 4, 4), 1,
    (16, 8, 0, 0.0), 3, None, 2048, 0,
)

# Case C: a singular plan's free local SLS op (no dispatch or dequant
# cost) ends at the instant another batch's dense op ends.  The DES
# scheduled the dense op first and folds its charge first; a sort on
# record time alone keeps emission order and folds the zero charge
# ahead of it.  The sums cannot show that, the charge order does.
CASE_C = (
    ("DRM1", "singular", 0), (4, 4, 4, 32, 2, 32, 0, 0, 8, 4, 0, 8), 4,
    (0, 8, 0, 0.0), 3, None, 2048, 0,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@example(CASE_A)
@example(CASE_B)
@example(CASE_C)
@given(cases)
def test_vectorized_matches_batched_under_exact_ties(case):
    batched, des_charges = _replay_charges(case, "batched")
    hybrid, charges = _replay_charges(case, "vectorized")
    assert hybrid.kernel_used == "vectorized", case
    assert batched.des_requests == len(batched), case
    assert_run_identical(batched, hybrid, case)
    assert charges == des_charges, case


@pytest.mark.parametrize("case", [CASE_A, CASE_B, CASE_C], ids=["A", "B", "C"])
def test_serial_tie_cases_commit_every_request(case):
    """Cases A, B and C are serial closed loops: every request arrives at
    an idle cluster with an infinite horizon, so the evaluator commits
    all of them, ties included."""
    assert _replay(case, "vectorized").des_requests == 0
