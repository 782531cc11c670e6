"""Every config field follows one declared contract (repro.core.types).

The registry below lists each covered config class with minimal valid
keyword arguments.  The tests check that every numeric field declares a
contract, that each field rejects its contract's bad values with a
``ValueError`` while numpy spellings of good values construct, that the
inputs which used to slip through are rejected, and that every numeric
flag of the run verbs turns ``nan`` into a usage error (exit 2).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    CorrelatedFailure,
    FaultSchedule,
    HealingPolicy,
    HostCrash,
    NetworkSpike,
    StragglerShard,
)
from repro.cli import build_parser, main
from repro.core import types
from repro.experiments import SuiteSettings
from repro.models import drm1
from repro.planning import CandidateSpace, SlaPolicy
from repro.planning.replication import ReplicationDemand
from repro.requests import ReplaySchedule
from repro.requests.access_trace import CorrelatedStream
from repro.resilience import ResiliencePolicy
from repro.serving.simulator import ClusterSimulation, ServingConfig
from repro.simulation.costmodel import CostModel
from repro.simulation.network import FabricSpec
from repro.simulation.platform import Platform
from repro.workloads import (
    ConstantRateArrivals,
    MMPPArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    Workload,
)

_PLATFORM = dict(
    name="p", cores=2, dram_capacity=1e9, clock_ghz=2.0,
    mem_bandwidth=1e9, dram_access_ns=80.0, nic_bandwidth=1e9,
)

#: Each covered class, its minimal valid kwargs, and a valid value for
#: each optional field whose default is ``None``.
REGISTRY: dict[type, tuple[dict, dict]] = {
    ServingConfig: ({}, {"batch_size": 16}),
    CostModel: ({}, {}),
    Platform: (_PLATFORM, {}),
    FabricSpec: ({}, {}),
    SuiteSettings: ({}, {}),
    FaultSchedule: ({}, {}),
    HostCrash: ({"shard": 0, "at": 0.1}, {"restart_after": 1.0}),
    StragglerShard: ({"shard": 0, "start": 0.0, "duration": 1.0}, {"replica": 0}),
    NetworkSpike: ({"start": 0.0, "duration": 1.0}, {}),
    CorrelatedFailure: ({"domain": 0, "at": 0.1}, {"restart_after": 1.0}),
    HealingPolicy: ({}, {}),
    ResiliencePolicy: (
        {"max_attempts": 2},
        {"rpc_timeout": 1e-3, "hedge_delay": 1e-3, "hedge_quantile": 95.0,
         "deadline": 0.1},
    ),
    PoissonArrivals: ({"qps": 25.0}, {}),
    ConstantRateArrivals: ({"qps": 25.0}, {}),
    PiecewiseRateArrivals: ({"rates": (5.0, 10.0)}, {}),
    MMPPArrivals: ({}, {}),
    SlaPolicy: ({"target_latency": 0.01}, {}),
    CandidateSpace: ({}, {}),
    ReplicationDemand: ({"qps": 100.0}, {}),
    CorrelatedStream: ({}, {}),
    Workload: ({"name": "w", "model": drm1(), "arrivals": PoissonArrivals(5.0)}, {}),
}

_NUMERIC = re.compile(r"\b(int|float)\b")


def _contract_fields(cls):
    return [
        spec for spec in dataclasses.fields(cls) if "contract" in spec.metadata
    ]


FIELDS = [
    pytest.param(cls, spec, id=f"{cls.__name__}.{spec.name}")
    for cls in REGISTRY
    for spec in _contract_fields(cls)
]


def _is_sequence(spec) -> bool:
    return str(spec.type).startswith("tuple")


def _build(cls, **overrides):
    kwargs, _ = REGISTRY[cls]
    return cls(**{**kwargs, **overrides})


def _feed(spec, value):
    """The field value that carries ``value``: a one-element tuple for
    sequence fields, ``value`` itself otherwise."""
    return (value,) if _is_sequence(spec) else value


def _good(cls, spec):
    kwargs, optional_values = REGISTRY[cls]
    if spec.name in optional_values:
        return optional_values[spec.name]
    if spec.name in kwargs:
        return kwargs[spec.name]
    return spec.default


def _numpy(value):
    if isinstance(value, tuple):
        return tuple(_numpy(item) for item in value)
    return np.int64(value) if isinstance(value, int) else np.float64(value)


#: Bad values every contract rejects.
ALWAYS_BAD = (True, False, "1", math.nan)
#: Range and integrality bad values, and the named contracts rejecting them.
RANGE_BAD = {
    -1: (
        types.count, types.index, types.non_negative, types.positive,
        types.probability, types.fraction, types.finite_non_negative,
        types.finite_positive, types.at_least_one,
    ),
    2.5: (
        types.count, types.index, types.seed, types.probability,
        types.fraction,
    ),
}


def test_registry_covers_every_class_once():
    assert len(REGISTRY) == 21
    for cls in REGISTRY:
        _build(cls)


@pytest.mark.parametrize("cls", list(REGISTRY), ids=lambda cls: cls.__name__)
def test_every_numeric_field_declares_a_contract(cls):
    missing = [
        spec.name
        for spec in dataclasses.fields(cls)
        if _NUMERIC.search(str(spec.type)) and "contract" not in spec.metadata
    ]
    assert missing == []


@pytest.mark.parametrize("name", ["seed", "request_seed", "pooling_seed"])
def test_every_seed_field_follows_the_seed_contract(name):
    owners = [
        cls for cls in REGISTRY
        if name in {spec.name for spec in dataclasses.fields(cls)}
    ]
    assert owners
    for cls in owners:
        spec = next(s for s in dataclasses.fields(cls) if s.name == name)
        assert spec.metadata["contract"] is types.seed


@pytest.mark.parametrize("cls, spec", FIELDS)
def test_fields_reject_their_contracts_bad_values(cls, spec):
    contract = spec.metadata["contract"]
    bad = list(ALWAYS_BAD)
    bad += [value for value, owners in RANGE_BAD.items() if contract in owners]
    bad += [
        value for value in RANGE_BAD
        if value not in bad and not contract.accepts(_feed(spec, value))
    ]
    for value in bad:
        with pytest.raises(ValueError, match=spec.name):
            _build(cls, **{spec.name: _feed(spec, value)})


@pytest.mark.parametrize("cls, spec", FIELDS)
def test_fields_accept_numpy_spellings_of_good_values(cls, spec):
    good = _good(cls, spec)
    if good is None:
        pytest.skip("no non-None good value for this optional field")
    config = _build(cls, **{spec.name: _numpy(good)})
    if spec.metadata["normalise"]:
        stored = getattr(config, spec.name)
        assert stored == good and type(stored) is type(good)


_VALUES = st.one_of(
    st.sampled_from([True, False, "1", "2.5", None, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3),
    st.floats(-3.0, 150.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None)
@given(
    case=st.sampled_from([param.values for param in FIELDS]), value=_VALUES
)
def test_any_value_the_contract_refuses_is_a_value_error(case, value):
    cls, spec = case
    contract = spec.metadata["contract"]
    fed = _feed(spec, value)
    if contract.accepts(fed):
        return  # cross-field rules may still refuse it; not this check
    with pytest.raises(ValueError, match=spec.name):
        _build(cls, **{spec.name: fed})


NAN = math.nan
INF = math.inf
#: Inputs each class accepted before the contracts, all now refused.
NEWLY_REJECTED = {
    "serving-fractional-seed": lambda: ServingConfig(seed=1.5),
    "suite-fractional-request-seed": lambda: SuiteSettings(request_seed=3.7),
    "suite-string-pooling-seed": lambda: SuiteSettings(pooling_seed="42"),
    "open-loop-fractional-seed": lambda: ReplaySchedule.open_loop(25, 2.9),
    "platform-fractional-cores": lambda: Platform(**{**_PLATFORM, "cores": 1.5}),
    "platform-string-nic": lambda: Platform(
        **{**_PLATFORM, "nic_bandwidth": "1e9"}
    ),
    "fabric-string-propagation": lambda: FabricSpec(propagation="1"),
    "fabric-bool-jitter": lambda: FabricSpec(jitter_sigma=True),
    "constant-nan-qps": lambda: ConstantRateArrivals(NAN),
    "mmpp-nan-rate": lambda: MMPPArrivals(rates=(1, NAN)),
    "mmpp-nan-dwell": lambda: MMPPArrivals(mean_dwell_seconds=NAN),
    "poisson-bool-qps": lambda: PoissonArrivals(True),
    "sla-nan-target": lambda: SlaPolicy(NAN),
    "sla-string-target": lambda: SlaPolicy("1"),
    "candidate-bool-target": lambda: CandidateSpace(utilization_targets=(True,)),
    "crash-string-at": lambda: HostCrash(0, at="1"),
    "crash-fractional-replica": lambda: HostCrash(0, 0.0, replica=1.5),
    "crash-bool-replica": lambda: HostCrash(0, 0.0, replica=True),
    "straggler-fractional-replica": lambda: StragglerShard(
        0, 0.0, 1.0, replica=0.5
    ),
    "correlated-fractional-domain": lambda: CorrelatedFailure(domain=1.5, at=0.0),
    "correlated-bool-domain": lambda: CorrelatedFailure(domain=True, at=0.0),
    "healing-fractional-misses": lambda: HealingPolicy(consecutive_misses=1.5),
    "healing-string-interval": lambda: HealingPolicy(check_interval="1"),
    "policy-string-timeout": lambda: ResiliencePolicy(rpc_timeout="1"),
    "policy-bool-timeout": lambda: ResiliencePolicy(rpc_timeout=True),
    "policy-bool-budget": lambda: ResiliencePolicy(retry_budget=True),
    "policy-bool-quantile": lambda: ResiliencePolicy(
        hedge_quantile=True, max_attempts=2
    ),
    # An infinite time used to construct: a straggler with a healing
    # controller never ended (the controller's horizon was inf), an
    # infinite stagger overflowed numpy mid-replay, and an infinite cost
    # failed as a TypeError in the attribution.
    "straggler-inf-duration": lambda: StragglerShard(0, 0.0, INF),
    "correlated-inf-stagger": lambda: CorrelatedFailure(
        domain=0, at=0.0, stagger=INF
    ),
    "cost-inf-rpc-service": lambda: CostModel(rpc_service_fixed=INF),
    "crash-inf-at": lambda: HostCrash(0, at=INF),
    "crash-inf-restart": lambda: HostCrash(0, 0.0, restart_after=INF),
    "spike-inf-extra-latency": lambda: NetworkSpike(
        start=0.0, duration=1.0, extra_latency=INF
    ),
    "correlated-inf-restart": lambda: CorrelatedFailure(
        domain=0, at=0.0, restart_after=INF
    ),
    "healing-inf-recovery-lag": lambda: HealingPolicy(recovery_lag=INF),
    "schedule-inf-failover": lambda: FaultSchedule(failover_timeout=INF),
    "fabric-inf-propagation": lambda: FabricSpec(propagation=INF),
    # An infinite jitter sigma drew infinite delays, which failed only
    # as a TypeError in the attribution.
    "fabric-inf-jitter-sigma": lambda: FabricSpec(jitter_sigma=INF),
    "platform-inf-dram-access": lambda: Platform(
        **{**_PLATFORM, "dram_access_ns": INF}
    ),
}


@pytest.mark.parametrize("build", NEWLY_REJECTED.values(), ids=NEWLY_REJECTED)
def test_inputs_that_used_to_slip_through_fail_loudly(build):
    with pytest.raises(ValueError, match=r"must be .*, got "):
        build()


def test_messages_follow_one_template():
    with pytest.raises(ValueError) as excinfo:
        Platform(**{**_PLATFORM, "cores": 1.5})
    assert str(excinfo.value) == (
        "platform 'p': cores must be an integer >= 1, got 1.5"
    )
    with pytest.raises(ValueError) as excinfo:
        CostModel(io_threads=True)
    assert str(excinfo.value) == (
        "CostModel.io_threads must be an integer >= 1, got True"
    )
    with pytest.raises(ValueError) as excinfo:
        HealingPolicy(check_interval="1")
    assert str(excinfo.value) == (
        "check_interval must be a positive number, got '1'"
    )


def test_integral_seeds_keep_their_streams():
    """A numpy seed is the same seed; the contract changes no stream."""
    assert np.array_equal(
        ReplaySchedule.open_loop(25, np.int64(2)).arrival_times(50),
        ReplaySchedule.open_loop(25, 2).arrival_times(50),
    )


# -- argv: every numeric flag of the run verbs refuses ``nan`` ----------------
_BASE = {
    "suite": ["suite"],
    "plan": ["plan", "--models", "DRM1"],
    "chaos": ["chaos"],
    "workload": ["workload", "--models", "DRM1"],
}
#: Flags a verb reads only when another flag turns them on.
_ENABLING = {
    "--check-interval": ["--heal"],
    "--recovery-lag": ["--heal"],
    "--correlated-at": ["--correlated-domain", "0"],
    "--correlated-restart": ["--correlated-domain", "0"],
    "--correlated-stagger": ["--correlated-domain", "0"],
    "--recency-weight": ["--cache-summary"],
}


def _numeric_flags():
    parser = build_parser()
    verbs = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices
    for verb, base in _BASE.items():
        for action in verbs[verb]._actions:
            if action.type is None or action.type is str or not action.option_strings:
                continue
            nargs = action.nargs if isinstance(action.nargs, int) else 1
            flag = action.option_strings[0]
            argv = [*base, *_ENABLING.get(flag, []), flag, *["nan"] * nargs]
            yield pytest.param(argv, id=f"{verb}{flag}")


@pytest.mark.parametrize("argv", list(_numeric_flags()))
def test_every_numeric_flag_refuses_nan(argv, capsys, monkeypatch):
    def no_replay(*args, **kwargs):
        raise AssertionError("a cluster was built before validation")

    monkeypatch.setattr(ClusterSimulation, "_setup", no_replay)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    error_line = capsys.readouterr().err.strip().splitlines()[-1]
    assert error_line.startswith(f"repro {argv[0]}: error:")
    assert "nan" in error_line
