"""Span oracle: attribute a replay from spans, independently of the columns.

Every :class:`~repro.experiments.runner.RunResult` is attributed by the
aggregate accumulator.  The oracle replays the *same* inputs on a
:class:`~repro.serving.simulator.ClusterSimulation` that records real
:class:`~repro.tracing.span.Span` objects, attributes each popped request
with :func:`~repro.tracing.attribution.attribute_request`, and the tests
compare the two bit for bit, column by column.
"""

from __future__ import annotations

import numpy as np

from repro.serving.simulator import ClusterSimulation
from repro.tracing import Tracer, attribute_request
from repro.tracing.aggregate import (
    DEGRADED,
    OUTCOME_FIELDS,
    SHARD_KINDS,
    STACK_BUCKETS,
)
from repro.workloads.arrivals import SerialArrivals

_NO_OUTCOME = (0,) * len(OUTCOME_FIELDS)


def _replay(cluster: ClusterSimulation, run, *args):
    tracer = cluster.tracer
    outcomes = cluster.outcomes
    rows = []

    def on_complete(request_id: int) -> None:
        # Snapshot the outcome row now, the moment the aggregate folds
        # it: a straggling attempt may still write the row later.
        row = None if outcomes is None else outcomes.get(request_id)
        rows.append((
            attribute_request(tracer.pop_request(request_id)),
            _NO_OUTCOME if row is None else tuple(row),
        ))

    cluster.on_complete = on_complete
    run(*args)
    return rows, tuple(cluster.dropped_requests)


def oracle_configuration(model, plan, requests, serving, schedule=None):
    """Span-attributed rows of one configuration, in completion order,
    and the ids of the requests that never completed."""
    schedule = schedule or SerialArrivals()
    cluster = ClusterSimulation(model, plan, serving, tracer=Tracer())
    arrivals = schedule.arrival_times(len(requests))
    if arrivals is None:
        return _replay(cluster, cluster.run_serial, requests)
    return _replay(
        cluster, cluster.run_stream, zip(arrivals, [0] * len(requests), requests)
    )


def oracle_mix(mix, plans, stream, serving):
    """Span-attributed rows of one co-located mix replay."""
    cluster = ClusterSimulation.colocated(
        [(workload.model, plan) for workload, plan in zip(mix.workloads, plans)],
        serving,
        tracer=Tracer(),
    )
    return _replay(cluster, cluster.run_stream, stream)


def assert_matches_oracle(result, oracle, workload_ids=None, label=""):
    """Every column of ``result`` equals the span attribution, bit for bit."""
    rows, dropped = oracle
    assert len(result) == len(rows), label
    assert result.incomplete_requests == dropped, label
    stacks = {kind: result.stack_columns(kind) for kind in STACK_BUCKETS}
    shard_cols = {kind: result.shard_columns(kind) for kind in SHARD_KINDS}
    # First-touch key order, as the columns are created.
    touched: dict = {kind: {} for kind in SHARD_KINDS}
    for i, (a, outcome) in enumerate(rows):
        where = (label, i, a.request_id)
        assert result.request_ids[i] == a.request_id, where
        assert result.e2e[i] == a.e2e, where
        assert result.cpu[i] == a.cpu_total, where
        assert result.sparse_op_cpu[i] == a.sparse_op_cpu, where
        assert result.dense_op_cpu[i] == a.dense_op_cpu, where
        assert result.rpcs[i] == a.rpcs, where
        assert result.num_batches[i] == a.num_batches, where
        workload = 0 if workload_ids is None else workload_ids[a.request_id]
        assert result.workloads[i] == workload, where
        for kind, stack in (
            ("latency", a.latency_stack),
            ("embedded", a.embedded_stack),
            ("cpu", a.cpu_stack),
        ):
            assert list(stack) == list(stacks[kind]), where
            for bucket, value in stack.items():
                assert stacks[kind][bucket][i] == value, (where, kind, bucket)
        for name, value in zip(OUTCOME_FIELDS, outcome):
            assert getattr(result, name)[i] == value, (where, name)
        assert result.status[i] == (1 if outcome[DEGRADED] else 0), where
        for kind, values in (
            ("cpu", a.per_shard_cpu),
            ("op", a.per_shard_op_time),
            ("net_op", a.per_shard_net_op_time),
        ):
            touched[kind].update(dict.fromkeys(values))
            for key, col in shard_cols[kind].items():
                assert col[i] == values.get(key, 0.0), (where, kind, key)
    for kind in SHARD_KINDS:
        assert list(shard_cols[kind]) == list(touched[kind]), (label, kind)


def assert_outcomes_conserved(result):
    """A replay with no incomplete request: its replay-level totals are
    the sums of its outcome columns, and every row is self-consistent."""
    assert result.incomplete_requests == ()
    assert np.array_equal(result.status, (result.degraded > 0).astype(np.int64))
    assert (result.hedged <= result.attempts).all()
    stats = result.resilience_stats
    if not stats:
        # No resilience runtime: nothing writes those fields.
        assert not (result.attempts.any() or result.hedged.any())
        assert not result.deadline_exceeded.any()
        return
    assert stats["attempts"] == result.attempts.sum()
    assert stats["hedges"] == result.hedged.sum()
    assert stats["deadline_exceeded"] == result.deadline_exceeded.sum()
    assert stats["aborted_attempts"] == result.aborted_rpcs
