"""Independent queueing oracles for the worker pools.

The kernel-equivalence suites pin every kernel to another kernel of the
same model, so a modelling bug the kernels share passes them.  These
checks need neither kernel to agree with the other.  On a singular plan
every batch holds one main worker for its whole chain, so a request
whose ``nb`` batches all cost the same chain time ``c`` has a
closed-form latency on ``W`` workers: the batches run in
``ceil(nb / W)`` waves,

    e2e = head + ceil(nb / W) * c + tail

-- ``head + nb * c + tail`` on one worker, ``head + c + tail`` on at
least ``nb`` -- where ``head`` and ``tail`` are the request
deserialization and response serialization plus their fixed handler
costs.  ``head``, ``c`` and ``tail`` are read from the chunk's cost
columns; the batched DES and the columnar evaluator must both land on
the formula.
"""

import pytest

from repro.experiments import run_configuration
from repro.experiments.runner import RunResult
from repro.models import drm1, drm2
from repro.requests.generator import Request, RequestGenerator
from repro.serving import ServingConfig, TraceMode
from repro.serving.columnar import build_chunk_plans
from repro.serving.simulator import ClusterSimulation
from repro.sharding import singular_plan
from repro.tracing import Layer
from repro.tracing.attribution import RPC_SERDE

BATCHES = 4


def _equal_batches(model):
    """A request of ``BATCHES`` equal batches: a sampled request's
    USER-scoped draws (one count per request, repeated in every batch)
    over ``BATCHES`` full batches of items."""
    sample = RequestGenerator(model, seed=3).generate_many(1)[0]
    draws = {
        name: draw
        for name, draw in sample.draws.items()
        if draw.item_ids is None
    }
    assert draws
    return Request(
        request_id=sample.request_id,
        timestamp=0.0,
        num_items=BATCHES * model.profile.batch_size,
        draws=draws,
    )


def _costs(model, plan, request):
    """``(head, chain cost per batch, tail)`` from the chunk columns."""
    serving = ServingConfig(seed=1)
    sim = ClusterSimulation(model, plan, serving)
    chunk = build_chunk_plans(sim, sim.tenants[0], [request])
    cm = serving.cost_model
    head = chunk.head_deser[0] + cm.request_handler_fixed
    tail = chunk.tail_ser[0] + cm.response_handler_fixed
    chains = [
        sum(
            net.overhead[0][b] + net.pre[0][b] + net.post[0][b]
            + net.local[0][b]
            for net in chunk.nets
        )
        for b in range(chunk.nb[0])
    ]
    return head, chains, tail


@pytest.mark.parametrize("kernel", ["batched", "vectorized"])
@pytest.mark.parametrize("factory", [drm1, drm2])
def test_equal_batches_run_in_waves_of_the_pool_size(factory, kernel):
    model = factory()
    plan = singular_plan(model)
    request = _equal_batches(model)
    head, chains, tail = _costs(model, plan, request)
    assert len(chains) == BATCHES and len(set(chains)) == 1
    c = chains[0]
    for workers in (1, 2, BATCHES):
        result = run_configuration(
            model, plan, [request],
            ServingConfig(seed=1, kernel=kernel, service_workers=workers),
        )
        # The evaluator replays the request itself; the batched kernel
        # replays every request on the DES.
        assert result.des_requests == (kernel == "batched")
        waves = -(-BATCHES // workers)
        expected = head + waves * c + tail
        assert abs(result.e2e[0] - expected) <= 1e-12 * expected, (
            workers, result.e2e[0], expected,
        )


def test_response_serialization_span_starts_at_its_contended_grant():
    """A span opens when its worker is granted, not when it is asked for.

    On one main worker, the second request arrives while the first
    one's batches run, so its head acquire queues ahead of the first
    request's response acquire: that ``response_ser`` is granted when
    the second head releases the worker (its deserialization end plus
    the request handler's fixed cost).  The span starts there and ends
    the chunk row's ``tail_ser`` later,
    and the aggregate's response serde -- read through the singular
    plan's latency serde bucket, ``head + tail`` -- is the span's
    duration bit for bit.
    """
    model = drm1()
    plan = singular_plan(model)
    first, second = RequestGenerator(model, seed=3).generate_many(2)
    serving = ServingConfig(seed=1, service_workers=1)
    cm = serving.cost_model
    probe = ClusterSimulation(model, plan, serving)
    chunk = build_chunk_plans(probe, probe.tenants[0], [first])
    head = chunk.head_deser[0] + cm.request_handler_fixed
    first_chain = sum(
        net.overhead[0][0] + net.pre[0][0] + net.post[0][0] + net.local[0][0]
        for net in chunk.nets
    )
    stream = [(0.0, 0, first), (head + 0.5 * first_chain, 0, second)]

    spans = ClusterSimulation(
        model, plan, serving.with_trace_mode(TraceMode.FULL)
    )
    spans.run_stream(stream)
    trace = spans.tracer.for_request(first.request_id)
    response = next(s for s in trace if s.name == "response_ser")
    last_batch = max(s.end for s in trace if s.layer is Layer.BATCH)
    deser = next(
        s for s in spans.tracer.for_request(second.request_id)
        if s.name == "request_deser"
    )
    grant = deser.end + cm.request_handler_fixed
    assert grant > last_batch  # the response acquire waited
    assert response.start == grant
    assert response.end == grant + chunk.tail_ser[0]

    aggregate = ClusterSimulation(
        model, plan, serving.with_trace_mode(TraceMode.AGGREGATE)
    )
    aggregate.on_complete = aggregate.tracer.finalize_request
    aggregate.run_stream(stream)
    result = RunResult(model.name, plan.label, plan)
    result.adopt_aggregate(aggregate.tracer)
    row = result.request_ids.tolist().index(first.request_id)
    request_deser = next(s for s in trace if s.name == "request_deser")
    assert result.stack_columns("latency")[RPC_SERDE][row] == (
        request_deser.end - request_deser.start
    ) + (response.end - response.start)
