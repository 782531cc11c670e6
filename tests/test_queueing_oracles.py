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

from repro.experiments import SuiteSettings, run_configuration
from repro.experiments.runner import suite_requests
from repro.models import drm1, drm2
from repro.requests.generator import Request
from repro.serving import ServingConfig
from repro.serving.columnar import build_chunk_plans
from repro.serving.simulator import ClusterSimulation
from repro.sharding import singular_plan

BATCHES = 4


def _equal_batches(model):
    """A request of ``BATCHES`` equal batches: a sampled request's
    USER-scoped draws (one count per request, repeated in every batch)
    over ``BATCHES`` full batches of items."""
    sample = suite_requests(
        model, SuiteSettings(num_requests=1, pooling_requests=150)
    )[0]
    draws = {
        name: draw
        for name, draw in sample.draws.items()
        if draw.per_item_counts is None
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
