"""Metamorphic oracle: workers beyond ``max_batches`` change nothing.

A batch chain holds at most one main worker, and a batch has at most
one RPC in service per shard (its plan routes one RPC per shard per
net, and its nets run one after another).  So at most ``nb`` chains
hold a pool's workers at once, and a request of ``nb`` batches never
waits for a pool of ``nb`` workers or more.  Requests split into at
most ``ServingConfig.max_batches`` batches, so a serial suite on hosts
of ``max_batches`` workers must equal the same suite on hosts of 32,
bit for bit.  The batched DES is the judge: it queues every acquire on
its FIFO resources and knows nothing of that bound.  The columnar
evaluator relies on the bound -- a pool of ``nb`` workers or more keeps
no free list there -- so the same relation, and its agreement with the
DES at the boundary, pin the evaluator too.

One worker fewer must change the result, or the relation would hold
for any depth and prove nothing.
"""

import numpy as np
import pytest

from test_kernel_equivalence import assert_suites_identical

from repro.experiments import SuiteSettings, run_suite
from repro.models import drm1, drm2, drm3
from repro.serving import ServingConfig

pytestmark = pytest.mark.filterwarnings("error")

#: The most batches a request splits into, and so the shallowest pool
#: that never queues.
DEPTH = ServingConfig().max_batches


def _suite(model, kernel, workers):
    return run_suite(
        model,
        SuiteSettings(
            num_requests=30,
            pooling_requests=150,
            serving=ServingConfig(seed=1, kernel=kernel, service_workers=workers),
        ),
        max_workers=1,
    )


@pytest.mark.parametrize("factory", [drm1, drm2, drm3])
def test_workers_past_max_batches_change_nothing(factory):
    model = factory()
    des = _suite(model, "batched", DEPTH)
    assert_suites_identical(_suite(model, "batched", 32), des)
    evaluated = _suite(model, "vectorized", DEPTH)
    for label, result in evaluated.items():
        assert result.kernel_used == "vectorized", label
        assert result.des_requests == 0, label
    assert_suites_identical(des, evaluated)
    assert_suites_identical(_suite(model, "vectorized", 32), evaluated)


@pytest.mark.parametrize("kernel", ["batched", "vectorized"])
def test_one_worker_fewer_changes_every_configuration(kernel):
    """The relation is not vacuous: on ``max_batches - 1`` workers some
    request of every DRM1 configuration queues, and its latency moves."""
    model = drm1()
    deep = _suite(model, kernel, DEPTH)
    shallow = _suite(model, kernel, DEPTH - 1)
    assert list(shallow) == list(deep)
    for label in deep:
        assert (deep[label].num_batches == DEPTH).any(), label
        assert not np.array_equal(shallow[label].e2e, deep[label].e2e), label
    if kernel == "vectorized":
        assert_suites_identical(_suite(model, "batched", DEPTH - 1), shallow)
