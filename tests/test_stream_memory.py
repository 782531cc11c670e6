"""A cached request stream holds one item index per ITEM-scoped id.

A sweep generates its request sample once and holds it for its whole
run, so the stream's footprint is part of every sweep's peak memory.
Per-item rates are tiny (2e-6 to 6e-3), so an ITEM-scoped draw usually
holds one id over hundreds of candidate items: a draw that kept a dense
count per item would hold ~30 MB of zeros for a 1000-request DRM1
stream.  These pins are byte counts, not timings, so they hold on any
host.
"""

import tracemalloc

from repro.core.types import MIB
from repro.models import drm1
from repro.requests import RequestGenerator


def test_item_draws_hold_eight_bytes_per_id():
    """DRM1, 1000 requests at seed 3: every ITEM-scoped draw owns an
    array of exactly one int64 per id, and the whole stream holds under
    8 MiB (a dense per-item array per draw held 34 MiB)."""
    model = drm1()
    # Warm up once, so one-time allocations (lazy imports, the thread
    # pool's machinery) are not charged to the stream.
    RequestGenerator(model, seed=4).generate_many(8)
    tracemalloc.start()
    try:
        requests = RequestGenerator(model, seed=3).generate_many(1000)
        held, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    item_draws = [
        draw
        for request in requests
        for draw in request.draws.values()
        if draw.item_ids is not None
    ]
    ids = sum(draw.total_ids for draw in item_draws)
    assert ids == 7751
    assert all(draw.item_ids.base is None for draw in item_draws)  # no views
    assert sum(draw.item_ids.nbytes for draw in item_draws) == 8 * ids == 62_008
    assert held < 8 * MIB, held / MIB
