"""Synthetic ranking-request generation.

Substitutes the paper's de-identified production request replay
(Section V-B): requests were sampled evenly across a five-day window to
capture diurnal behavior, then replayed against the serving tier.  Here a
seeded generator draws, per request:

* a timestamp within the sampling window, with a diurnal size modulation;
* a long-tailed candidate-item count (the batching unit);
* per-table sparse-feature draws -- presence and id counts -- following
  each table's :class:`~repro.models.TableConfig` sparsity parameters.

Requests carry *counts* (what the serving simulator and the pooling-factor
estimator need); :func:`materialize_numeric` expands a request into actual
raw ids for the numeric correctness path.

Draw scheme
-----------

Every stochastic component owns an independent named substream:

* ``(seed, "requests", model, "items")`` -- one normal draw per request
  for the lognormal item count;
* ``(seed, "requests", model, table, "activation")`` -- one uniform per
  request for USER-scoped presence;
* ``(seed, "requests", model, table, "counts")`` -- one Poisson per
  request for USER-scoped id counts;
* ``(seed, "requests", model, table, "per-item")`` -- one Poisson per
  candidate item for ITEM-scoped id counts.

Because each stream is consumed in request order with a fixed number of
draws per request, a bulk array draw of ``N`` requests consumes each
stream identically to ``N`` sequential scalar draws.  That is what makes
the vectorized :meth:`RequestGenerator.generate_many` byte-identical to
the scalar :meth:`RequestGenerator.generate` path (regression tested),
while doing one RNG call per *table* instead of one per (request, table).

The two item-scoped bulk draws -- the per-item counts in
:meth:`RequestGenerator.generate_batch` and the pooling sample in
:meth:`RequestGenerator.table_totals` -- go through one exact sparse
sampler instead of ``Generator.poisson``.  At these rates (2e-6 to 6e-3
in DRM1/2) numpy draws each count by Knuth's method, and over 99% of
draws are a single uniform at or below ``exp(-rate)``; the sampler's
walk fills the raw outputs behind those uniforms in bulk, walks only
the rare exceedances, and leaves the stream where numpy leaves it.
Neither consumer allocates a per-item array.  ``generate_batch`` takes
the walk's ``(item, count)`` pairs
(:func:`repro.core.rng.poisson_nonzero`) and keeps, per request, only
the item index of each id (:attr:`SparseFeatureDraw.item_ids`), so a
draw holds 8 bytes per id instead of 8 per candidate item: a DRM1
stream of 1000 requests holds 4.8 MiB, not 34.0.  ``table_totals``
only sums the counts (:func:`repro.core.rng.poisson_total`), so the
pooling sample's memory stays flat in the sample size.
USER-scoped counts (rates up to ~19) stay on ``Generator.poisson``, and
so does the scalar :meth:`generate` on purpose: it is the independent
oracle the bulk path, and with it the sampler, is pinned against.

Since no table's streams are shared with another's, both bulk methods
draw their tables concurrently on every usable CPU and still return the
same bits: every stream is resolved in the calling thread, one task
per table draws from its own, and results are collected in table
order.

The same bulk-draw-equals-scalar-draws property is what the
``vectorized`` replay kernel leans on one layer up: a sweep generates
its request sample once before it fans out, and the columnar plan
builder (:mod:`repro.serving.columnar`) transposes those cached
requests into per-chunk numpy columns -- generation draws and replay
draws never interleave, so kernels can vectorize each independently.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, TypeVar

import numpy as np

from repro.core.host import usable_cpus
from repro.core.rng import poisson_nonzero, poisson_total, substream
from repro.core.types import Num
from repro.core.types import seed as any_seed
from repro.models.config import FeatureScope, ModelConfig, TableConfig

if TYPE_CHECKING:
    from repro.core.dlrm import NumericRequest

_DAY_SECONDS = 86_400.0
#: Relative swing of a request's item count over the day (Section V-B's
#: diurnal behaviour): the count is scaled by ``1 + amplitude * sin``.
_DIURNAL_AMPLITUDE = 0.15


@dataclass(frozen=True, slots=True)
class SparseFeatureDraw:
    """Lookup counts for one table in one request.

    ``item_ids`` is None for USER-scoped features (the count applies to
    the whole request and repeats for every batch); for ITEM-scoped
    features it holds the candidate-item index of every id, ascending
    int64, an item that looks up ``k`` ids appearing ``k`` times.  Its
    length is ``total_ids``: per-item rates are tiny, so a draw usually
    holds one id, and a dense per-item count array would be almost all
    zeros.
    """

    table_name: str
    total_ids: int
    item_ids: np.ndarray | None = None

    def ids_in_slice(self, start: int, stop: int) -> int:
        """Ids this feature contributes to a batch covering items [start, stop)."""
        if self.item_ids is None:
            return self.total_ids
        ids = self.item_ids
        return int(np.searchsorted(ids, stop) - np.searchsorted(ids, start))


@dataclass(slots=True)
class Request:
    """One ranking request at the granularity the simulator consumes."""

    request_id: int
    timestamp: float
    num_items: int
    draws: dict[str, SparseFeatureDraw] = field(default_factory=dict)

    def total_ids_for_net(self, model: ModelConfig, net_name: str) -> int:
        return sum(
            draw.total_ids
            for draw in self.draws.values()
            if model.table(draw.table_name).net == net_name
        )

    @property
    def total_ids(self) -> int:
        return sum(draw.total_ids for draw in self.draws.values())


class RequestGenerator:
    """Seeded request sampler for one model.

    The generator is stateful: each component substream advances as
    requests are drawn, so mixing :meth:`generate` and
    :meth:`generate_many` on one instance continues the same sample
    sequence either way.
    """

    def __init__(self, model: ModelConfig, seed: int = 0):
        any_seed.check("seed", seed)
        self.model = model
        self.seed = seed
        self._items_rng = substream(seed, "requests", model.name, "items")
        self._table_rngs: dict[tuple[str, str], np.random.Generator] = {}

    def _rng(self, table_name: str, component: str) -> np.random.Generator:
        key = (table_name, component)
        rng = self._table_rngs.get(key)
        if rng is None:
            rng = substream(self.seed, "requests", self.model.name, table_name, component)
            self._table_rngs[key] = rng
        return rng

    def _diurnal_factor(self, timestamp: float) -> float:
        phase = 2.0 * np.pi * (timestamp % _DAY_SECONDS) / _DAY_SECONDS
        return 1.0 + _DIURNAL_AMPLITUDE * float(np.sin(phase))

    # -- scalar reference path --------------------------------------------
    def generate(self, request_id: int, timestamp: float = 0.0) -> Request:
        """Draw one request (scalar reference path).

        Consumes exactly the same per-component draws as the vectorized
        path, so ``[g.generate(i, t) for i, t in ...]`` equals
        ``g.generate_many(...)`` for the same fresh seed.  Item-scoped
        counts stay on ``Generator.poisson`` here on purpose, the dense
        draw converted to item indices: this path is the oracle the bulk
        path's sparse sampler is tested against.
        """
        profile = self.model.profile
        base_items = profile.sample_items(self._items_rng)
        num_items = max(
            profile.min_items, int(round(base_items * self._diurnal_factor(timestamp)))
        )

        draws: dict[str, SparseFeatureDraw] = {}
        for table in self.model.tables:
            if table.scope is FeatureScope.USER:
                # Activation and count are drawn unconditionally to keep
                # the streams aligned with the bulk path.
                activated = self._rng(table.name, "activation").random() < table.activation_prob
                if table.deterministic_ids:
                    count = max(1, int(round(table.mean_ids)))
                else:
                    count = int(self._rng(table.name, "counts").poisson(table.mean_ids))
                if not activated or count == 0:
                    continue
                draws[table.name] = SparseFeatureDraw(table.name, count)
            else:
                rate = table.activation_prob * table.mean_ids
                per_item = self._rng(table.name, "per-item").poisson(
                    rate, size=num_items
                )
                total = int(per_item.sum())
                if total == 0:
                    continue
                item_ids = np.repeat(np.arange(num_items, dtype=np.int64), per_item)
                draws[table.name] = SparseFeatureDraw(table.name, total, item_ids)
        return Request(request_id, timestamp, num_items, draws)

    # -- vectorized bulk path ---------------------------------------------
    def _bulk_items(self, timestamps: np.ndarray) -> np.ndarray:
        """Vectorized item counts for one timestamp per request."""
        profile = self.model.profile
        base = profile.sample_items_bulk(self._items_rng, len(timestamps))
        phase = 2.0 * np.pi * (timestamps % _DAY_SECONDS) / _DAY_SECONDS
        factor = 1.0 + _DIURNAL_AMPLITUDE * np.sin(phase)
        return np.maximum(profile.min_items, np.round(base * factor)).astype(np.int64)

    def generate_batch(self, timestamps: np.ndarray) -> list[Request]:
        """Draw one request per timestamp with bulk per-table RNG calls.

        Tables are drawn concurrently, as in :meth:`table_totals`: every
        substream is resolved here, each table's task draws its counts
        and builds its :class:`SparseFeatureDraw` rows, and the requests
        are assembled here in table order, so every ``draws`` dict keeps
        the model's table order.  The rows are built over plain Python
        lists (``.tolist()``): models carry hundreds of tables, so
        element-wise numpy indexing would dominate the bulk-draw win.
        """
        timestamps = np.asarray(timestamps, dtype=np.float64)
        count = len(timestamps)
        if count == 0:
            return []
        num_items = self._bulk_items(timestamps)
        ts_list = timestamps.tolist()
        requests = [
            Request(i, ts_list[i], items, {})
            for i, items in enumerate(num_items.tolist())
        ]
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(num_items, out=offsets[1:])
        tasks = []
        for table in self.model.tables:
            if table.scope is FeatureScope.USER:
                tasks.append(
                    partial(_user_rows, table, count, *self._user_rngs(table))
                )
            else:
                rate = table.activation_prob * table.mean_ids
                rng = self._rng(table.name, "per-item")
                tasks.append(partial(_item_rows, table.name, rng, rate, offsets))
        for table, rows in zip(self.model.tables, _fan_out(tasks), strict=True):
            for i, draw in rows:
                requests[i].draws[table.name] = draw
        return requests

    def generate_many(self, count: int, window_days: float = 5.0) -> list[Request]:
        """Sample ``count`` requests evenly across the sampling window."""
        timestamps = np.linspace(0.0, window_days * _DAY_SECONDS, count, endpoint=False)
        return self.generate_batch(timestamps)

    def table_totals(self, count: int, window_days: float = 5.0) -> dict[str, float]:
        """Aggregate id counts per table over ``count`` requests.

        Equivalent to summing ``draw.total_ids`` over
        :meth:`generate_many`'s output, without materializing any
        :class:`Request` -- the fast path for pooling-factor estimation.

        Tables are drawn concurrently on :func:`usable_cpus` threads
        (inline when there is one): numpy fills arrays with the GIL
        released, and each table draws only from its own substreams, so
        no result depends on which thread draws it or when.  Every
        substream is resolved here, in the calling thread, before the
        fan-out (``_rng`` mutates the stream dict); totals are collected
        in table order.

        Item-scoped tables are summed by the exact sparse sampler
        :func:`repro.core.rng.poisson_total`, which returns the sum of
        ``Generator.poisson``'s draws without allocating them: its
        scratch is one refill of at most ``_UNIFORM_BUFFER`` raw
        outputs however many requests are sampled.  USER-scoped tables
        draw on ``Generator.poisson``.
        """
        timestamps = np.linspace(0.0, window_days * _DAY_SECONDS, count, endpoint=False)
        total_items = int(self._bulk_items(timestamps).sum())
        tasks = []
        for table in self.model.tables:
            if table.scope is FeatureScope.USER:
                tasks.append(
                    partial(_user_total, table, count, *self._user_rngs(table))
                )
            else:
                rate = table.activation_prob * table.mean_ids
                tasks.append(partial(
                    _item_total, self._rng(table.name, "per-item"), rate, total_items
                ))
        return {
            table.name: value
            for table, value in zip(self.model.tables, _fan_out(tasks), strict=True)
        }

    def _user_rngs(
        self, table: TableConfig
    ) -> tuple[np.random.Generator, np.random.Generator | None]:
        """A USER-scoped table's activation and count streams (None for
        deterministic ids, which draw no counts)."""
        activation_rng = self._rng(table.name, "activation")
        if table.deterministic_ids:
            return activation_rng, None
        return activation_rng, self._rng(table.name, "counts")


_T = TypeVar("_T")


def _fan_out(tasks: list[Callable[[], _T]]) -> Iterator[_T]:
    """Every task's result, in task order, run on :func:`usable_cpus`
    threads (inline when there is one).  Results are yielded as the
    caller iterates, so its assembly overlaps the tasks still running
    and can drop each result before the last task finishes."""
    workers = min(usable_cpus(), len(tasks))
    if workers <= 1:
        yield from map(operator.call, tasks)
        return
    # Imported here, not at module level: concurrent.futures pulls in
    # logging (~10 ms), which every importer would otherwise pay at
    # start-up.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(operator.call, tasks)


def _user_counts(
    table: TableConfig,
    count: int,
    activation_rng: np.random.Generator,
    counts_rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The requests a USER-scoped table is present in, and their id counts."""
    activated = activation_rng.random(size=count) < table.activation_prob
    if counts_rng is None:
        present = np.flatnonzero(activated)
        return present, np.full(len(present), max(1, int(round(table.mean_ids))))
    counts = counts_rng.poisson(table.mean_ids, size=count)
    present = np.flatnonzero(activated & (counts > 0))
    return present, counts[present]


def _user_rows(
    table: TableConfig,
    count: int,
    activation_rng: np.random.Generator,
    counts_rng: np.random.Generator | None,
) -> list[tuple[int, SparseFeatureDraw]]:
    """``(request, draw)`` rows of one USER-scoped table."""
    present, totals = _user_counts(table, count, activation_rng, counts_rng)
    name = table.name
    return [
        (i, SparseFeatureDraw(name, total))
        for i, total in zip(present.tolist(), totals.tolist())
    ]


def _user_total(
    table: TableConfig,
    count: int,
    activation_rng: np.random.Generator,
    counts_rng: np.random.Generator | None,
) -> float:
    """Ids one USER-scoped table contributes over ``count`` requests."""
    _, totals = _user_counts(table, count, activation_rng, counts_rng)
    return float(totals.sum())


def _item_rows(
    name: str, rng: np.random.Generator, rate: float, offsets: np.ndarray
) -> list[tuple[int, SparseFeatureDraw]]:
    """``(request, draw)`` rows of one ITEM-scoped table; request ``i``
    owns items ``offsets[i]:offsets[i + 1]``, and its draw holds the ids
    that fall there, less ``offsets[i]``."""
    pairs = np.array(
        list(poisson_nonzero(rng, rate, int(offsets[-1]))), dtype=np.int64
    ).reshape(-1, 2)
    ids = np.repeat(pairs[:, 0], pairs[:, 1])  # stream-wide item per id
    cuts = np.searchsorted(ids, offsets)  # request i's ids: cuts[i]:cuts[i + 1]
    present = np.flatnonzero(np.diff(cuts)).tolist()
    starts = cuts.tolist()
    bounds = offsets.tolist()
    # The subtraction allocates each draw's own array: a view would pin
    # the table's whole id array.
    return [
        (i, SparseFeatureDraw(
            name, starts[i + 1] - starts[i],
            ids[starts[i] : starts[i + 1]] - bounds[i],
        ))
        for i in present
    ]


def _item_total(rng: np.random.Generator, rate: float, size: int) -> float:
    """Sum of ``size`` Poisson(``rate``) draws."""
    return float(poisson_total(rng, rate, size))


def request_payload_bytes(
    model: ModelConfig, num_items: Num, total_ids: Num, tables: Num
) -> Num:
    """Serialized size of an inbound ranking request of ``num_items``
    items, drawing ``total_ids`` sparse ids over ``tables`` features.

    Dense features per item plus 8-byte sparse ids plus per-feature framing.
    """
    ids_bytes = 8.0 * total_ids
    framing = 24.0 * tables
    dense = model.profile.dense_feature_bytes * num_items
    return 256.0 + dense + ids_bytes + framing


def materialize_numeric(
    model: ModelConfig, request: Request, seed: int = 0, id_space: int = 2**48
) -> NumericRequest:
    """Expand a count-level request into raw ids and dense features."""
    from repro.core.dlrm import NumericRequest, SparseInput

    rng = substream(seed, "numeric", model.name, request.request_id)
    user_dense = rng.normal(0, 1, size=16).astype(np.float32)
    item_dense = rng.normal(0, 1, size=(request.num_items, 16)).astype(np.float32)
    sparse: dict[str, SparseInput] = {}
    for table in model.tables:
        draw = request.draws.get(table.name)
        if draw is None:
            continue
        values = rng.integers(0, id_space, size=draw.total_ids, dtype=np.int64)
        if table.scope is FeatureScope.USER:
            lengths = np.array([draw.total_ids], dtype=np.int64)
        else:
            lengths = np.bincount(draw.item_ids, minlength=request.num_items)
        sparse[table.name] = SparseInput(values, lengths)
    return NumericRequest(
        request_id=request.request_id,
        num_items=request.num_items,
        user_dense=user_dense,
        item_dense=item_dense,
        sparse=sparse,
    )
