"""Model configuration types for DLRM-like recommendation models.

A model (paper Figure 2a) is described by:

* one or more **nets** executed sequentially per batch (the user net feeds
  the content/product net -- Section III-B3),
* a set of **embedding tables**, each owned by exactly one net, which
  dominate capacity (>97%), and
* a **request profile** describing how many candidate items a ranking
  request carries and how it is split into batches.

These configs are *metadata*: capacity, sparsity, and compute attributes at
full production scale.  Real numeric weights are only materialized for
reduced-scale correctness tests (see :mod:`repro.core.embedding`).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.core.types import GIB, DType, OpCategory


class FeatureScope(enum.Enum):
    """How a sparse feature's lookups scale with request contents.

    USER features (engagement history, liked pages) are a property of the
    requesting user: their ids are sampled once per request, and -- because
    the user net re-executes for every batch of user-item pairs -- each
    batch performs the full set of lookups again.

    ITEM features are a property of each candidate item being ranked: ids
    scale with the number of items, and each batch only looks up ids for
    its own slice of items.
    """

    USER = "user"
    ITEM = "item"


@dataclass(frozen=True)
class TableConfig:
    """Static attributes of one embedding table.

    Attributes:
        name: Unique table name within the model.
        net: Name of the net whose sparse feature indexes this table.
        num_rows: Hash-bucket count (number of embedding rows).
        dim: Embedding vector dimension.
        dtype: Element storage type (FP32 uncompressed, per Section V-A).
        scope: USER or ITEM feature scaling (see :class:`FeatureScope`).
        activation_prob: Probability the feature is present in a request
            (USER scope) or per item (ITEM scope).  Absent features perform
            no lookups and are filled with zeros on the main shard; this
            input sparsity drives the serving overheads the paper measures.
        mean_ids: Mean number of ids when the feature is present (per
            request for USER scope, per item for ITEM scope).
        deterministic_ids: If True the id count is exactly ``mean_ids``
            (rounded) instead of Poisson -- e.g. a user-id-keyed table
            always performs exactly one lookup (paper: DRM3's dominant
            table has "a pooling factor of 1").
    """

    name: str
    net: str
    num_rows: int
    dim: int
    dtype: DType = DType.FP32
    scope: FeatureScope = FeatureScope.USER
    activation_prob: float = 1.0
    mean_ids: float = 1.0
    deterministic_ids: bool = False

    def __post_init__(self):
        if self.num_rows < 1:
            raise ValueError(f"table {self.name}: num_rows must be >= 1")
        if self.dim < 1:
            raise ValueError(f"table {self.name}: dim must be >= 1")
        if not 0.0 <= self.activation_prob <= 1.0:
            raise ValueError(f"table {self.name}: activation_prob out of [0, 1]")
        if self.mean_ids < 0:
            raise ValueError(f"table {self.name}: mean_ids must be >= 0")

    @functools.cached_property
    def nbytes(self) -> float:
        """Storage footprint of the full table (cached: the bin-packing
        strategies and payload sizing read it in tight loops)."""
        return self.num_rows * self.dtype.row_bytes(self.dim)

    def expected_ids_per_request(self, mean_items: float) -> float:
        """Expected lookups contributed by one request (one batch pass)."""
        per_presence = self.activation_prob * self.mean_ids
        if self.scope is FeatureScope.ITEM:
            return per_presence * mean_items
        return per_presence


@dataclass(frozen=True)
class NetConfig:
    """One sequential subnet of the model (e.g. user net, content net).

    ``dense_us_per_item`` / ``dense_us_fixed`` express the net's non-sparse
    operator cost on the SC-Large reference platform; the cost model scales
    them by relative clock.  ``op_mix`` apportions that dense cost across
    operator categories for Figure-4-style attribution and must sum to 1.
    """

    name: str
    dense_us_per_item: float
    dense_us_fixed: float
    op_mix: dict[OpCategory, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.dense_us_per_item < 0 or self.dense_us_fixed < 0:
            raise ValueError(f"net {self.name}: dense costs must be >= 0")
        mix = self.op_mix or {OpCategory.DENSE: 1.0}
        if OpCategory.SPARSE in mix or OpCategory.RPC in mix:
            raise ValueError(f"net {self.name}: op_mix must only contain dense categories")
        total = sum(mix.values())
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"net {self.name}: op_mix sums to {total}, expected 1.0")
        object.__setattr__(self, "op_mix", dict(mix))


@dataclass(frozen=True)
class RequestProfile:
    """Distribution of ranking-request sizes and the batching default.

    Item counts are lognormal: production request sizes are long-tailed,
    which is what makes P99 compute several times P50 (paper Table III).
    """

    median_items: float
    sigma_items: float
    batch_size: int
    min_items: int = 1
    max_items: int = 100_000
    dense_feature_bytes: float = 512.0
    """Serialized dense-feature payload per item (drives request serde)."""

    def __post_init__(self):
        if self.median_items <= 0 or self.sigma_items < 0:
            raise ValueError("invalid item-count distribution")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 1 <= self.min_items <= self.max_items:
            # A zero-item request would hand its ITEM-scoped tables an
            # empty ``reduceat`` segment in the bulk generator.
            raise ValueError("need 1 <= min_items <= max_items")

    def sample_items(self, rng: np.random.Generator) -> int:
        """Sample the number of candidate items for one request."""
        items = self.median_items * float(np.exp(rng.normal(0.0, self.sigma_items)))
        return int(np.clip(round(items), self.min_items, self.max_items))

    def sample_items_bulk(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vectorized :meth:`sample_items`: ``count`` draws in one RNG call.

        Must stay the element-wise image of the scalar path (one normal
        per request, round, clip) -- the vectorized request generator's
        byte-identity guarantee depends on this method and
        :meth:`sample_items` sharing one definition of the distribution.
        """
        raw = self.median_items * np.exp(rng.normal(0.0, self.sigma_items, size=count))
        return np.clip(np.round(raw), self.min_items, self.max_items)

    @property
    def mean_items(self) -> float:
        """Mean of the lognormal item count (before clipping)."""
        return self.median_items * float(np.exp(self.sigma_items**2 / 2))


@dataclass(frozen=True)
class ModelConfig:
    """Full description of one DLRM-like model."""

    name: str
    nets: tuple[NetConfig, ...]
    tables: tuple[TableConfig, ...]
    profile: RequestProfile
    dense_param_bytes: float = 0.5 * GIB

    def __post_init__(self):
        if not self.nets:
            raise ValueError("model requires at least one net")
        net_names = [net.name for net in self.nets]
        if len(set(net_names)) != len(net_names):
            raise ValueError("duplicate net names")
        table_names = [table.name for table in self.tables]
        if len(set(table_names)) != len(table_names):
            raise ValueError("duplicate table names")
        known = set(net_names)
        for table in self.tables:
            if table.net not in known:
                raise ValueError(f"table {table.name} references unknown net {table.net}")
        # Lookup indices: table()/tables_for_net() sit on the serving
        # simulator's per-RPC hot path, so they must not scan.
        by_net: dict[str, tuple[TableConfig, ...]] = {name: () for name in net_names}
        for table in self.tables:
            by_net[table.net] += (table,)
        object.__setattr__(self, "_table_index", {t.name: t for t in self.tables})
        object.__setattr__(self, "_tables_by_net", by_net)

    # -- lookups ---------------------------------------------------------
    def table(self, name: str) -> TableConfig:
        try:
            return self._table_index[name]
        except KeyError:
            raise KeyError(f"no table named {name} in model {self.name}") from None

    def tables_for_net(self, net_name: str) -> tuple[TableConfig, ...]:
        return self._tables_by_net.get(net_name, ())

    # -- capacity --------------------------------------------------------
    @property
    def sparse_bytes(self) -> float:
        return sum(table.nbytes for table in self.tables)

    @property
    def total_bytes(self) -> float:
        return self.sparse_bytes + self.dense_param_bytes

    @property
    def sparse_fraction(self) -> float:
        """Fraction of model capacity held in embedding tables."""
        return self.sparse_bytes / self.total_bytes

    @property
    def largest_table_bytes(self) -> float:
        return max(table.nbytes for table in self.tables)

    def expected_pooling_per_net(self) -> dict[str, float]:
        """Expected lookups per request, by net (one batch pass)."""
        mean_items = self.profile.mean_items
        totals = {net.name: 0.0 for net in self.nets}
        for table in self.tables:
            totals[table.net] += table.expected_ids_per_request(mean_items)
        return totals
