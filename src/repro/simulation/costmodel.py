"""Calibrated cost model for serving-stack and operator work.

Every timing the simulator charges comes from here, so the calibration
story lives in one place.  The paper publishes no absolute times (all of
its figures are normalized), so constants below are set to produce the
*relationships* the paper reports -- the figure benchmarks
(``benchmarks/test_fig*.py``) assert them, and ROADMAP.md's open item
"Calibrate the cost model against the ledger" tracks a fit of these
constants to the paper's numbers -- with magnitudes representative of
commodity data-center serving:

* embedding lookups are DRAM-latency bound (dependent cache-line chains),
  nearly platform-independent (paper Fig. 15);
* serialization scales with bytes and with core clock;
* each RPC costs fixed service/handler/scheduling time on both sides --
  the "constant overheads" that dominate once shards multiply (Sec. VI-B2);
* dense operator cost comes from each net's config and scales with clock.

All returned times are seconds on one core.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.types import (
    NS,
    US,
    check_fields,
    checked,
    count,
    non_negative,
    positive,
    probability,
)
from repro.models.config import FeatureScope, NetConfig, TableConfig
from repro.simulation.platform import Platform


def _sls_per_id(
    table: TableConfig, platform: Platform, overlap: float, dequant: float
) -> float:
    """Per-id lookup cost.  Deliberately not memoized: hashing the frozen
    dataclass keys costs more than these few multiplications."""
    lines = max(1, -(-int(table.dim * table.dtype.bytes_per_element) // 64))
    chain = platform.dram_access_ns * NS * lines * overlap
    extra = dequant if table.dtype.row_overhead_bytes else 0.0
    return chain + extra


@dataclass(frozen=True)
class CostModel:
    """Tunable constants for the serving cost model."""

    # -- serialization ----------------------------------------------------
    serde_fixed: float = checked(non_negative, 1.2 * US)
    """Per-message fixed serde cost (framing, allocation)."""

    serde_per_table: float = checked(non_negative, 1.6 * US)
    """Shard-side per-feature (de)serialization cost: each table's ids and
    pooled vectors travel as a nested Thrift struct, and struct building --
    not raw bytes -- dominates RPC serde.  This is the shard-side cost that
    sharding parallelizes, and it scales with the number of *active*
    features, which is how input sparsity drives distributed-inference
    overheads (paper abstract, Section VI)."""

    client_serde_per_table: float = checked(non_negative, 0.3 * US)
    """Main-shard per-feature serde cost.  Cheaper than the shard side:
    the async RPC client serializes id lists without copies and
    deserializes responses into zero-copy tensor views."""

    serde_bytes_per_sec: float = checked(positive, 5.0e9)
    """Serde throughput at the SC-Large reference clock."""

    # -- service handler ----------------------------------------------------
    request_handler_fixed: float = checked(non_negative, 40 * US)
    """Main-shard Thrift handler work per ranking request."""

    response_handler_fixed: float = checked(non_negative, 18 * US)
    """Main-shard response assembly per ranking request."""

    rpc_service_fixed: float = checked(non_negative, 26 * US)
    """Sparse-shard Thrift service boilerplate per RPC."""

    rpc_dispatch_fixed: float = checked(non_negative, 1.8 * US)
    """Main-shard cost to schedule/book-keep one async RPC op."""

    io_threads: int = checked(count, 4)
    """IO threads per server: async RPC responses are deserialized here,
    off the request workers, overlapping the remaining RPC waits."""

    fill_per_table: float = checked(non_negative, 0.2 * US)
    """Main-shard zero-fill for a remote table absent from the request
    (the sparsity optimization skips its lookup; downstream layers still
    need a zero blob)."""

    # -- ML framework -------------------------------------------------------
    net_overhead_fixed: float = checked(non_negative, 8 * US)
    """Caffe2 net setup/teardown per net execution."""

    net_overhead_per_op: float = checked(non_negative, 0.12 * US)
    """Per-operator scheduling cost within a net."""

    # -- sparse operators ---------------------------------------------------
    sls_dispatch_per_table: float = checked(non_negative, 0.5 * US)
    """SLS operator dispatch per table (even when the lookup is empty)."""

    sls_dram_overlap: float = checked(non_negative, 0.45)
    """Fraction of the dependent-cache-line chain not hidden by MLP."""

    # -- dense split ----------------------------------------------------------
    dense_pre_fraction: float = checked(probability, 0.5)
    """Share of a net's dense work before the sparse join (bottom MLP)."""

    # -- compressed-table execution -------------------------------------------
    dequant_per_id: float = checked(non_negative, 0.035 * US)
    """Extra ALU work per lookup id for quantized rows (Table III)."""

    def __post_init__(self):
        # A negative cost would surface as a negative delay deep inside
        # the DES, and a fractional pool would run there but not in the
        # evaluator: fail at construction with the field named instead.
        check_fields(self, "CostModel.")

    # ------------------------------------------------------------------------
    def serde_time(
        self,
        nbytes: float,
        platform: Platform,
        tables: int = 0,
        client_side: bool = False,
    ) -> float:
        """(De)serialization of an ``nbytes`` message carrying ``tables``
        per-feature structs; ``client_side`` selects the cheaper zero-copy
        path of the async RPC client."""
        per_table = self.client_serde_per_table if client_side else self.serde_per_table
        return (
            self.serde_fixed
            + (per_table * tables) / platform.relative_clock
            + nbytes / (self.serde_bytes_per_sec * platform.relative_clock)
        )

    def dense_time(self, net: NetConfig, items: int, platform: Platform) -> float:
        """One batch's non-sparse operator time for ``net``."""
        micros = net.dense_us_fixed + net.dense_us_per_item * items
        return micros * US / platform.relative_clock

    def sls_per_id(self, table: TableConfig, platform: Platform) -> float:
        """Cost of one pooled lookup id: a dependent cache-line chain."""
        return _sls_per_id(table, platform, self.sls_dram_overlap, self.dequant_per_id)

    def sls_time(
        self,
        lookups: list[tuple[TableConfig, int]],
        platform: Platform,
        dispatched_tables: int | None = None,
    ) -> float:
        """SLS time for a set of (table, id-count) lookups.

        ``dispatched_tables`` counts operator dispatches (defaults to the
        number of entries); on the singular model every table's op runs
        even when its feature is absent.
        """
        dispatch = self.sls_dispatch_per_table * (
            dispatched_tables if dispatched_tables is not None else len(lookups)
        )
        overlap, dequant = self.sls_dram_overlap, self.dequant_per_id
        gather = 0.0
        for table, count in lookups:
            gather += count * _sls_per_id(table, platform, overlap, dequant)
        return dispatch + gather

    def net_overhead(self, num_ops: int) -> float:
        """Framework overhead for one net execution of ``num_ops`` ops."""
        return self.net_overhead_fixed + self.net_overhead_per_op * num_ops


# -- payload sizing ------------------------------------------------------------

_PER_TABLE_FRAMING = 24.0
_PER_MESSAGE_FRAMING = 64.0


def rpc_request_bytes(lookups: list[tuple[TableConfig, int]], segments: int) -> float:
    """Serialized RPC request: 8-byte ids + 4-byte lengths + framing."""
    ids = sum(count for _, count in lookups)
    return (
        _PER_MESSAGE_FRAMING
        + ids * 8.0
        + len(lookups) * (segments * 4.0 + _PER_TABLE_FRAMING)
    )


def rpc_response_bytes(tables: list[TableConfig], batch_items: int) -> float:
    """Serialized RPC response: pooled fp32 vectors per active table.

    USER-scoped features pool to one vector per request; ITEM-scoped
    features return one vector per candidate item in the batch.  This is
    why response (de)serialization is the dominant parallelizable cost for
    content-heavy nets.
    """
    total = _PER_MESSAGE_FRAMING
    for table in tables:
        rows = batch_items if table.scope is FeatureScope.ITEM else 1
        total += rows * table.dim * 4.0 + _PER_TABLE_FRAMING
    return total


def ranking_response_bytes(num_items: int) -> float:
    """Response to the ranking client: one score + framing per item."""
    return _PER_MESSAGE_FRAMING + 8.0 * num_items
