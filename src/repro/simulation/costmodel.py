"""Calibrated cost model for serving-stack and operator work.

Every cost formula the simulator charges is written here once (the
inbound request's size is
:func:`repro.requests.generator.request_payload_bytes`), so a constant
or formula change is one edit.  The plan builder
(:func:`repro.serving.columnar.build_chunk_plans`) evaluates these
functions over its numpy columns (a :data:`~repro.core.types.Num` is a
number or such a column), the scalar oracle ``tests/plan_oracle.py``
calls them with plain numbers, and both replay engines read the
resulting seconds from the plan.

The paper publishes no absolute times (all of its figures are
normalized), so constants below are set to produce the *relationships*
the paper reports -- the claims benchmark (``benchmarks/claims.py``)
assert them, and ROADMAP.md's open item "Calibrate the cost model
against the ledger" tracks a fit of these constants to the paper's
numbers -- with magnitudes representative of commodity data-center
serving:

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
    Num,
    check_fields,
    checked,
    count,
    finite_non_negative,
    non_negative,
    positive,
    probability,
)
from repro.models.config import NetConfig, TableConfig
from repro.simulation.platform import Platform


@dataclass(frozen=True)
class CostModel:
    """Tunable constants for the serving cost model."""

    # -- serialization ----------------------------------------------------
    serde_fixed: float = checked(finite_non_negative, 1.2 * US)
    """Per-message fixed serde cost (framing, allocation)."""

    serde_per_table: float = checked(finite_non_negative, 1.6 * US)
    """Shard-side per-feature (de)serialization cost: each table's ids and
    pooled vectors travel as a nested Thrift struct, and struct building --
    not raw bytes -- dominates RPC serde.  This is the shard-side cost that
    sharding parallelizes, and it scales with the number of *active*
    features, which is how input sparsity drives distributed-inference
    overheads (paper abstract, Section VI)."""

    client_serde_per_table: float = checked(finite_non_negative, 0.3 * US)
    """Main-shard per-feature serde cost.  Cheaper than the shard side:
    the async RPC client serializes id lists without copies and
    deserializes responses into zero-copy tensor views."""

    serde_bytes_per_sec: float = checked(positive, 5.0e9)
    """Serde throughput at the SC-Large reference clock."""

    # -- service handler ----------------------------------------------------
    request_handler_fixed: float = checked(finite_non_negative, 40 * US)
    """Main-shard Thrift handler work per ranking request."""

    response_handler_fixed: float = checked(finite_non_negative, 18 * US)
    """Main-shard response assembly per ranking request."""

    rpc_service_fixed: float = checked(finite_non_negative, 26 * US)
    """Sparse-shard Thrift service boilerplate per RPC."""

    rpc_dispatch_fixed: float = checked(finite_non_negative, 1.8 * US)
    """Main-shard cost to schedule/book-keep one async RPC op."""

    io_threads: int = checked(count, 4)
    """IO threads per server: async RPC responses are deserialized here,
    off the request workers, overlapping the remaining RPC waits."""

    fill_per_table: float = checked(finite_non_negative, 0.2 * US)
    """Main-shard zero-fill for a remote table absent from the request
    (the sparsity optimization skips its lookup; downstream layers still
    need a zero blob)."""

    # -- ML framework -------------------------------------------------------
    net_overhead_fixed: float = checked(finite_non_negative, 8 * US)
    """Caffe2 net setup/teardown per net execution."""

    net_overhead_per_op: float = checked(finite_non_negative, 0.12 * US)
    """Per-operator scheduling cost within a net."""

    # -- sparse operators ---------------------------------------------------
    sls_dispatch_per_table: float = checked(finite_non_negative, 0.5 * US)
    """SLS operator dispatch per table (even when the lookup is empty)."""

    sls_dram_overlap: float = checked(non_negative, 0.45)
    """Fraction of the dependent-cache-line chain not hidden by MLP."""

    # -- dense split ----------------------------------------------------------
    dense_pre_fraction: float = checked(probability, 0.5)
    """Share of a net's dense work before the sparse join (bottom MLP)."""

    # -- compressed-table execution -------------------------------------------
    dequant_per_id: float = checked(finite_non_negative, 0.035 * US)
    """Extra ALU work per lookup id for quantized rows (Table III)."""

    def __post_init__(self):
        # A negative cost would surface as a negative delay deep inside
        # the DES, an infinite one would fail only mid-replay, and a
        # fractional pool would run there but not in the evaluator: fail
        # at construction with the field named instead.
        check_fields(self, "CostModel.")

    # ------------------------------------------------------------------------
    def serde_time(
        self,
        nbytes: Num,
        platform: Platform,
        tables: Num = 0,
        client_side: bool = False,
    ) -> Num:
        """(De)serialization of an ``nbytes`` message carrying ``tables``
        per-feature structs; ``client_side`` selects the cheaper zero-copy
        path of the async RPC client."""
        per_table = self.client_serde_per_table if client_side else self.serde_per_table
        return (
            self.serde_fixed
            + (per_table * tables) / platform.relative_clock
            + nbytes / (self.serde_bytes_per_sec * platform.relative_clock)
        )

    def dense_time(self, net: NetConfig, items: Num, platform: Platform) -> Num:
        """One batch's non-sparse operator time for ``net``."""
        micros = net.dense_us_fixed + net.dense_us_per_item * items
        return micros * US / platform.relative_clock

    def dense_halves(
        self, net: NetConfig, items: Num, platform: Platform
    ) -> tuple[Num, Num]:
        """:meth:`dense_time` split at the sparse join: the bottom (pre)
        and the top (post) half."""
        dense = self.dense_time(net, items, platform)
        pre = dense * self.dense_pre_fraction
        return pre, dense - pre

    def sls_per_id(self, table: TableConfig, platform: Platform) -> float:
        """Cost of one pooled lookup id: a dependent cache-line chain.
        Not memoized: hashing the frozen dataclass keys costs more than
        these few multiplications."""
        lines = max(1, -(-int(table.dim * table.dtype.bytes_per_element) // 64))
        chain = platform.dram_access_ns * NS * lines * self.sls_dram_overlap
        extra = self.dequant_per_id if table.dtype.row_overhead_bytes else 0.0
        return chain + extra

    def sls_time(self, tables: Num, gather: Num) -> Num:
        """SLS time: one operator dispatch per table, plus the ``gather``
        of the pooled ids -- their :meth:`sls_per_id` costs summed in
        lookup order.  On the singular model every table's op is
        dispatched, even when its feature is absent."""
        return self.sls_dispatch_per_table * tables + gather

    def net_overhead(self, num_ops: Num) -> Num:
        """Framework overhead for one net execution of ``num_ops`` ops."""
        return self.net_overhead_fixed + self.net_overhead_per_op * num_ops

    def zero_fill_time(self, tables: Num) -> Num:
        """Main-shard zero-fill of ``tables`` remote tables absent from a
        batch."""
        return self.fill_per_table * tables


# -- payload sizing ------------------------------------------------------------

_PER_TABLE_FRAMING = 24.0
_PER_MESSAGE_FRAMING = 64.0


def rpc_request_bytes(ids: Num, tables: Num, segments: Num) -> Num:
    """Serialized RPC request for ``ids`` lookup ids over ``tables``
    tables, each with ``segments`` lengths: 8-byte ids + 4-byte lengths +
    framing."""
    return (
        _PER_MESSAGE_FRAMING
        + ids * 8.0
        + tables * (segments * 4.0 + _PER_TABLE_FRAMING)
    )


def rpc_response_bytes(
    tables: Num, user_dims: Num, item_dims: Num, batch_items: Num
) -> Num:
    """Serialized RPC response: pooled fp32 vectors per active table.

    USER-scoped features (``user_dims``, their summed dimensions) pool to
    one vector per request; ITEM-scoped features (``item_dims``) return
    one vector per candidate item in the batch.  This is why response
    (de)serialization is the dominant parallelizable cost for
    content-heavy nets.  Every operand is integer-valued, so the sum is
    exact in any order.
    """
    return _PER_MESSAGE_FRAMING + (
        tables * _PER_TABLE_FRAMING + (user_dims + batch_items * item_dims) * 4.0
    )


def ranking_response_bytes(num_items: Num) -> Num:
    """Response to the ranking client: one score + framing per item."""
    return _PER_MESSAGE_FRAMING + 8.0 * num_items


def wire_time(nbytes: Num, platform: Platform) -> Num:
    """Time an ``nbytes`` message occupies the sender's egress NIC."""
    return nbytes / platform.nic_bandwidth
