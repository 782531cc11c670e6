"""The aggregate accumulator: the one way a replay is attributed.

The paper attributes latency and CPU from distributed traces (Sec. IV-B).
:class:`AggregatingTracer` computes exactly those breakdowns without
building a trace, and attributes each completed request into
preallocated columnar numpy arrays -- the columns
:class:`~repro.experiments.runner.RunResult` adopts.  Every breakdown a
figure reads is a column: the E2E/CPU/stack columns, per-shard CPU
demand and sparse-op time, the per-(shard, net) sparse-op time (Fig 10),
sparse and dense operator CPU (Fig 4), and the RPC and batch counts.  No
``Span`` is constructed and no per-request dataclass is retained.

A request's in-flight state, built fresh for each request and dropped
once its row is written, holds two things:

* the **single-writer** accumulators, each fed by one ordered chain: the
  request's head/tail serde and e2e windows, one batch's buckets, one RPC
  attempt's entry, and the bounding batch and best RPC (running maxima);
* its **CPU charges**, one compact record each (:data:`Record`), in the
  order they were recorded.  The sums they feed interleave across batch
  chains -- the three CPU buckets, sparse and dense operator CPU, and the
  per-shard and per-(shard, net) columns -- so their float order is the
  recording order, and one fold (:func:`fold_charges`) adds them up at
  completion.

Both replay paths fill that state.  The DES drives ``record_interval``,
which builds a request's state on its first call, updates the
single-writer accumulators and appends each charge in call order --
already the recording order.  The columnar evaluator
(:class:`~repro.simulation.vectorized.SweepEvaluator`) builds a state
for a request it commits, writes the single-writer values it computed
inline and its records, sorted into the DES's recording order.  Either
way :meth:`AggregatingTracer.finalize_request` folds the records and
writes the request's row.

Spans are an opt-in sink for code that reads them (trace rendering,
Fig 3): a bare :class:`~repro.serving.simulator.ClusterSimulation` in
``TraceMode.FULL`` records :class:`~repro.tracing.span.Span` objects, and
:func:`~repro.tracing.attribution.attribute_request` over them is the
independent oracle the accumulator is tested against.

Equivalence contract (regression-tested against that oracle): for any
simulation, every column is **bit-identical** to attributing the spans.
Every accumulation below therefore mirrors the float-operation *order*
of ``attribute_request``:

* intervals are folded in recording order, which is the order
  ``attribute_request`` iterates the span list;
* the bounding batch / bounding RPC use strict ``>`` running maxima,
  matching ``max()``'s first-of-equals tie-break over recording order;
* request-level serde seeds each per-batch serde accumulator (the request
  deserialization is recorded before any batch span) and the response
  serialization is added last, reproducing the interleaved order of the
  full pass;
* residuals use the same ``max(0.0, ...)`` clamps on identically
  associated sums.
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

from repro.core.types import OpCategory
from repro.tracing.attribution import (
    CPU_BUCKETS,
    E2E_BUCKETS,
    EMBEDDED_BUCKETS,
    AttributionError,
)
from repro.tracing.span import MAIN_SHARD, Layer


class TraceMode(enum.Enum):
    """Which tracer a bare :class:`~repro.serving.simulator.ClusterSimulation`
    installs when none is passed.  Experiment runs always attribute through
    the aggregate accumulator, whatever the mode."""

    FULL = "full"
    """Record every interval as a :class:`~repro.tracing.span.Span` -- the
    sink for trace rendering and span-level inspection."""

    AGGREGATE = "aggregate"
    """Install an :class:`AggregatingTracer`: span-free, every column
    produced directly."""


#: Fields of one :class:`OutcomeLedger` row, in row order: the chaos
#: runtime writes ``degraded``/``retries``, the resilience runtime
#: ``attempts``/``hedged``/``deadline_exceeded``.  Each is also a column.
OUTCOME_FIELDS = (
    "degraded", "retries", "attempts", "hedged", "deadline_exceeded",
)
DEGRADED, RETRIES, ATTEMPTS, HEDGED, DEADLINE_EXCEEDED = range(
    len(OUTCOME_FIELDS)
)


class OutcomeLedger(dict[int, list[int]]):
    """Per-request outcomes of one faulty replay: request id -> a row of
    :data:`OUTCOME_FIELDS` counters, created zeroed on the first write.

    Rows are kept for the whole replay.  A straggling supervised attempt
    can still write after its request completed (a late abort, or a
    dead-on-arrival retry): that write reaches :meth:`totals` but not
    the columns the tracer folded at completion.
    """

    def __missing__(self, request_id: int) -> list[int]:
        row = self[request_id] = [0] * len(OUTCOME_FIELDS)
        return row

    def totals(self) -> dict[str, int]:
        """Each field summed over every row."""
        return {
            name: sum(row[index] for row in self.values())
            for index, name in enumerate(OUTCOME_FIELDS)
        }


#: Per-request columns of an attributed run, by name and dtype.
COLUMNS: dict[str, type] = {
    "e2e": np.float64,
    "cpu": np.float64,
    "sparse_op_cpu": np.float64,
    "dense_op_cpu": np.float64,
    "rpcs": np.int64,
    "num_batches": np.int64,
    "workload": np.int64,
    "request_ids": np.int64,
    "status": np.int64,
    **dict.fromkeys(OUTCOME_FIELDS, np.int64),
}

#: Stack-column buckets by kind.
STACK_BUCKETS: dict[str, tuple[str, ...]] = {
    "latency": E2E_BUCKETS,
    "embedded": EMBEDDED_BUCKETS,
    "cpu": CPU_BUCKETS,
}

#: Per-shard column kinds: CPU-seconds by shard, sparse-op time by sparse
#: shard, and sparse-op time by (sparse shard, net name).
SHARD_KINDS = ("cpu", "op", "net_op")


# Hot-loop locals: enum attribute lookups are not free in CPython.
_SERDE = Layer.SERDE
_OPERATOR = Layer.OPERATOR
_NET_OVERHEAD = Layer.NET_OVERHEAD
_RPC_CLIENT = Layer.RPC_CLIENT
_EMBEDDED = Layer.EMBEDDED
_BATCH = Layer.BATCH
_SERVICE = Layer.SERVICE
_SPARSE = OpCategory.SPARSE

# Indices into a live-RPC accumulator entry [ops, serde, overhead, service].
_R_OPS, _R_SERDE, _R_OVERHEAD, _R_SERVICE = 0, 1, 2, 3

# Record kinds: which sums a CPU charge feeds.
_K_OPS_SLW = 0  # sls_remote (shard): sparse op cpu + per-shard op time (dur)
_K_SERDE = 1  # every serde charge: request/response and RPC ser/deser
_K_OPS = 2  # dense_pre / dense_post (main): dense op cpu
_K_SERVICE = 3  # net_sched, request_e2e, rpc_e2e: service cpu
_K_SRS_SVC = 4  # rpc_resp_ser fused with a fixed rpc_e2e charge (dur)
_K_OPS_LOCAL = 5  # sls_local (main, singular plans only): sparse op cpu

#: One CPU charge: ``(time, parent, index, net, kind, shard, cpu, dur)``.
#: The first three fields place it in recording order.  The DES appends
#: charges in that order, as ``(time, None, 0, ...)`` with the time it
#: records them.  The evaluator's record is the dispatch key ``(time,
#: parent, index)`` of the dispatch that records it, extended by the
#: charge, so it is itself a chain step's key and the records sort by
#: themselves (see :mod:`repro.simulation.vectorized`); only a request's
#: first and last two charges lead like the DES's, placed by hand.
#: ``net`` names the net of a ``_K_OPS_SLW`` charge (``None`` for the
#: other kinds).  ``dur`` is the second float of the two kinds that
#: carry one -- the wall-stamped op time of ``_K_OPS_SLW`` and the
#: service cpu of ``_K_SRS_SVC`` -- and 0.0 otherwise.
Record = tuple[float, Any, int, str | None, int, int, float, float]


def fold_charges(records: list[Record]) -> tuple[
    float, float, float, float, float,
    dict[int, float], dict[int, float], dict[tuple[int, str | None], float],
]:
    """Add up one request's CPU charges, in ``records`` order.

    Returns ``(cpu_ops, cpu_serde, cpu_service, sparse_op_cpu,
    dense_op_cpu, shard_cpu, shard_op, shard_net_op)``: the three CPU
    buckets, operator CPU by category, CPU-seconds by shard
    (``MAIN_SHARD`` first, as the request deserialization is always the
    first charge), and sparse-op time by shard and by (shard, net).
    """
    shard_cpu: dict[int, float] = {MAIN_SHARD: 0.0}
    shard_op: dict[int, float] = {}
    shard_net_op: dict[tuple[int, str | None], float] = {}
    cpu_main = 0.0
    cpu_ops = 0.0
    cpu_serde = 0.0
    cpu_service = 0.0
    sparse_op_cpu = 0.0
    dense_op_cpu = 0.0
    shard_get = shard_cpu.get
    op_get = shard_op.get
    net_op_get = shard_net_op.get
    # Literal kinds (see _K_*): shard-side charges outnumber main-side
    # ones on every multi-shard plan, so they take the first branch;
    # MAIN_SHARD is -1, making ``shard >= 0`` the test.
    for _t, _parent, _index, net, kind, shard, cpu, dur in records:
        if shard >= 0:
            if kind == 1:
                shard_cpu[shard] = shard_get(shard, 0.0) + cpu
                cpu_serde += cpu
            elif kind == 0:
                shard_cpu[shard] = shard_get(shard, 0.0) + cpu
                cpu_ops += cpu
                sparse_op_cpu += cpu
                shard_op[shard] = op_get(shard, 0.0) + dur
                net_key = (shard, net)
                shard_net_op[net_key] = net_op_get(net_key, 0.0) + dur
            elif kind == 4:
                # A serde charge and the service charge recorded right
                # after it on the same shard: one left-associated
                # read-modify-write.
                shard_cpu[shard] = (shard_get(shard, 0.0) + cpu) + dur
                cpu_serde += cpu
                cpu_service += dur
            else:
                shard_cpu[shard] = shard_get(shard, 0.0) + cpu
                cpu_service += cpu
        else:
            cpu_main += cpu
            if kind == 1:
                cpu_serde += cpu
            elif kind == 2:
                cpu_ops += cpu
                dense_op_cpu += cpu
            elif kind == 5:
                cpu_ops += cpu
                sparse_op_cpu += cpu
            else:
                cpu_service += cpu
    shard_cpu[MAIN_SHARD] = cpu_main
    return (
        cpu_ops, cpu_serde, cpu_service, sparse_op_cpu, dense_op_cpu,
        shard_cpu, shard_op, shard_net_op,
    )


class _RequestState:
    """Accumulators for one in-flight request: its CPU charges and the
    single-writer sums.  Built fresh per request, never reused."""

    __slots__ = (
        "records",
        "head_serde",
        "tail_serde",
        "e2e",
        "service_count",
        "num_batches",
        "best_batch",
        "best_batch_dur",
        "batch_dense",
        "batch_embedded",
        "batch_serde",
        "batch_overhead",
        "batch_sparse",
        "rpcs",
        "best_rpc",
        "best_rpc_dur",
        "rpc_live",
    )

    def __init__(self) -> None:
        self.records: list[Record] = []
        self.head_serde = 0.0
        self.tail_serde = 0.0
        self.e2e = 0.0
        self.service_count = 0
        self.num_batches = 0
        self.best_batch = -1
        self.best_batch_dur = -1.0
        self.batch_dense: list[float] = []
        self.batch_embedded: list[float] = []
        self.batch_serde: list[float] = []
        self.batch_overhead: list[float] = []
        self.batch_sparse: list[float] = []
        self.rpcs = 0
        self.best_rpc: list[Any] | None = None
        self.best_rpc_dur = -1.0
        self.rpc_live: dict[int, list[float]] = {}

    def grow_batches(self, index: int) -> None:
        """Ensure per-batch accumulators cover batch ``index``.

        New serde slots seed with the request-level head serde (request
        deserialization precedes every batch span), so the bounding
        batch's final serde sum reproduces the full pass's interleaved
        addition order: head, then that batch's serde spans, then tail.
        """
        head = self.head_serde
        while len(self.batch_dense) <= index:
            self.batch_dense.append(0.0)
            self.batch_embedded.append(0.0)
            self.batch_serde.append(head)
            self.batch_overhead.append(0.0)
            self.batch_sparse.append(0.0)

    def rpc_entry(self, rpc_id: int) -> list[float]:
        entry = self.rpc_live.get(rpc_id)
        if entry is None:
            entry = self.rpc_live[rpc_id] = [0.0] * 4
        return entry


class AggregatingTracer:
    """Accumulates per-request state; emits columnar attributions.

    Drop-in replacement for :class:`~repro.tracing.span.Tracer` on the
    simulator side (same ``record_interval`` signature, same drain/assert
    API).  Completion is driven by :meth:`finalize_request`, which plays
    the role ``pop_request`` + ``attribute_request`` play over spans:
    it folds the request's CPU charges, attributes it into the next row
    of the preallocated output columns and drops the in-flight state.
    """

    def __init__(self, expected_requests: int = 0):
        self._live: dict[int, _RequestState] = {}
        #: Optional request-id -> workload-index mapping (any integer
        #: indexable, e.g. a ``MixedStream.workload_ids`` array whose
        #: positions are request ids).  ``None`` labels every request as
        #: workload 0 -- the single-workload suites.
        self.workload_ids = None
        #: Optional :class:`OutcomeLedger` of the replay, folded into the
        #: status and outcome columns at completion.  ``None`` -- the
        #: healthy case -- leaves those columns all-zero.
        self.outcomes: OutcomeLedger | None = None
        capacity = max(int(expected_requests), 16)
        self._count = 0
        # Per-request columns, one row per completed request in completion
        # order, zero-filled so flag columns a run never sets read 0.
        # Under fault injection completion order is not request order, so
        # "request_ids" is what maps a row back to its arrival time.
        self._columns: dict[str, np.ndarray] = {
            name: np.zeros(capacity, dtype=dtype)
            for name, dtype in COLUMNS.items()
        }
        self._stack_cols: dict[tuple[str, str], np.ndarray] = {
            (kind, bucket): np.zeros(capacity)
            for kind, buckets in STACK_BUCKETS.items()
            for bucket in buckets
        }
        # Per-shard columns by kind: "cpu" (CPU-seconds by shard index,
        # MAIN_SHARD = -1), "op" (sparse-op time by sparse shard) and
        # "net_op" (sparse-op time by (sparse shard, net)).  Created
        # lazily on first touch and zero-filled: a request that never
        # reaches a shard contributes exactly 0.0 to its column.
        self._shard_cols: dict[str, dict] = {kind: {} for kind in SHARD_KINDS}

    # -- recording (hot path) ---------------------------------------------
    def record_interval(
        self,
        request_id: int,
        shard: int,
        server,
        layer: Layer,
        name: str,
        start: float,
        end: float,
        cpu: float = 0.0,
        category: OpCategory | None = None,
        net: str | None = None,
        batch: int | None = None,
        rpc_id: int | None = None,
    ) -> None:
        state = self._live.get(request_id)
        if state is None:
            state = self._live[request_id] = _RequestState()
        # Durations from wall-stamped endpoints, exactly as a Span stores
        # them -- with nonzero skew, (end+skew)-(start+skew) can differ
        # from end-start in the last ulp, and a Span sees the former.
        skew = server.clock_skew
        duration = (end + skew) - (start + skew)
        if duration < 0.0:
            raise ValueError(f"span {name}: end {end} precedes start {start}")
        # Every CPU charge becomes one record, appended in call order --
        # the recording order the fold needs; the rest are single-writer
        # updates.  Only the shard's sparse-op charge reads its net.
        if layer is _SERDE:
            state.records.append((end, None, 0, None, _K_SERDE, shard, cpu, 0.0))
            if shard == MAIN_SHARD:
                if rpc_id is None:
                    if batch is not None:
                        if batch >= len(state.batch_serde):
                            state.grow_batches(batch)
                        state.batch_serde[batch] += duration
                    elif state.batch_dense:
                        state.tail_serde += duration
                    else:
                        state.head_serde += duration
                # else: RPC response deser on IO threads -- covered by the
                # EMBEDDED window in the E2E stack (its cpu is a record).
            else:
                state.rpc_entry(rpc_id)[_R_SERDE] += duration
        elif layer is _OPERATOR:
            if shard == MAIN_SHARD:
                sparse = category is _SPARSE
                state.records.append((
                    end, None, 0, None, _K_OPS_LOCAL if sparse else _K_OPS,
                    shard, cpu, 0.0,
                ))
                if batch is not None:
                    if batch >= len(state.batch_dense):
                        state.grow_batches(batch)
                    if sparse:
                        state.batch_sparse[batch] += duration
                    else:
                        state.batch_dense[batch] += duration
            else:
                state.records.append(
                    (end, None, 0, net, _K_OPS_SLW, shard, cpu, duration)
                )
                state.rpc_entry(rpc_id)[_R_OPS] += duration
        elif layer is _NET_OVERHEAD:
            state.records.append((end, None, 0, None, _K_SERVICE, shard, cpu, 0.0))
            if shard == MAIN_SHARD:
                if batch is not None:
                    if batch >= len(state.batch_overhead):
                        state.grow_batches(batch)
                    state.batch_overhead[batch] += duration
            else:
                state.rpc_entry(rpc_id)[_R_OVERHEAD] += duration
        elif layer is _RPC_CLIENT:
            state.rpcs += 1
            entry = state.rpc_live.pop(rpc_id, None)
            # Strict > keeps the first-recorded maximum, matching max()
            # over the span list in recording order.
            if duration > state.best_rpc_dur:
                state.best_rpc_dur = duration
                state.best_rpc = [0.0] * 4 if entry is None else entry
        elif layer is _EMBEDDED:
            if batch is not None:
                if batch >= len(state.batch_embedded):
                    state.grow_batches(batch)
                state.batch_embedded[batch] += duration
        elif layer is _BATCH:
            state.num_batches += 1
            if duration > state.best_batch_dur:
                state.best_batch_dur = duration
                state.best_batch = batch
        elif layer is _SERVICE:
            # A shard's rpc_e2e charge is its own record: under a
            # straggler it is not the evaluator's fixed service cost.
            state.records.append((end, None, 0, None, _K_SERVICE, shard, cpu, 0.0))
            if shard == MAIN_SHARD:
                state.service_count += 1
                state.e2e = duration
            else:
                state.rpc_entry(rpc_id)[_R_SERVICE] = duration

    # -- columnar attribution (request completion) ------------------------
    def finalize_request(
        self, request_id: int, state: _RequestState | None = None
    ) -> None:
        """Attribute one completed request into the next row of the output
        columns: fold its CPU charges (:func:`fold_charges`) and read its
        single-writer sums.

        The DES's request is attributed from the state its
        ``record_interval`` calls filled, which is dropped here; the
        evaluator passes a state it built and filled itself."""
        if state is None:
            state = self._live.pop(request_id, None)
            if state is None:
                raise AttributionError("no spans for request")
        if state.service_count != 1:
            raise AttributionError(
                f"expected exactly one service span on shard {MAIN_SHARD}, "
                f"found {state.service_count}"
            )
        if state.num_batches == 0:
            raise AttributionError(f"request {request_id}: no batch spans")

        bounding = state.best_batch
        dense = state.batch_dense[bounding]
        embedded = state.batch_embedded[bounding]
        serde = state.batch_serde[bounding] + state.tail_serde
        overhead = state.batch_overhead[bounding]
        e2e = state.e2e
        # Same association as summing the stack dict in bucket order
        # (RPC Service Function still zero at that point).
        accounted = 0.0 + dense + embedded + serde + 0.0 + overhead
        rpc_service = max(0.0, e2e - accounted)

        best = state.best_rpc  # set by a request's first RPC
        if best is None:
            # Singular: the embedded portion is the bounding batch's
            # local sparse ops themselves.
            emb_sparse = state.batch_sparse[bounding]
            emb_serde = emb_service = emb_overhead = emb_network = 0.0
        else:
            emb_sparse = best[_R_OPS]
            emb_serde = best[_R_SERDE]
            emb_overhead = best[_R_OVERHEAD]
            shard_service = best[_R_SERVICE]
            emb_service = max(
                0.0, shard_service - emb_sparse - emb_serde - emb_overhead
            )
            # Skew-safe: both terms are same-server durations.
            emb_network = max(0.0, state.best_rpc_dur - shard_service)

        (
            cpu_ops, cpu_serde, cpu_service, sparse_op_cpu, dense_op_cpu,
            shard_cpu, shard_op, shard_net_op,
        ) = fold_charges(state.records)
        cpu_total = 0 + cpu_ops + cpu_serde + cpu_service

        index = self._count
        columns = self._columns
        if index == len(columns["e2e"]):
            self._grow(2 * index)
            columns = self._columns
        columns["e2e"][index] = e2e
        columns["cpu"][index] = cpu_total
        columns["sparse_op_cpu"][index] = sparse_op_cpu
        columns["dense_op_cpu"][index] = dense_op_cpu
        columns["rpcs"][index] = state.rpcs
        columns["num_batches"][index] = state.num_batches
        workload_ids = self.workload_ids
        if workload_ids is not None:
            columns["workload"][index] = int(workload_ids[request_id])
        columns["request_ids"][index] = request_id
        outcomes = self.outcomes
        row = None if outcomes is None else outcomes.get(request_id)
        if row is not None:
            columns["status"][index] = 1 if row[DEGRADED] else 0
            for name, value in zip(OUTCOME_FIELDS, row):
                columns[name][index] = value
        cols = self._stack_cols
        cols["latency", E2E_BUCKETS[0]][index] = dense
        cols["latency", E2E_BUCKETS[1]][index] = embedded
        cols["latency", E2E_BUCKETS[2]][index] = serde
        cols["latency", E2E_BUCKETS[3]][index] = rpc_service
        cols["latency", E2E_BUCKETS[4]][index] = overhead
        cols["embedded", EMBEDDED_BUCKETS[0]][index] = emb_sparse
        cols["embedded", EMBEDDED_BUCKETS[1]][index] = emb_serde
        cols["embedded", EMBEDDED_BUCKETS[2]][index] = emb_service
        cols["embedded", EMBEDDED_BUCKETS[3]][index] = emb_overhead
        cols["embedded", EMBEDDED_BUCKETS[4]][index] = emb_network
        cols["cpu", CPU_BUCKETS[0]][index] = cpu_ops
        cols["cpu", CPU_BUCKETS[1]][index] = cpu_serde
        cols["cpu", CPU_BUCKETS[2]][index] = cpu_service
        shard_cols = self._shard_cols
        capacity = len(columns["e2e"])
        for kind, values in (
            ("cpu", shard_cpu),
            ("op", shard_op),
            ("net_op", shard_net_op),
        ):
            kind_cols = shard_cols[kind]
            for key, value in values.items():
                col = kind_cols.get(key)
                if col is None:
                    col = kind_cols[key] = np.zeros(capacity)
                col[index] = value
        self._count = index + 1

    def _grow(self, capacity: int) -> None:
        count = self._count

        def grown(array: np.ndarray) -> np.ndarray:
            out = np.zeros(capacity, dtype=array.dtype)
            out[:count] = array[:count]
            return out

        self._columns = {name: grown(col) for name, col in self._columns.items()}
        self._stack_cols = {key: grown(col) for key, col in self._stack_cols.items()}
        self._shard_cols = {
            kind: {key: grown(col) for key, col in cols.items()}
            for kind, cols in self._shard_cols.items()
        }

    # -- column export -----------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    def export_columns(
        self,
    ) -> tuple[
        int,
        dict[str, np.ndarray],
        dict[tuple[str, str], np.ndarray],
        dict[str, dict],
    ]:
        """Hand over the backing arrays: the row count, the per-request
        columns by name (:data:`COLUMNS`), the stack columns by (kind,
        bucket), and the per-shard columns by kind (:data:`SHARD_KINDS`).

        The caller (``RunResult.adopt_aggregate``) slices by count; the
        arrays are *not* copied, so a tracer must not be reused after
        export.
        """
        return self._count, self._columns, self._stack_cols, self._shard_cols

    # -- lifecycle / parity with Tracer ------------------------------------
    def in_flight(self) -> int:
        """Number of requests whose accumulators are still live."""
        return len(self._live)

    def drain_incomplete(self) -> list[int]:
        """Drop the accumulators of requests that never completed; returns
        their ids, sorted."""
        stale = sorted(self._live)
        self._live.clear()
        return stale

    def assert_drained(self) -> None:
        """Raise if any request's accumulators are still live."""
        if self._live:
            held = sorted(self._live)
            raise RuntimeError(
                f"tracer still holds accumulators for {len(held)} request(s): "
                f"{held[:8]}{'...' if len(held) > 8 else ''}"
            )
