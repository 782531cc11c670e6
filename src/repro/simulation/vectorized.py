"""Columnar replay: the ``vectorized`` kernel's evaluator and collector.

The serial closed-loop, chaos-free regime -- the one the paper's figures
are produced in -- admits a much stronger optimization than a faster
event loop: every per-request cost is a pure function of
(request, plan, cost model) that the serving layer already precomputes
(:meth:`~repro.serving.simulator.ClusterSimulation._request_plans`), and
requests are strictly sequential (request ``i+1`` starts at the exact
completion float of request ``i``).  So instead of scheduling ~180 DES
events per request, this module replays whole *chunks* of requests as
array programs:

1. :mod:`repro.serving.columnar` transposes the per-request plans into
   per-chunk numpy columns (one vectorized pass per (net, shard) over
   all requests of the chunk), bit-for-bit equal to the scalar plan
   builder because every elementwise expression keeps the exact
   left-associated float order of the code it mirrors;
2. :class:`SweepEvaluator` walks each request's batch chains
   analytically -- cumulative scalar adds in the exact order the chained
   DES yields would have performed them, *not* ``np.sum`` -- and
   resolves the only genuinely dynamic parts (main-NIC egress
   serialization, the per-shard response NICs, the 4-way IO-thread pool,
   and RPC join maxima) with a tiny per-request event heap.  Every
   accumulation whose operand order is fixed by construction -- the
   per-batch bucket lists (one ordered chain per batch), the per-RPC
   attribution entries (one RPC per entry), the best-RPC selection
   (response-arrival order == heap pop order) and the bounding-batch
   selection (batch-record order == ``(end, batch)`` order) -- is
   computed inline, in the engine's own operand order;
3. only the accumulations whose order *interleaves across chains* --
   the request-level CPU sums (the three CPU buckets and the sparse and
   dense operator CPU), the per-shard CPU demand, and the per-shard and
   per-(shard, net) sparse op time -- travel as compact record tuples,
   sorted by the reference kernel's ``(time, batch, net,
   slot-position)`` recording order and folded through
   :class:`VectorizedColumns`, an
   :class:`~repro.tracing.aggregate.AggregatingTracer` subclass whose
   attribution math and column writes are the real ones -- so
   ``RunResult.adopt_aggregate`` consumes it unchanged.

Vectorized equivalence
======================

Why this reproduces the chained-yield float order bit for bit:

* **Timing.**  Under the eligibility gate (serial replay, worker pools
  at least ``max_batches`` deep, no chaos) no resource wait ever blocks:
  every ``acquire`` is granted at its request time, so each batch
  chain's timestamps are the running sums ``t += cost`` of its
  precomputed costs -- exactly the floats the DES produces, because the
  DES computes them with the *same* sequential additions.  The dynamic
  exceptions (NIC egress queues, the IO-thread pool) are Lindley
  recursions over heap-ordered events, which is precisely what
  ``SimServer.egress_delay`` and the FIFO resource implement.
* **Draw order.**  The only stochastic input, fabric jitter, is
  consumed through the *simulation's own* :class:`Fabric` cursor
  (:meth:`~repro.simulation.network.Fabric.zero_byte_delays` /
  :meth:`~repro.simulation.network.Fabric.seek`, the windows
  ``one_way_delay`` reads too) in heap order -- the same ``(time,
  kickoff-sequence)`` order the DES dispatches, with equal-time kickoffs
  ordered by batch index exactly as the engine's scheduling counter
  orders them.
* **Accumulation order.**  Per-accumulator operand order is what must
  match, not the global interleave: an accumulator only sees its own
  records' terms, so any accumulator fed by exactly one ordered chain
  (a batch's bucket sums, an RPC's entry) can be summed inline, while
  the cross-chain accumulators are folded from records sorted in
  reference recording order (reference record times with structural
  tie-breaks that reproduce the engine's sequence-counter order).
  Durations use the reference wall-stamp expression
  ``(end+skew)-(start+skew)`` whenever any clock skew is configured
  (with zero skew ``end-start`` is bitwise identical: ``+0.0`` is an
  exact no-op on the non-negative timestamps involved).

Idle arrivals
-------------

An open-loop run (or a co-located mix) is not serial, but most of its
requests arrive at an idle cluster and finish before the next arrival.
``ClusterSimulation.run_stream`` offers exactly those to the evaluator
(:func:`repro.serving.columnar.idle_arrival_cluster`), one request at a
time, starting at the driver's own ``engine.now``; the DES replays the
busy periods.  A request is committed under three conditions:

* **The engine holds no event and no request is in flight.**  Every
  earlier request has completed, so every worker and IO thread is free,
  and every egress reservation lies at or before ``now`` (each precedes
  its own request's completion).  The evaluator starts its Lindley
  recursions from the servers' reservations, so its NIC floats are the
  DES's.
* **Its batches fit the pools** (``nb`` no larger than the main pool
  and, for a distributed plan, every sparse pool: each batch holds one
  main worker, and at most one RPC per batch is in service on a host).
  Then no ``acquire`` blocks, and each chain's timestamps are the same
  running sums ``t += cost`` from ``now`` that a serial replay sums from
  the previous completion -- the serial computation shifted to the
  arrival float.  No chaos and no live resilience policy run, so
  nothing else schedules events (``vectorized_ineligibility``).
* **It completes strictly before the next arrival's clock** (the float
  the engine will compute, ``now + (next - previous)``).  Then every
  event of the request precedes the driver's next resumption, in the DES
  as here: the request's rows, ``completed`` entry, jitter draws and
  egress reservations are the ones the DES would record, in the same
  completion order.  A *tie* is different: at equal times the engine
  resumes the driver first (its resumption was scheduled at the
  previous arrival, before the request's final events), so the next
  request arrives while this one still holds its tail -- and may queue
  on a worker.  Ties, and later completions, therefore go to the DES.

A declined evaluation leaves no trace: the evaluator reads the jitter
cursor ahead without moving it, writes reservations, rows and
``completed`` only on commit, and the DES, replaying the same request,
consumes every window the evaluator read ahead -- so ``_jitter_pos`` and
the fabric RNG state end where a pure-DES run leaves them.

The regression pins for all of this are
``tests/test_kernel_equivalence.py`` (vectorized == reference on every
paper configuration, all ``RunResult`` columns, serial and parallel)
and ``tests/test_idle_arrival_replay.py`` (open-loop and mix replays ==
the batched DES across the busy-period range, ties, cluster state).
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.simulation.costmodel import CostModel
from repro.simulation.network import Fabric
from repro.tracing.aggregate import AggregatingTracer, _RequestState
from repro.tracing.span import MAIN_SHARD

# Record kinds: a compact re-encoding of the (layer, shard) dispatch of
# AggregatingTracer.record_interval, restricted to the accumulations
# that genuinely need global recording order (request CPU sums and
# per-shard demand).  Kind is a sort tie-break only at jitter-laden
# (measure-zero) time collisions; the numbering puts the shard sparse
# op before the client request serialization (the one same-sort-rank
# pair: both use slot-position ``(k+1)*8+2``), matching the reference
# tie order.
_K_OPS_SLW = 0  # sls_remote (shard): sparse op cpu + per-shard op time (dur)
_K_SERDE = 1  # rpc_request_ser / rpc_deser / rpc_resp_ser / rpc_response_deser
_K_OPS = 2  # dense_pre / dense_post (main): dense op cpu
_K_SERVICE = 3  # net_sched (main and shard)
_K_SRS_SVC = 4  # rpc_resp_ser fused with rpc_e2e (always sort-adjacent:
#                 same timestamp, consecutive slot-positions)
_K_OPS_LOCAL = 5  # sls_local (main, singular plans only): sparse op cpu

# One record: (time, key, kind, shard, cpu, dur), where ``key`` packs
# ``batch << 26 | net << 20 | slot-position``.  (time, key) is the
# reference recording order -- the time the reference kernel calls
# record_interval, then structural tie-breaks reproducing the engine's
# scheduling-sequence order at shared timestamps (lockstep batch chains
# resume in batch order; same-chain records at one timestamp keep their
# call positions); with each field in its fixed width, comparing keys
# equals comparing (batch, net, slot-position) tuples.  slot-position
# packs the reference (slot, position) pair as ``(slot+1)*8 + position``
# (main-side records use slot -1, shard-side records slot >= 0, and
# positions stay below 8, so the packed int orders exactly like the
# pair).  ``dur`` is only populated for _K_OPS_SLW (the one folded
# accumulation that needs a duration); every other duration is consumed
# inline by the evaluator.  The per-(shard, net) op time takes its net
# from the key's net bits.
_Record = tuple[float, int, int, int, float, float]

# Per-request heap events: (time, code, t_client, entry) where ``code``
# packs the dispatch rank and the event's identity as
# ``rank << 41 | batch << 20 | net << 14 | slot``.  With every field in
# its fixed width, integer comparison of two codes equals lexicographic
# comparison of the (rank, batch, net, slot) tuples -- so at equal
# times, RPC kickoffs dispatch before any jitter-laden completion could
# coincide (measure zero), and equal-time events of one rank dispatch
# in batch order, the engine's sequence order for processes spawned at
# the same instant.  The trailing two payload fields are never
# compared: (time, code) is unique per event.  Ranks: 0 = issue (client
# serde done -> egress + outbound network + shard chain), 1 = send
# (shard response serialized -> egress + return network), 2 = arrive
# (response at main -> IO-thread deserialization + join); advancing a
# rank is ``code + _EV_SEND_BIT``.
_EV_SEND_BIT = 1 << 41
_EV_ARRIVE_BIT = 2 << 41


class TargetColumns:
    """Columnar per-(net, shard-slot) RPC costs for one request chunk.

    Mirrors :class:`repro.serving.simulator._ShardLookups` transposed:
    ``rows[i]`` is request ``i``'s ``(9, batches)`` float64 numpy plane
    -- ``(active, cst, sdes, sov, slw, srs, crd, reqb, respb)`` by
    batch, where ``active[b]`` is 1.0 for the batches that issue an RPC
    to this slot (the slot's shard index lives on :attr:`shard`, not in
    the row).  The builders keep the planes as views into one stacked
    array per chunk; the evaluator turns a request's planes into Python
    lists (``tolist`` -- identical float64 bits) when it starts that
    request, so boxed floats exist for one request at a time and the
    hot loop still does scalar list indexing.
    """

    __slots__ = ("shard", "rows")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.rows: list[np.ndarray] = []


class NetColumns:
    """Columnar per-net execution plan for one request chunk.

    ``overhead``/``dense`` are ``[request][batch]``; singular plans set
    ``local`` (the fused SLS work) and a scalar ``singular_overhead``,
    distributed plans set ``targets`` (one :class:`TargetColumns` per
    routing slot, in the tenant's routing order).
    """

    __slots__ = ("overhead", "dense", "local", "singular_overhead", "targets")

    def __init__(self) -> None:
        self.overhead: list[list[float]] = []
        self.dense: list[list[float]] = []
        self.local: list[list[float]] = []
        self.singular_overhead = 0.0
        self.targets: list[TargetColumns] = []


class ChunkPlans:
    """One chunk's transposed execution plans (see :class:`NetColumns`).

    ``nb[i]`` is request ``i``'s batch count, or 0 when the builder left
    the request out (its batches do not fit the worker pools, so only
    the DES can replay it).  ``net_names`` names the tenant's nets by
    index -- the net bits of a record key.
    """

    __slots__ = (
        "singular", "rids", "nb", "head_deser", "tail_ser", "nets", "net_names",
    )

    def __init__(
        self,
        singular: bool,
        rids: list[int],
        nb: list[int],
        head_deser: list[float],
        tail_ser: list[float],
        nets: list[NetColumns],
        net_names: list[str],
    ) -> None:
        self.singular = singular
        self.rids = rids
        self.nb = nb
        self.head_deser = head_deser
        self.tail_ser = tail_ser
        self.nets = nets
        self.net_names = net_names


class VectorizedColumns(AggregatingTracer):
    """Aggregate collector fed by sorted record tuples instead of calls.

    The accumulators, the attribution math, the pooled per-request
    state, and the columnar output arrays are all inherited from
    :class:`~repro.tracing.aggregate.AggregatingTracer` --
    :meth:`fold_request` only replaces the per-record *dispatch* (a flat
    integer switch over pre-encoded kinds, covering exactly the
    accumulations whose operand order interleaves across batch chains)
    and then hands the state to the real
    :meth:`~repro.tracing.aggregate.AggregatingTracer.finalize_request`.
    Every ``+=`` below textually mirrors a ``record_interval`` branch;
    the record list arrives sorted in reference recording order, so the
    float-accumulation order is the reference order.

    It is also a complete tracer: an open-loop run installs it on the
    cluster, so the DES's ``record_interval`` calls and the evaluator's
    folds land in one collector, one row per request in completion
    order.  Folds name their nets per call, so one collector serves
    every tenant of a co-located mix.
    """

    #: Per-RPC fixed service cost (the rpc_e2e record's cpu, fused into
    #: the _K_SRS_SVC record) and the main request+response handler cpu
    #: (the request_e2e record's cpu, charged after the tail serde).
    #: Set once per run by :class:`SweepEvaluator`.
    service_fixed: float = 0.0
    handler_cpu: float = 0.0

    def fold_request(
        self,
        request_id: int,
        net_names: list[str],
        records: list[_Record],
        num_batches: int,
        spans: int,
        head_cpu: float,
        head: float,
        tail_cpu: float,
        tail: float,
        e2e: float,
        rpcs: int,
        best_rpc: list[float] | None,
        best_rpc_dur: float,
        best_batch: int,
        best_batch_dur: float,
        batch_dense: list[float],
        batch_embedded: list[float],
        batch_serde: list[float],
        batch_overhead: list[float],
        batch_sparse: list[float],
    ) -> None:
        """Fold one request's sorted records and attribute its columns.

        The scalar arguments are the single-writer accumulators the
        evaluator computed inline (head/tail/e2e serde windows, the
        best-RPC and bounding-batch selections, the per-batch bucket
        lists -- passed as reusable scratch lists, copied into the
        pooled state).  ``records`` carries only the order-sensitive
        rest: CPU charges in reference recording order; ``net_names``
        decodes their net bits.
        """
        pool = self._pool
        if pool:
            state = pool.pop()
            state.reset()
        else:
            state = _RequestState()
        self.spans_recorded += spans

        shard_cpu = state.shard_cpu
        shard_op = state.shard_op
        shard_net_op = state.shard_net_op
        service_fixed = self.service_fixed
        # The request deserialization is always the first record (its
        # reference time precedes every batch-chain record) and the
        # response serialization + request_e2e always the last two, so
        # their charges bracket the folded loop.
        cpu_serde = 0.0 + head_cpu
        cpu_main = 0.0 + head_cpu
        cpu_ops = 0.0
        cpu_service = 0.0
        sparse_op_cpu = 0.0
        dense_op_cpu = 0.0
        # Seed the MAIN slot first so the dict's key order matches the
        # reference (head record inserts it before any shard key).
        shard_cpu[MAIN_SHARD] = 0.0

        shard_get = shard_cpu.get
        op_get = shard_op.get
        net_op_get = shard_net_op.get
        # Shard-side records outnumber main-side ones on every
        # multi-shard plan (4 vs ~2.4 per RPC), so they take the first
        # branch; MAIN_SHARD is -1, making ``shard >= 0`` the test.
        for _t, key, kind, shard, cpu, dur in records:
            if shard >= 0:
                if kind == 1:
                    shard_cpu[shard] = shard_get(shard, 0.0) + cpu
                    cpu_serde += cpu
                elif kind == 0:
                    shard_cpu[shard] = shard_get(shard, 0.0) + cpu
                    cpu_ops += cpu
                    sparse_op_cpu += cpu
                    shard_op[shard] = op_get(shard, 0.0) + dur
                    net_key = (shard, net_names[(key >> 20) & 63])
                    shard_net_op[net_key] = net_op_get(net_key, 0.0) + dur
                elif kind == 4:
                    # rpc_resp_ser (serde cpu) + rpc_e2e (fixed service
                    # cpu) -- always adjacent in reference order, so the
                    # two shard charges fuse into one left-associated
                    # read-modify-write.
                    shard_cpu[shard] = (
                        shard_get(shard, 0.0) + cpu
                    ) + service_fixed
                    cpu_serde += cpu
                    cpu_service += service_fixed
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

        cpu_serde += tail_cpu
        cpu_main += tail_cpu
        handler_cpu = self.handler_cpu
        cpu_service += handler_cpu
        cpu_main += handler_cpu
        shard_cpu[MAIN_SHARD] = cpu_main

        state.cpu_ops = cpu_ops
        state.cpu_serde = cpu_serde
        state.cpu_service = cpu_service
        state.sparse_op_cpu = sparse_op_cpu
        state.dense_op_cpu = dense_op_cpu
        state.head_serde = head
        state.tail_serde = tail
        state.e2e = e2e
        state.service_count = 1
        state.num_batches = num_batches
        state.best_batch = best_batch
        state.best_batch_dur = best_batch_dur
        state.rpcs = rpcs
        state.best_rpc = best_rpc
        state.best_rpc_dur = best_rpc_dur
        state.batch_dense.extend(batch_dense)
        state.batch_embedded.extend(batch_embedded)
        state.batch_serde.extend(batch_serde)
        state.batch_overhead.extend(batch_overhead)
        state.batch_sparse.extend(batch_sparse)

        self._live[request_id] = state
        self.finalize_request(request_id)


class SweepEvaluator:
    """Replays plan requests analytically on one simulated cluster.

    The evaluator keeps no replay state of its own: everything a request
    leaves behind that a later request (or the DES) reads lives on the
    cluster objects it is handed -- the fabric's jitter cursor, the
    servers' egress reservations and the ``completed`` map -- and is
    written back only when a request *commits*.  A request's egress
    Lindley recursions start from the servers' own reservations, and its
    IO-thread pool starts idle: in the regime the evaluator runs in,
    every earlier request has completed, so every thread is free and
    every reservation (each precedes its own request's completion) lies
    at or before the request's start -- exactly where the DES starts.
    """

    __slots__ = (
        "fabric", "main", "shards", "completed", "collector",
        "skew_main", "shard_skews", "no_skew", "main_nic", "sparse_nic",
        "pre_fraction", "request_fixed", "response_fixed", "service_fixed",
        "io_threads", "_recs", "_entry_free",
        "_b_dense", "_b_embedded", "_b_serde", "_b_overhead", "_b_sparse",
    )

    def __init__(
        self,
        fabric: Fabric,
        main,
        shards: list,
        cost_model: CostModel,
        collector: VectorizedColumns,
        completed: dict[int, float],
    ) -> None:
        # ``main``/``shards`` are the cluster's SimServers (platform,
        # clock skew and egress reservation are read from them).
        self.fabric = fabric
        self.main = main
        self.shards = shards
        self.completed = completed
        self.collector = collector
        self.skew_main = main.clock_skew
        self.shard_skews = [server.clock_skew for server in shards]
        # Zero skew (the default) makes every ``(end+skew)-(start+skew)``
        # bitwise equal to ``end-start`` (the operands are non-negative,
        # so ``+0.0`` is an exact no-op) -- the replay loops branch to
        # the plain subtraction.
        self.no_skew = self.skew_main == 0.0 and not any(self.shard_skews)
        self.main_nic = main.platform.nic_bandwidth
        self.sparse_nic = shards[0].platform.nic_bandwidth if shards else 0.0
        self.pre_fraction = cost_model.dense_pre_fraction
        self.request_fixed = cost_model.request_handler_fixed
        self.response_fixed = cost_model.response_handler_fixed
        self.service_fixed = cost_model.rpc_service_fixed
        self.io_threads = cost_model.io_threads
        collector.service_fixed = cost_model.rpc_service_fixed
        # request_handler_fixed then += response_handler_fixed: one add.
        collector.handler_cpu = (
            cost_model.request_handler_fixed + cost_model.response_handler_fixed
        )
        # Reusable per-request scratch: the record list, the RPC-entry
        # free list, and the five per-batch bucket lists fold_request
        # copies out of.
        self._recs: list[_Record] = []
        self._entry_free: list[list[float]] = []
        self._b_dense: list[float] = []
        self._b_embedded: list[float] = []
        self._b_serde: list[float] = []
        self._b_overhead: list[float] = []
        self._b_sparse: list[float] = []

    def replay_chunk(
        self,
        plans: ChunkPlans,
        t_start: float,
        index: int | None = None,
        horizon: float = math.inf,
    ) -> float:
        """Replay requests of one chunk; returns the last completion time.

        With ``index`` None every request of the chunk replays serially,
        request ``i+1`` starting at request ``i``'s completion.  With an
        ``index``, only that request replays, starting at ``t_start``,
        and it *commits* -- folds its row, moves the jitter cursor and the
        egress reservations, enters ``completed`` -- only if it completes
        strictly before ``horizon``; otherwise the cluster is left
        untouched and the caller hands the request to the DES.  Either
        way the returned float is the request's completion time.
        """
        rows = range(len(plans.rids)) if index is None else (index,)
        if plans.singular:
            return self._replay_singular(plans, t_start, rows, horizon)
        return self._replay_distributed(plans, t_start, rows, horizon)

    # -- singular plans: fully analytic lockstep chains --------------------
    def _replay_singular(
        self, plans: ChunkPlans, t_start: float, rows, horizon: float
    ) -> float:
        collector = self.collector
        fold = collector.fold_request
        completed = self.completed
        net_names = plans.net_names
        skm = self.skew_main
        no_skew = self.no_skew
        pre_fraction = self.pre_fraction
        request_fixed = self.request_fixed
        response_fixed = self.response_fixed
        nets = plans.nets
        num_nets = len(nets)
        recs = self._recs
        b_dense = self._b_dense
        b_embedded = self._b_embedded
        b_serde = self._b_serde
        b_overhead = self._b_overhead
        b_sparse = self._b_sparse
        now = t_start
        for i in rows:
            t0_req = now
            deser = plans.head_deser[i]
            t1 = t0_req + deser
            t2 = t1 + request_fixed
            head = t1 - t0_req if no_skew else (t1 + skm) - (t0_req + skm)
            nb = plans.nb[i]
            del recs[:]
            add = recs.append
            del b_dense[:]
            del b_embedded[:]
            del b_serde[:]
            del b_overhead[:]
            del b_sparse[:]
            b_dense.extend([0.0] * nb)
            b_embedded.extend([0.0] * nb)
            b_serde.extend([head] * nb)
            b_overhead.extend([0.0] * nb)
            b_sparse.extend([0.0] * nb)
            ends = [0.0] * nb
            for b in range(nb):
                t = t2
                for n in range(num_nets):
                    net = nets[n]
                    rkey = (b << 26) | (n << 20)
                    overhead = net.singular_overhead
                    t0 = t
                    t = t0 + overhead
                    add((t, rkey, _K_SERVICE, MAIN_SHARD, overhead, 0.0))
                    b_overhead[b] += (
                        t - t0 if no_skew else (t + skm) - (t0 + skm)
                    )
                    dense = net.dense[i][b]
                    pre = dense * pre_fraction
                    t0 = t
                    t = t0 + pre
                    add((t, rkey | 1, _K_OPS, MAIN_SHARD, pre, 0.0))
                    b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
                    work = net.local[i][b]
                    t0 = t
                    t = t0 + work
                    add((t, rkey | 2, _K_OPS_LOCAL, MAIN_SHARD, work, 0.0))
                    # The embedded window wraps the local SLS op: both
                    # buckets receive the same duration float.
                    d = t - t0 if no_skew else (t + skm) - (t0 + skm)
                    b_sparse[b] += d
                    b_embedded[b] += d
                    post = dense - pre
                    t0 = t
                    t = t0 + post
                    add((t, rkey | 5, _K_OPS, MAIN_SHARD, post, 0.0))
                    b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
                ends[b] = t
            # Bounding batch: batch records fold in (end, batch) order
            # with a strict > keeping the first-recorded maximum.
            best_batch = -1
            best_batch_dur = -1.0
            for e, b in sorted(zip(ends, range(nb))):
                d = e - t2 if no_skew else (e + skm) - (t2 + skm)
                if d > best_batch_dur:
                    best_batch_dur = d
                    best_batch = b
            last_end = ends[0]
            for b in range(1, nb):
                if ends[b] > last_end:
                    last_end = ends[b]
            ser = plans.tail_ser[i]
            t1 = last_end + ser
            tail = t1 - last_end if no_skew else (t1 + skm) - (last_end + skm)
            t_end = t1 + response_fixed
            if t_end >= horizon:
                return t_end
            e2e = t_end - t0_req if no_skew else (t_end + skm) - (t0_req + skm)
            recs.sort()
            rid = plans.rids[i]
            fold(
                rid, net_names, recs, nb, 3 + nb + 5 * nb * num_nets,
                deser, head, ser, tail, e2e, 0, None, -1.0,
                best_batch, best_batch_dur,
                b_dense, b_embedded, b_serde, b_overhead, b_sparse,
            )
            completed[rid] = t_end - t0_req
            now = t_end
        return now

    # -- distributed plans: analytic chains + per-request event heap -----
    def _replay_distributed(
        self, plans: ChunkPlans, t_start: float, rows, horizon: float
    ) -> float:
        collector = self.collector
        fold = collector.fold_request
        completed = self.completed
        net_names = plans.net_names
        fabric = self.fabric
        main = self.main
        servers = self.shards
        skm = self.skew_main
        shard_skews = self.shard_skews
        no_skew = self.no_skew
        pre_fraction = self.pre_fraction
        request_fixed = self.request_fixed
        response_fixed = self.response_fixed
        service_fixed = self.service_fixed
        main_nic = self.main_nic
        sparse_nic = self.sparse_nic
        io_threads = self.io_threads
        nets = plans.nets
        num_nets = len(nets)
        # Packed event codes assume these widths; no paper configuration
        # is anywhere near them.
        if num_nets > 64 or any(len(net.targets) > 16384 for net in nets):
            raise ValueError("plan exceeds packed event-code field widths")
        # Rows no longer carry the shard index -- look it up by slot.
        shard_of = [[target.shard for target in net.targets] for net in nets]
        heappush = heapq.heappush
        heappop = heapq.heappop
        recs = self._recs
        efree = self._entry_free
        b_dense = self._b_dense
        b_embedded = self._b_embedded
        b_serde = self._b_serde
        b_overhead = self._b_overhead
        b_sparse = self._b_sparse
        now = t_start

        for i in rows:
            t0_req = now
            deser = plans.head_deser[i]
            t1 = t0_req + deser
            t2 = t1 + request_fixed
            head = t1 - t0_req if no_skew else (t1 + skm) - (t0_req + skm)
            nb = plans.nb[i]
            del recs[:]
            add = recs.append
            del b_dense[:]
            del b_embedded[:]
            del b_serde[:]
            del b_overhead[:]
            del b_sparse[:]
            b_dense.extend([0.0] * nb)
            b_embedded.extend([0.0] * nb)
            b_serde.extend([head] * nb)
            b_overhead.extend([0.0] * nb)
            b_sparse.extend([0.0] * nb)
            # Zero-byte fabric delays, read from the simulation's own
            # jitter cursor (bitwise the per-call values, consumed in the
            # same heap order the DES dispatches); later windows are read
            # ahead, and the cursor moves only when the request commits.
            delays, dpos = fabric.jitter_cursor()
            num_delays = len(delays)
            window = 0
            # Per-request row prefetch: list this request's (9, batches)
            # plane per (net, slot), so the hot heap branches do one
            # list index per field instead of attribute + [i][b] chains
            # or numpy scalar indexing.
            rows_i = [
                [tg.rows[i].tolist() for tg in nets[n].targets]
                for n in range(num_nets)
            ]
            ov_i = [net.overhead[i] for net in nets]
            dn_i = [net.dense[i] for net in nets]
            heap: list[tuple[float, int, float, list[float] | None]] = []
            io_free = [0.0] * io_threads
            main_free = main.egress_free
            shard_free = [server.egress_free for server in servers]
            joins: dict[int, list[float]] = {}
            ends: list[float] = [0.0] * nb
            pend: list[float] = [0.0] * nb
            rpcs = 0
            best_rpc: list[float] | None = None
            best_rpc_dur = -1.0
            groups = 0

            def advance(
                b: int, t: float, n0: int, rows: list = rows_i,
                ov_i: list = ov_i, dn_i: list = dn_i,
            ) -> None:
                # One batch chain's lockstep walk, from net ``n0`` until
                # it either spawns an RPC group (state parks in ``pend``
                # / ``joins``; the join completion at _EV_ARRIVE resumes
                # it) or runs out of nets (``ends[b]`` is final).
                for n in range(n0, num_nets):
                    rkey = (b << 26) | (n << 20)
                    overhead = ov_i[n][b]
                    t0 = t
                    t = t0 + overhead
                    add((t, rkey, _K_SERVICE, MAIN_SHARD, overhead, 0.0))
                    b_overhead[b] += (
                        t - t0 if no_skew else (t + skm) - (t0 + skm)
                    )
                    dense = dn_i[n][b]
                    pre = dense * pre_fraction
                    t0 = t
                    t = t0 + pre
                    add((t, rkey | 1, _K_OPS, MAIN_SHARD, pre, 0.0))
                    b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
                    t_embedded = t
                    spawned = 0
                    code_base = (b << 20) | (n << 14)
                    for k, row in enumerate(rows[n]):
                        if not row[0][b]:
                            continue
                        cst = row[1][b]
                        t0 = t
                        t = t0 + cst
                        add(
                            (t, rkey | (((k + 1) << 3) + 2), _K_SERDE,
                             MAIN_SHARD, cst, 0.0)
                        )
                        b_serde[b] += (
                            t - t0 if no_skew else (t + skm) - (t0 + skm)
                        )
                        heappush(heap, (t, code_base | k, 0.0, None))
                        spawned += 1
                    if spawned:
                        joins[(b << 6) | n] = [float(spawned), -1.0]
                        pend[b] = t_embedded
                        return
                    post = dense - pre
                    t0 = t
                    t = t0 + post
                    add((t, rkey | 5, _K_OPS, MAIN_SHARD, post, 0.0))
                    b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
                ends[b] = t

            for b in range(nb):
                advance(b, t2, 0)

            while heap:
                t, code, tcl, entry = heappop(heap)
                if code < _EV_SEND_BIT:  # issue
                    k = code & 16383
                    n = (code >> 14) & 63
                    b = code >> 20
                    row = rows_i[n][k]
                    # Main egress reservation (Lindley over heap order ==
                    # engine order), then the outbound fabric hop.
                    wire = row[7][b] / main_nic
                    begin = t if t >= main_free else main_free
                    main_free = begin + wire
                    if dpos == num_delays:
                        window += 1
                        delays = fabric.zero_byte_delays(window)
                        num_delays = len(delays)
                        dpos = 0
                    out_delay = ((begin - t) + wire) + delays[dpos]
                    dpos += 1
                    arrive = t + out_delay
                    shard = shard_of[n][k]
                    sdes = row[2][b]
                    x = arrive + sdes
                    x1 = x + service_fixed
                    sov = row[3][b]
                    x2 = x1 + sov
                    slw = row[4][b]
                    x3 = x2 + slw
                    srs = row[5][b]
                    s_done = x3 + srs
                    if no_skew:
                        d_sdes = x - arrive
                        d_sov = x2 - x1
                        d_slw = x3 - x2
                        d_srs = s_done - x3
                        d_svc = s_done - arrive
                    else:
                        sk = shard_skews[shard]
                        d_sdes = (x + sk) - (arrive + sk)
                        d_sov = (x2 + sk) - (x1 + sk)
                        d_slw = (x3 + sk) - (x2 + sk)
                        d_srs = (s_done + sk) - (x3 + sk)
                        d_svc = (s_done + sk) - (arrive + sk)
                    # The RPC's attribution entry, complete at issue
                    # time: each slot is fed only by this RPC's own
                    # spans, in chain order (serde = deser + resp ser).
                    if efree:
                        entry = efree.pop()
                    else:
                        entry = [0.0, 0.0, 0.0, 0.0]
                    entry[0] = d_slw
                    entry[1] = d_sdes + d_srs
                    entry[2] = d_sov
                    entry[3] = d_svc
                    rk = ((b << 26) | (n << 20)) + ((k + 1) << 3)
                    add((x, rk, _K_SERDE, shard, sdes, 0.0))
                    add((x2, rk + 1, _K_SERVICE, shard, sov, 0.0))
                    add((x3, rk + 2, _K_OPS_SLW, shard, slw, d_slw))
                    add((s_done, rk + 3, _K_SRS_SVC, shard, srs, 0.0))
                    heappush(heap, (s_done, code + _EV_SEND_BIT, t, entry))
                elif code < _EV_ARRIVE_BIT:  # send
                    k = code & 16383
                    n = (code >> 14) & 63
                    b = (code >> 20) & 2097151
                    shard = shard_of[n][k]
                    wire = rows_i[n][k][8][b] / sparse_nic
                    free = shard_free[shard]
                    begin = t if t >= free else free
                    shard_free[shard] = begin + wire
                    if dpos == num_delays:
                        window += 1
                        delays = fabric.zero_byte_delays(window)
                        num_delays = len(delays)
                        dpos = 0
                    back_delay = ((begin - t) + wire) + delays[dpos]
                    dpos += 1
                    arrive = t + back_delay
                    heappush(heap, (arrive, code + _EV_SEND_BIT, tcl, entry))
                else:  # arrive: FIFO IO-thread pool, then the join
                    k = code & 16383
                    n = (code >> 14) & 63
                    b = (code >> 20) & 2097151
                    # FIFO IO-thread pool: the earliest-free thread
                    # serves next.  min + index over the tiny pool list
                    # beat the two heap sifts; at a tie any thread
                    # yields the same begin float.
                    free = min(io_free)
                    begin = t if t >= free else free
                    crd = rows_i[n][k][6][b]
                    done = begin + crd
                    io_free[io_free.index(free)] = done
                    add(
                        (done, ((b << 26) | (n << 20)) + ((k + 1) << 3) + 6,
                         _K_SERDE, MAIN_SHARD, crd, 0.0)
                    )
                    # rpc_outstanding: arrival order == heap pop order,
                    # strict > keeps the first-recorded maximum.
                    d = t - tcl if no_skew else (t + skm) - (tcl + skm)
                    rpcs += 1
                    if d > best_rpc_dur:
                        if best_rpc is not None:
                            efree.append(best_rpc)
                        best_rpc_dur = d
                        best_rpc = entry
                    else:
                        assert entry is not None
                        efree.append(entry)
                    join = joins[(b << 6) | n]
                    join[0] -= 1.0
                    if done > join[1]:
                        join[1] = done
                    if join[0] == 0.0:
                        del joins[(b << 6) | n]
                        groups += 1
                        # Resume the parked chain: the embedded window
                        # closes at the join maximum, the dense post
                        # half runs (its operands recompute to the same
                        # floats the pre half derived them from), and
                        # the walk continues from the next net.
                        t = join[1]
                        t_embedded = pend[b]
                        b_embedded[b] += (
                            t - t_embedded
                            if no_skew
                            else (t + skm) - (t_embedded + skm)
                        )
                        dense = dn_i[n][b]
                        pre = dense * pre_fraction
                        post = dense - pre
                        t0 = t
                        t = t0 + post
                        add(
                            (t, (b << 26) | (n << 20) | 5, _K_OPS,
                             MAIN_SHARD, post, 0.0)
                        )
                        b_dense[b] += (
                            t - t0 if no_skew else (t + skm) - (t0 + skm)
                        )
                        n += 1
                        if n < num_nets:
                            advance(b, t, n)
                        else:
                            ends[b] = t

            best_batch = -1
            best_batch_dur = -1.0
            for e, b in sorted(zip(ends, range(nb))):
                d = e - t2 if no_skew else (e + skm) - (t2 + skm)
                if d > best_batch_dur:
                    best_batch_dur = d
                    best_batch = b
            last_end = ends[0]
            for b in range(1, nb):
                if ends[b] > last_end:
                    last_end = ends[b]
            ser = plans.tail_ser[i]
            t1 = last_end + ser
            tail = t1 - last_end if no_skew else (t1 + skm) - (last_end + skm)
            t_end = t1 + response_fixed
            if t_end >= horizon:
                # Not committed: the cursor, the reservations and the
                # collector are untouched (the read-ahead windows stay
                # drawn; the DES consumes them when it replays this
                # request).
                return t_end
            e2e = t_end - t0_req if no_skew else (t_end + skm) - (t0_req + skm)
            recs.sort()
            rid = plans.rids[i]
            fold(
                rid, net_names, recs, nb,
                3 + nb + 3 * nb * num_nets + groups + 8 * rpcs,
                deser, head, ser, tail, e2e, rpcs, best_rpc, best_rpc_dur,
                best_batch, best_batch_dur,
                b_dense, b_embedded, b_serde, b_overhead, b_sparse,
            )
            # The winning entry was consumed by finalize inside fold;
            # reclaim it for the next request.
            if best_rpc is not None:
                efree.append(best_rpc)
            fabric.seek(window, dpos)
            main.egress_free = main_free
            for server, free in zip(servers, shard_free):
                server.egress_free = free
            completed[rid] = t_end - t0_req
            now = t_end
        return now
