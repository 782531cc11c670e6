"""Columnar replay: the ``vectorized`` kernel's evaluator and collector.

The serial closed-loop, chaos-free regime -- the one the paper's figures
are produced in -- admits a much stronger optimization than a faster
event loop: every per-request cost is a pure function of
(request, plan, cost model) that the serving layer precomputes per
chunk (:func:`repro.serving.columnar.build_chunk_plans`, which also
feeds the DES its plans), and requests are strictly sequential (request ``i+1`` starts at the exact
completion float of request ``i``).  So instead of scheduling ~180 DES
events per request, this module replays requests from array programs
built a *chunk* of requests at a time:

1. :mod:`repro.serving.columnar` builds the per-request plans as
   per-chunk numpy columns (one vectorized pass per (batch group, net)
   over every routing slot and all requests of the group), bit-for-bit
   equal to building each request's plans one table and one batch at a
   time (the scalar oracle in ``tests/plan_oracle.py``) because every
   elementwise expression keeps the exact left-associated float order of
   that computation;
2. :class:`SweepEvaluator` walks each request's batch chains
   analytically -- cumulative scalar adds in the exact order the chained
   DES yields would have performed them, *not* ``np.sum`` -- and
   resolves the only genuinely dynamic parts (main-NIC egress
   serialization, the per-shard response NICs, the 4-way IO-thread pool,
   the main and per-shard worker pools, and RPC join maxima) with a tiny
   per-request event heap, each RPC's events carrying one payload list
   of its own costs and state, an event with one successor handing it
   its heap slot.  One body replays both plan shapes, as the
   DES does: a singular net is a net with no routing slot, whose SLS
   ops run locally on the main shard between the dense halves, and
   every plan reads its net overhead per batch.  Every
   accumulation whose operand order is fixed by construction -- the
   per-batch bucket lists (one ordered chain per batch), the per-RPC
   attribution entries (one RPC per entry), the best-RPC selection
   (response-arrival order == heap pop order) and the bounding-batch
   selection (batch-record order == ``(end, batch)`` order) -- is
   computed inline, in the engine's own operand order;
3. every CPU charge -- the sums that *interleave across chains* --
   becomes the aggregate's compact record, the one the DES appends per
   charge; the evaluator sorts its records into the DES's ``(time,
   batch, net, slot-position)`` recording order and hands them to
   :class:`VectorizedColumns`, the run's one collector, whose
   ``finalize_request`` folds them exactly as it folds a DES request's.

Vectorized equivalence
======================

Why this reproduces the chained-yield float order bit for bit:

* **Timing.**  For a request the evaluator commits (it arrives at an
  idle cluster, no chaos -- see "Idle arrivals" below) each batch
  chain's timestamps are the running sums ``t += cost`` of its
  precomputed costs from the moment its worker is granted -- exactly the
  floats the DES produces, because the DES computes them with the
  *same* sequential additions.  The dynamic parts (NIC egress queues,
  the IO-thread pool, the worker pools) are Lindley / Kiefer-Wolfowitz
  recursions over heap-ordered acquires, which is precisely what
  ``SimServer.egress_delay`` and the FIFO resource implement: a chain
  holds its worker for a span known when the worker is granted (a main
  chain until it parks on an RPC group or ends, an RPC until its
  response is serialized), so each FIFO grant is ``max(t, min(free))``
  over the pool's release times, with no waiter queue at all.
* **Draw order.**  The only stochastic input, fabric jitter, is
  consumed through the *simulation's own* :class:`Fabric` cursor
  (:meth:`~repro.simulation.network.Fabric.zero_byte_delays` /
  :meth:`~repro.simulation.network.Fabric.seek`, the windows
  ``one_way_delay`` reads too) in heap order -- the same ``(time,
  kickoff-sequence)`` order the DES dispatches, with equal-time events
  of lockstep chains ordered by their *lane*: the batch index for
  chains started at one instant, FIFO order for chains handed workers
  at one instant after a wait -- exactly as the engine's scheduling
  counter orders them.
* **Accumulation order.**  Per-accumulator operand order is what must
  match, not the global interleave: an accumulator only sees its own
  records' terms, so any accumulator fed by exactly one ordered chain
  (a batch's bucket sums, an RPC's entry) can be summed inline, while
  the cross-chain accumulators are folded from records sorted in
  the DES's recording order (DES record times with structural
  tie-breaks that reproduce the engine's sequence-counter order).
  Durations use the DES's wall-stamp expression
  ``(end+skew)-(start+skew)`` whenever any clock skew is configured
  (with zero skew ``end-start`` is bitwise identical: ``+0.0`` is an
  exact no-op on the non-negative timestamps involved).

Idle arrivals
-------------

Every replay runs on the DES driver, and both drivers --
``ClusterSimulation.run_serial`` and ``ClusterSimulation.run_stream`` --
offer the evaluator every request that arrives at an idle cluster
(:func:`repro.serving.columnar.idle_arrival_cluster`), one request at a
time, starting at the driver's own ``engine.now``; the DES replays the
rest.  In a serial closed loop every request arrives at an idle cluster
and the next arrival is the request's own completion, so the horizon is
``+inf`` and only a pool tie (below) goes to the DES; on a commit the
driver moves ``engine.now`` to the completion float, where the DES
driver would resume.  In an open-loop run (or a co-located mix) the DES
replays the busy periods.  A request is committed under three
conditions:

* **The engine holds no event and no request is in flight.**  Every
  earlier request has completed, so every worker and IO thread is free,
  and every egress reservation lies at or before ``now`` (each precedes
  its own request's completion).  The evaluator starts its Lindley
  recursions from the servers' reservations, so its NIC floats are the
  DES's.
* **Every worker-pool order is provable.**  Batches queue FIFO for the
  main pool (the kickoffs acquire at one instant in batch order, and a
  chain re-acquires a worker when its RPC group joins) and RPCs for
  their shard's pool (acquired on arrival), each pool replayed as a
  free list of release times in heap order.  Only a pool no larger
  than ``nb`` can queue (each batch holds at most one main worker, and
  has at most one RPC in service on a host), so a deeper one is
  replayed as ``nb`` workers.  Two acquires on one pool at one exact
  time -- other than the kickoffs -- are ordered by the engine's
  sequence counter, which the evaluator does not replay; if either
  waits, the order decides who does, so the evaluator *declines* the
  request to the DES (a wait-free tie grants both at that time, in
  either order).  Two grants at one exact time after waits resume in
  FIFO order, and a wait-free re-acquire resumes in its group's join
  order; the lanes follow both.  No chaos and no
  live resilience policy run, so nothing else schedules events
  (``vectorized_ineligibility``).
* **It completes strictly before the next arrival's clock** (the float
  the engine will compute, ``now + (next - previous)``; ``+inf`` in a
  serial closed loop).  Then every event of the request precedes the
  driver's next resumption, in the DES as here: the request's rows,
  ``completed`` entry, jitter draws and egress reservations are the
  ones the DES would record, in the same completion order.  A *tie* is different: at equal times the engine
  resumes the driver first (its resumption was scheduled at the
  previous arrival, before the request's final events), so the next
  request arrives while this one still holds its tail -- and may queue
  on a worker.  Ties, and later completions, therefore go to the DES.

A declined evaluation -- a pool tie, or a completion at or after the
horizon -- leaves no trace: the event heap and the RPC payloads its
events carry are the evaluation's own and die with it; the evaluator
reads the jitter cursor ahead without moving it, writes reservations,
rows and ``completed`` only on commit, and the DES, replaying the same
request, consumes every window the evaluator read ahead -- so
``_jitter_pos`` and the fabric RNG state end where a pure-DES run leaves
them.  The DES takes a request's plans from the same chunk rows the
evaluator reads, so the replay builds each plan once.

The regression pins for all of this are
``tests/test_kernel_equivalence.py`` (vectorized == batched on every
paper configuration, all ``RunResult`` columns, serial and parallel)
and ``tests/test_idle_arrival_replay.py`` (serial, open-loop and mix
replays == the batched DES across the busy-period range and on 2- and
1-worker hosts, horizon and pool ties, cluster state);
``tests/test_queueing_oracles.py`` checks queued batches against a
closed form, and ``tests/test_chunk_plan_builder.py`` pins the chunk
columns, the row located for the DES included, to the scalar oracle
(``tests/plan_oracle.py``) field by field.
"""

from __future__ import annotations

import heapq
import math
from typing import Any

import numpy as np

from repro.simulation.costmodel import CostModel
from repro.simulation.network import Fabric
from repro.tracing.aggregate import (
    _K_OPS,
    _K_OPS_LOCAL,
    _K_OPS_SLW,
    _K_SERDE,
    _K_SERVICE,
    _K_SRS_SVC,
    AggregatingTracer,
    Record,
    _RequestState,
)
from repro.tracing.span import MAIN_SHARD

# The evaluator's records are the aggregate's CPU charges
# (:data:`~repro.tracing.aggregate.Record`), emitted out of order and
# sorted by (time, key) into the DES's recording order: the time the DES
# records the charge, then structural tie-breaks standing in for the
# engine's scheduling-sequence order at shared timestamps.  ``key`` packs
# ``batch << 26 | net << 20 | slot-position``; lockstep chains of equal
# batches record equal charges at one timestamp, so batch order folds
# them to the floats their lane order does, and same-chain records at one
# timestamp keep their call positions.  With each field in its fixed
# width, comparing keys equals comparing (batch, net, slot-position)
# tuples.  slot-position packs the DES's (slot, position) pair as
# ``(slot+1)*8 + position`` (main-side records use slot -1, shard-side
# records slot >= 0, and positions stay below 8, so the packed int orders
# exactly like the pair).  The request deserialization takes key -1 (it
# precedes every batch), and the response serialization and handler
# charges are appended after the sort, in the DES's order.  Kind is a
# tie-break only at jitter-laden (measure-zero) time collisions; the
# numbering puts the shard sparse op before the client request
# serialization (the one same-sort-rank pair: both use slot-position
# ``(k+1)*8+2``), matching the DES's tie order.  An RPC's response
# serialization and fixed service charge always record at one timestamp
# on one shard, so the evaluator fuses them into one ``_K_SRS_SVC``
# record.

# Per-request heap events: (time, code, rpc).  ``rpc`` is the RPC's own
# payload list, ``[ops, serde, overhead, service, costs, shard,
# record_key, join, t_client]``: its attribution entry (the four
# AggregatingTracer RPC-entry slots, written when it is served, so the
# best RPC's payload is the entry finalize reads), its batch's nine cost
# floats (one row of :meth:`TargetColumns.costs`), its shard index, its
# record key (slot-position 0 of the RPC's slot), its group's join list
# ``[outstanding, max done]`` and the client serialization end -- so the
# handlers of one RPC read its state from the list, not from the
# request's rows.  A resume event carries ``None``.  ``code`` packs the
# dispatch rank and the event's identity as
# ``rank << 57 | lane << 35 | batch << 20 | net << 14 | slot``.  With
# every field in its fixed width, integer comparison of two codes equals
# lexicographic comparison of the (rank, lane, batch, net, slot) tuples
# -- so at equal times, RPC kickoffs dispatch before any jitter-laden
# completion could coincide (measure zero), and equal-time events of
# one rank dispatch in lane order.  A chain segment's *lane* is its
# place in the engine's sequence order among segments that start at
# one instant: the batch index for the kickoffs (processes spawned at
# one instant run in spawn order, and a kickoff that waits is handed a
# worker in that order too); a re-acquire handed a worker after a wait
# resumes in FIFO order, behind every kickoff, and takes a lane above
# every batch index (at most ``batches * (nets + 1)``, which fits the
# lane field whenever the batch fits its own); a re-acquire granted at
# its request time keeps the lane its chain's RPCs carried, since its
# group's join completes in their order.  The payload is never compared:
# (time, code) is unique per event, so the code is only the tie-break,
# and only the resume handler decodes its batch and net.  Ranks:
# 0 = issue (client serde done -> egress + outbound network), 1 = send
# (shard response serialized -> egress + return network), 2 = arrive
# (response at main -> IO-thread deserialization + join), 3 = serve (the
# RPC reaches its shard, acquires a shard worker and runs its shard
# chain) and 4 = resume (a joined chain re-acquires a main worker; slot
# bits 0); advancing a rank is ``code + _EV_RANK``.  Every code stays
# below 2**60, a two-digit int.
_EV_LANE = 35
_EV_RANK = 1 << 57


def _tie_declines(last: list, t: float, grant: float, key: int) -> bool:
    """Whether an acquire at ``t``, granted at ``grant`` on a pool that
    can queue, has a DES order the evaluator cannot prove.

    ``last`` is the pool's previous acquire in FIFO order -- ``[time,
    grant, key, waited]`` -- and is advanced to this one unless the
    request is declined.  Two acquires at one exact time are ordered by
    the engine's sequence counter, which decides who waits; so a tie
    declines once either waits.  Two grants at one exact time after
    waits resume in FIFO order, and the heap breaks equal-time ties by
    ``key``, so such a tie must ascend in ``key``; a grant at its
    request time that ties a handed-over one may resume before or after
    it, so it declines.
    """
    waited = grant > t
    if waited and t == last[0]:
        return True
    if grant == last[1] and (
        waited != last[3] or (waited and key < last[2])
    ):
        return True
    last[0] = t
    last[1] = grant
    last[2] = key
    last[3] = waited
    return False


class TargetColumns:
    """Columnar per-(net, shard-slot) RPC costs for one request chunk.

    ``rows[i]`` is request ``i``'s ``(9, batches)`` float64 numpy plane
    -- ``(active, cst, sdes, sov, slw, srs, crd, req_wire, resp_wire)``
    by batch, where ``active[b]`` is 1.0 for the batches that issue an
    RPC to this slot (the slot's shard index lives on :attr:`shard`, not
    in the row).  Every other plane is seconds: the six serde, overhead
    and SLS costs, then the request's wire time on the main egress NIC
    and the response's on the shard's.  The builder keeps the planes as
    views into one stacked array per chunk; both replay paths list a
    request's plane through :meth:`costs` when they start it, so boxed
    floats exist only for the requests in flight.
    """

    __slots__ = ("shard", "rows")

    def __init__(self, shard: int) -> None:
        self.shard = shard
        self.rows: list[np.ndarray] = []

    def costs(self, i: int) -> list[list[float]]:
        """Request ``i``'s plane listed batch-major: ``costs(i)[b]`` is
        batch ``b``'s nine floats (``tolist`` -- identical float64
        bits), the one list an RPC of that batch reads its costs from."""
        return self.rows[i].T.tolist()


class NetColumns:
    """Columnar per-net execution plan for one request chunk.

    ``overhead``/``pre``/``post`` (the dense halves before and after the
    sparse join) are ``[request][batch]`` for every plan;
    singular plans also set ``local`` (the fused SLS work, also
    ``[request][batch]``) and have no routing slot, distributed plans
    set ``targets`` (one :class:`TargetColumns` per routing slot, in the
    tenant's routing order).
    """

    __slots__ = ("overhead", "pre", "post", "local", "targets")

    def __init__(self) -> None:
        self.overhead: list[list[float]] = []
        self.pre: list[list[float]] = []
        self.post: list[list[float]] = []
        self.local: list[list[float]] = []
        self.targets: list[TargetColumns] = []


class ChunkPlans:
    """One chunk's transposed execution plans (see :class:`NetColumns`).

    ``singular`` plans run every net's SLS ops locally on the main
    shard; the evaluator replays both plan shapes with one body.
    ``nb[i]`` is request ``i``'s batch count (every request of the
    chunk has a row, whatever its batches' queueing for the worker
    pools).  ``net_names`` names the tenant's nets by index -- the net
    bits of a record key.
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
        # Packed event codes assume these widths; no paper configuration
        # is anywhere near them.
        if (
            len(nets) > 64
            or any(len(net.targets) > 16384 for net in nets)
            or max(nb, default=0) > 32768
        ):
            raise ValueError("plan exceeds packed event-code field widths")


class VectorizedColumns(AggregatingTracer):
    """The run's collector, fed by both replay paths.

    The DES records into it through ``record_interval``, the evaluator
    through :meth:`fold_request`; both land in the inherited
    :meth:`~repro.tracing.aggregate.AggregatingTracer.finalize_request`,
    which folds the request's CPU charges and writes one row per request
    in completion order.  Records name their nets per request, so one
    collector serves every tenant of a co-located mix.
    """

    def fold_request(
        self,
        request_id: int,
        net_names: list[str],
        records: list[Record],
        num_batches: int,
        spans: int,
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
        """Attribute one request the evaluator replayed.

        The scalar arguments are the single-writer values the evaluator
        computed inline (the tail serde and e2e windows, the best-RPC and
        bounding-batch selections, the per-batch bucket lists, head serde
        included); ``records`` are its CPU charges in the DES's recording
        order, and ``net_names`` decodes their net bits.  The request's
        state takes over ``records`` and the bucket lists, so the caller
        passes fresh lists.
        """
        pool = self._pool
        if pool:
            state = pool.pop()
            state.reset()
        else:
            state = _RequestState()
        self.spans_recorded += spans
        state.records = records
        state.net_names.extend(net_names)
        state.tail_serde = tail
        state.e2e = e2e
        state.service_count = 1
        state.num_batches = num_batches
        state.best_batch = best_batch
        state.best_batch_dur = best_batch_dur
        state.rpcs = rpcs
        state.best_rpc = best_rpc
        state.best_rpc_dur = best_rpc_dur
        state.batch_dense = batch_dense
        state.batch_embedded = batch_embedded
        state.batch_serde = batch_serde
        state.batch_overhead = batch_overhead
        state.batch_sparse = batch_sparse
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
    IO-thread and worker pools start idle: in the regime the evaluator
    runs in, every earlier request has completed, so every thread and
    worker is free and every reservation (each precedes its own
    request's completion) lies at or before the request's start --
    exactly where the DES starts.
    """

    __slots__ = (
        "fabric", "main", "shards", "completed", "collector",
        "skew_main", "shard_skews", "no_skew",
        "request_fixed", "response_fixed", "service_fixed", "handler_cpu",
        "io_threads", "main_cap", "shard_caps",
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
        # ``main``/``shards`` are the cluster's SimServers (worker pool,
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
        self.request_fixed = cost_model.request_handler_fixed
        self.response_fixed = cost_model.response_handler_fixed
        self.service_fixed = cost_model.rpc_service_fixed
        self.io_threads = cost_model.io_threads
        self.main_cap = main.workers.capacity
        self.shard_caps = [server.workers.capacity for server in shards]
        # The request_e2e charge: request_handler_fixed then +=
        # response_handler_fixed, one add.
        self.handler_cpu = (
            cost_model.request_handler_fixed + cost_model.response_handler_fixed
        )

    def replay_chunk(
        self, plans: ChunkPlans, t_start: float, i: int, horizon: float
    ) -> float:
        """Replay request ``i`` of one chunk, starting at ``t_start``;
        returns its completion time, or ``+inf`` when a tie on a worker
        pool leaves its order unproven (see "Idle arrivals" in the module
        docstring).

        The request *commits* -- folds its row, moves the jitter cursor
        and the egress reservations, enters ``completed`` -- only if it
        completes strictly before ``horizon``; otherwise the cluster is
        left untouched and the caller hands the request to the DES.
        """
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
        request_fixed = self.request_fixed
        response_fixed = self.response_fixed
        service_fixed = self.service_fixed
        io_threads = self.io_threads
        nets = plans.nets
        num_nets = len(nets)
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        t0_req = t_start
        deser = plans.head_deser[i]
        t1 = t0_req + deser
        t2 = t1 + request_fixed
        head = t1 - t0_req if no_skew else (t1 + skm) - (t0_req + skm)
        nb = plans.nb[i]
        # Fresh per request: a committed request's state takes them over.
        recs: list[Record] = [(t1, -1, _K_SERDE, MAIN_SHARD, deser, 0.0)]
        add = recs.append
        b_dense = [0.0] * nb
        b_embedded = [0.0] * nb
        b_serde = [head] * nb
        b_overhead = [0.0] * nb
        b_sparse = [0.0] * nb
        # Zero-byte fabric delays, read from the simulation's own
        # jitter cursor (bitwise the per-call values, consumed in the
        # same heap order the DES dispatches); later windows are read
        # ahead, and the cursor moves only when the request commits.
        delays, dpos = fabric.jitter_cursor()
        num_delays = len(delays)
        window = 0
        # Per-request row prefetch: list this request's plane per (net,
        # slot) batch-major, beside the slot's shard, so an RPC's payload
        # takes its batch's nine cost floats as one list and the heap
        # branches index no rows at all.
        rows_i = [
            [(tg.shard, tg.costs(i)) for tg in net.targets] for net in nets
        ]
        ov_i = [net.overhead[i] for net in nets]
        pr_i = [net.pre[i] for net in nets]
        po_i = [net.post[i] for net in nets]
        lc_i = [net.local[i] for net in nets] if plans.singular else None
        heap: list[tuple[float, int, Any]] = []
        io_free = [0.0] * io_threads
        main_free = main.egress_free
        shard_free = [server.egress_free for server in servers]
        ends: list[float] = [0.0] * nb
        end_lanes: list[int] = [0] * nb
        pend: list[float] = [0.0] * nb
        rpcs = 0
        best_rpc: list[float] | None = None
        best_rpc_dur = -1.0
        groups = 0
        # Worker pools.  A batch chain holds one main worker from its
        # grant until it parks on an RPC group or ends, and an RPC holds
        # one shard worker from its grant until its response is
        # serialized; every hold is known when its worker is granted.
        # So FIFO grants are the free-list (Kiefer-Wolfowitz)
        # recursion over acquires in heap order: begin at
        # ``max(t, min(free))``.  At most ``nb`` chains hold a pool's
        # workers at once (a batch has at most one RPC in service on a
        # host), so a list of ``min(capacity, nb)`` release times is the
        # whole pool.  ``m_last``/``s_last`` hold a pool's previous
        # acquire (time, grant, lane or code, waited), and ``handed``
        # counts the main grants after a wait (their lanes are
        # ``nb + handed``).
        m_free = [t2] * min(self.main_cap, nb)
        s_free = [[t0_req] * min(cap, nb) for cap in self.shard_caps]
        s_last = [[-1.0, -1.0, -1, False] for _ in servers]
        handed = 0
        ev_send = _EV_RANK
        ev_arrive = 2 * _EV_RANK
        ev_serve = 3 * _EV_RANK
        ev_resume = 4 * _EV_RANK
        ev_identity = _EV_RANK - 1
        ev_group = ev_identity ^ 16383  # identity without the slot bits

        def advance(
            b: int, t: float, n0: int, lane: int, joined: bool,
            rows: list = rows_i, ov_i: list = ov_i, pr_i: list = pr_i,
            po_i: list = po_i, lc_i: list[list[float]] | None = lc_i,
        ) -> float:
            # One batch chain's lockstep walk from its worker's grant
            # ``t``, until it either spawns an RPC group (state parks in
            # ``pend`` and in the join list the group's payloads share;
            # the join resumes it) or runs out of nets (``ends[b]`` is
            # final).  Returns when the chain
            # releases its main worker: after the last client
            # serialization of the group, or at its end.  A ``joined``
            # chain resumes net ``n0``'s RPC group: the embedded window
            # closes at the grant and the dense post half runs before the
            # walk goes on to the next net.
            # A singular net spawns no RPC: its local SLS op runs
            # between the dense halves, where the group would have.
            if joined:
                t_embedded = pend[b]
                b_embedded[b] += (
                    t - t_embedded
                    if no_skew
                    else (t + skm) - (t_embedded + skm)
                )
                post = po_i[n0][b]
                t0 = t
                t = t0 + post
                add((
                    t, (b << 26) | (n0 << 20) | 5, _K_OPS, MAIN_SHARD, post,
                    0.0,
                ))
                b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
                n0 += 1
            for n in range(n0, num_nets):
                rkey = (b << 26) | (n << 20)
                overhead = ov_i[n][b]
                t0 = t
                t = t0 + overhead
                add((t, rkey, _K_SERVICE, MAIN_SHARD, overhead, 0.0))
                b_overhead[b] += (
                    t - t0 if no_skew else (t + skm) - (t0 + skm)
                )
                pre = pr_i[n][b]
                t0 = t
                t = t0 + pre
                add((t, rkey | 1, _K_OPS, MAIN_SHARD, pre, 0.0))
                b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
                t_embedded = t
                join = [0.0, -1.0]  # [outstanding RPCs, max done]
                code_base = (lane << _EV_LANE) | (b << 20) | (n << 14)
                for k, (shard, costs) in enumerate(rows[n]):
                    c = costs[b]
                    if not c[0]:
                        continue
                    join[0] += 1.0
                    cst = c[1]
                    t0 = t
                    t = t0 + cst
                    rk = rkey + ((k + 1) << 3)
                    add((t, rk + 2, _K_SERDE, MAIN_SHARD, cst, 0.0))
                    b_serde[b] += (
                        t - t0 if no_skew else (t + skm) - (t0 + skm)
                    )
                    heappush(heap, (
                        t, code_base | k,
                        [0.0, 0.0, 0.0, 0.0, c, shard, rk, join, t],
                    ))
                if join[0]:
                    pend[b] = t_embedded
                    return t
                if lc_i is not None:
                    work = lc_i[n][b]
                    t0 = t
                    t = t0 + work
                    add((t, rkey | 2, _K_OPS_LOCAL, MAIN_SHARD, work, 0.0))
                    # The embedded window wraps the local SLS op: both
                    # buckets receive the same duration float.
                    d = t - t0 if no_skew else (t + skm) - (t0 + skm)
                    b_sparse[b] += d
                    b_embedded[b] += d
                post = po_i[n][b]
                t0 = t
                t = t0 + post
                add((t, rkey | 5, _K_OPS, MAIN_SHARD, post, 0.0))
                b_dense[b] += t - t0 if no_skew else (t + skm) - (t0 + skm)
            ends[b] = t
            end_lanes[b] = lane
            return t

        # The kickoffs acquire at t2 in batch order (the engine's
        # sequence order for processes spawned at one instant).
        m_last = [t2, t2, -1, False]
        for b in range(nb):
            f = min(m_free)
            g = t2 if t2 >= f else f
            m_free[m_free.index(f)] = advance(b, g, 0, b, False)
            m_last[1:] = g, b, g > t2

        # Every event but a resume schedules at most one successor, so
        # the loop peeks at the heap's head and hands its slot to that
        # successor with one ``heapreplace``; only an arrive that leaves
        # its group outstanding, and a resume (whose chain may push
        # several RPCs), pop.  (time, code) is unique, so the dispatch
        # order is the pop-then-push order.
        while heap:
            t, code, rpc = heap[0]
            if code < ev_send:  # issue
                # Main egress reservation (Lindley over heap order ==
                # engine order), then the outbound fabric hop.
                wire = rpc[4][7]
                begin = t if t >= main_free else main_free
                main_free = begin + wire
                if dpos == num_delays:
                    window += 1
                    delays = fabric.zero_byte_delays(window)
                    num_delays = len(delays)
                    dpos = 0
                out_delay = ((begin - t) + wire) + delays[dpos]
                dpos += 1
                # The shard worker is acquired at arrival, in heap
                # order with every other acquire on that shard.
                heapreplace(heap, (t + out_delay, code + ev_serve, rpc))
                continue
            elif code < ev_arrive:  # send
                shard = rpc[5]
                wire = rpc[4][8]
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
                heapreplace(heap, (t + back_delay, code + ev_send, rpc))
                continue
            elif code < ev_serve:  # arrive: IO-thread pool, then join
                # FIFO IO-thread pool: the earliest-free thread
                # serves next.  min + index over the tiny pool list
                # beat the two heap sifts; at a tie any thread
                # yields the same begin float.
                free = min(io_free)
                begin = t if t >= free else free
                crd = rpc[4][6]
                done = begin + crd
                io_free[io_free.index(free)] = done
                add((done, rpc[6] + 6, _K_SERDE, MAIN_SHARD, crd, 0.0))
                # rpc_outstanding: arrival order == heap pop order,
                # strict > keeps the first-recorded maximum.
                tcl = rpc[8]
                d = t - tcl if no_skew else (t + skm) - (tcl + skm)
                rpcs += 1
                if d > best_rpc_dur:
                    best_rpc_dur = d
                    best_rpc = rpc
                join = rpc[7]
                join[0] -= 1.0
                if done > join[1]:
                    join[1] = done
                if join[0]:
                    heappop(heap)
                    continue
                groups += 1
                # The re-acquire joins the main pool's FIFO in heap
                # order at the join maximum, in its chain's lane.
                heapreplace(
                    heap, (join[1], (code & ev_group) + ev_resume, None)
                )
                continue
            elif code >= ev_resume:  # resume: re-acquire a main worker
                n = (code >> 14) & 63
                b = (code >> 20) & 32767
                f = min(m_free)
                grant = t if t >= f else f
                if grant > t:
                    lane = nb + handed
                    handed += 1
                else:
                    lane = (code & ev_identity) >> _EV_LANE
                if _tie_declines(m_last, t, grant, lane):
                    return math.inf
                # Popped before the chain pushes its next RPC group.
                heappop(heap)
                m_free[m_free.index(f)] = advance(b, grant, n, lane, True)
                continue
            # serve: the RPC acquires a worker from its shard's FIFO pool
            # and runs its shard chain from the grant (the rpc_e2e
            # service window opens at arrival).
            shard = rpc[5]
            pool = s_free[shard]
            f = min(pool)
            grant = t if t >= f else f
            if _tie_declines(s_last[shard], t, grant, code):
                return math.inf
            c = rpc[4]
            sdes = c[2]
            x = grant + sdes
            x1 = x + service_fixed
            sov = c[3]
            x2 = x1 + sov
            slw = c[4]
            x3 = x2 + slw
            srs = c[5]
            s_done = x3 + srs
            if no_skew:
                d_sdes = x - grant
                d_sov = x2 - x1
                d_slw = x3 - x2
                d_srs = s_done - x3
                d_svc = s_done - t
            else:
                sk = shard_skews[shard]
                d_sdes = (x + sk) - (grant + sk)
                d_sov = (x2 + sk) - (x1 + sk)
                d_slw = (x3 + sk) - (x2 + sk)
                d_srs = (s_done + sk) - (x3 + sk)
                d_svc = (s_done + sk) - (t + sk)
            pool[pool.index(f)] = s_done
            # The RPC's attribution entry, complete at grant time:
            # each slot is fed only by this RPC's own spans, in chain
            # order (serde = deser + resp ser).
            rpc[0] = d_slw
            rpc[1] = d_sdes + d_srs
            rpc[2] = d_sov
            rpc[3] = d_svc
            rk = rpc[6]
            add((x, rk, _K_SERDE, shard, sdes, 0.0))
            add((x2, rk + 1, _K_SERVICE, shard, sov, 0.0))
            add((x3, rk + 2, _K_OPS_SLW, shard, slw, d_slw))
            add((s_done, rk + 3, _K_SRS_SVC, shard, srs, service_fixed))
            heapreplace(heap, (s_done, (code & ev_identity) | ev_send, rpc))

        best_batch = -1
        best_batch_dur = -1.0
        # Batch records fold in chain-end order: (end, lane) order.
        for e, _lane, b in sorted(zip(ends, end_lanes, range(nb))):
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
        # The response serialization and request_e2e charges, last in
        # the DES's order too (keyed past every batch).
        add((t1, nb << 26, _K_SERDE, MAIN_SHARD, ser, 0.0))
        add((t_end, (nb << 26) | 1, _K_SERVICE, MAIN_SHARD, self.handler_cpu, 0.0))
        rid = plans.rids[i]
        fold(
            rid, net_names, recs, nb,
            3 + nb + (3 if lc_i is None else 5) * nb * num_nets + groups
            + 8 * rpcs,
            tail, e2e, rpcs, best_rpc, best_rpc_dur,
            best_batch, best_batch_dur,
            b_dense, b_embedded, b_serde, b_overhead, b_sparse,
        )
        fabric.seek(window, dpos)
        main.egress_free = main_free
        for server, free in zip(servers, shard_free):
            server.egress_free = free
        completed[rid] = t_end - t0_req
        return t_end
