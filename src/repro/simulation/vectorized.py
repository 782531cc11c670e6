"""Columnar replay: the ``vectorized`` kernel's evaluator.

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
   its heap slot.  It reads a request's row through
   :meth:`ChunkPlans.listed`, the listing the DES reads too, and one
   body replays both plan shapes, as the DES does: a singular net is a
   net with no routing slot, whose SLS ops run locally on the main shard
   between the dense halves, and every plan reads its net overhead per
   batch.  Every accumulation whose operand order is fixed by
   construction -- the per-batch bucket lists (one ordered chain per
   batch), the per-RPC attribution entries (one RPC per entry), the
   best-RPC selection (response-arrival order == heap pop order) and the
   bounding-batch selection (batch-record order == chain-end dispatch
   order) -- is computed inline, in the engine's own operand order;
3. every CPU charge -- the sums that *interleave across chains* --
   becomes the aggregate's compact record, the one the DES appends per
   charge, and the evaluator sorts its records into the DES's recording
   order.  On commit it builds a fresh request state of the run's
   :class:`~repro.tracing.aggregate.AggregatingTracer`, fills it as the
   DES's ``record_interval`` calls would have, and hands it to
   ``finalize_request``, the one attribution entry of both paths.

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
  ``one_way_delay`` reads too) in heap order -- the engine's ``(time,
  sequence)`` dispatch order, exact ties included, because every event
  is keyed by its DES dispatch (the dispatch keys below).
* **Accumulation order.**  Per-accumulator operand order is what must
  match, not the global interleave: an accumulator only sees its own
  records' terms, so any accumulator fed by exactly one ordered chain
  (a batch's bucket sums, an RPC's entry) can be summed inline, while
  the cross-chain accumulators are folded from records sorted by the
  keys of the dispatches that record them -- the DES's recording
  order.  Every duration is the DES's wall-stamp expression
  ``(end+skew)-(start+skew)``, with the clock skew of the server that
  records it.

Idle arrivals
-------------

Every replay runs on the DES driver.  Under the ``vectorized`` kernel
the cluster carries an evaluator (``ClusterSimulation.evaluator``), and
both drivers -- ``ClusterSimulation.run_serial`` and
``ClusterSimulation.run_stream`` -- offer it every request that arrives
at an idle cluster (``ClusterSimulation._arrive``), one request at a
time, starting at the driver's own ``engine.now``; the DES replays the
rest.  In a serial closed loop every request arrives at an idle cluster
and the next arrival is the request's own completion, so the horizon is
``+inf`` and every request commits; on a commit the driver moves
``engine.now`` to the completion float, where the DES driver would
resume.  In an open-loop run (or a co-located mix) the DES replays the
busy periods.  A request is committed under two conditions -- the
driver checks the first, and the horizon is the evaluator's one
decline:

* **The engine holds no event and no request is in flight.**  Every
  earlier request has completed, so every worker and IO thread is free,
  and every egress reservation lies at or before ``now`` (each precedes
  its own request's completion).  The evaluator starts its Lindley
  recursions from the servers' reservations, so its NIC floats are the
  DES's.  No chaos and no live resilience policy run, so nothing else
  schedules events (``vectorized_ineligibility``).
* **It completes strictly before the next arrival's clock** (the float
  the engine will compute, ``now + (next - previous)``; ``+inf`` in a
  serial closed loop).  Then every event of the request precedes the
  driver's next resumption, in the DES as here: the request's rows,
  ``completed`` entry, jitter draws and egress reservations are the
  ones the DES would record, in the same completion order.  A *tie* is
  different: at equal times the engine resumes the driver first (its
  resumption was scheduled at the previous arrival, before the request's
  final events), so the next request arrives while this one still holds
  its tail -- and may queue on a worker.  Ties, and later completions,
  therefore go to the DES.

Within a committed request, batches queue FIFO for the main pool (the
kickoffs acquire at one instant in batch order, and a chain re-acquires
a worker when its RPC group joins) and RPCs for their shard's pool
(acquired on arrival), each pool replayed as a free list of hand-over
keys in dispatch order.  Only a pool smaller than ``nb`` can queue
(each batch holds at most one main worker, and has at most one RPC in
service on a host), so a pool of ``nb`` workers or more is not replayed
at all: every acquire on it is granted at once.  Two acquires on one
pool at one exact time are ordered by the engine's sequence counter,
which decides who waits; the dispatch keys reproduce that order, so a
pool tie commits like any other request.

A declined evaluation -- a completion at or after the horizon --
leaves no trace: the event heap and the RPC payloads its events carry
are the evaluation's own and die with it; the evaluator reads the
jitter cursor ahead without moving it, writes reservations, rows and
``completed`` only on commit, and the DES, replaying the same request,
consumes every window the evaluator read ahead -- so
``_jitter_pos`` and the fabric RNG state end where a pure-DES run leaves
them.  The DES takes a request's plans from the same chunk row the
evaluator reads (the driver plans its stream a chunk at a time,
``ClusterSimulation._locate``), so the replay builds each plan once.

The regression pins for all of this are
``tests/test_kernel_equivalence.py`` (vectorized == batched on every
paper configuration, all ``RunResult`` columns, serial and parallel)
and ``tests/test_idle_arrival_replay.py`` (serial, open-loop and mix
replays == the batched DES across the busy-period range and on 2- and
1-worker hosts, horizon ties, pool ties on DRM1's paper plans, cluster
state);
``tests/test_exact_ties.py`` fuzzes both kernels under dyadic costs,
where exact ties are common;
``tests/test_queueing_oracles.py`` checks queued batches against a
closed form, ``tests/test_pool_depth.py`` checks on the DES that a pool
of ``max_batches`` workers never queues, and ``tests/test_chunk_plan_builder.py`` pins the chunk
columns, the row located for the DES included, to the scalar oracle
(``tests/plan_oracle.py``) field by field.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any

import numpy as np

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

if TYPE_CHECKING:
    from repro.serving.simulator import ClusterSimulation

# Every step of the replay -- a chain step, an RPC's kickoff, its
# arrival at a shard, its shard steps, its return, its response
# deserialization, a worker handed over, a chain resumed -- is one
# dispatch of the DES, and the evaluator names each by its *dispatch
# key* ``(time, parent, index)``: ``parent`` is the key of the dispatch
# that scheduled it, ``index`` its place among that dispatch's children.
# The engine dispatches by ``(time, sequence)``, and a sequence number is
# drawn when an event is scheduled, so at one time it dispatches first
# whatever was scheduled first -- the child of the earlier parent, or of
# one parent the earlier child.  Python's tuple comparison walks exactly
# that recursion, so comparing two keys compares the dispatches' places
# in the DES order: keys decide every tie, of heap events, pool grants
# and recorded charges alike.  Keys are unique (a parent's children take
# distinct indices), so a comparison never reaches past the index; a
# key's ancestors compare below it, and every key of a request descends
# from the dispatch that spawns its batches, ``(t2, _NEVER, 0)``.
#
# Heap events are keys that carry two more fields, ``(time, parent,
# index, kind, payload)``: an RPC's events carry its payload list,
# ``[ops, serde, overhead, service, costs, shard, net, join,
# t_client]`` -- its attribution entry (the four AggregatingTracer
# RPC-entry slots, written when it is served, so the best RPC's payload
# is the entry finalize reads), its batch's nine cost floats (one row of
# :meth:`TargetColumns.costs`), its shard index, its net's name, its
# group's join list ``[outstanding, last deserialization key,
# batch, net]`` and the client serialization end -- and a resume carries
# the join list.  Kinds: 0 = issue (the RPC's kickoff: main egress +
# outbound network), 1 = serve (it reaches its shard, acquires a shard
# worker and runs its shard chain), 2 = send (response serialized:
# shard egress + return network), 3 = arrive (response at main:
# IO-thread deserialization + join) and 4 = resume (the joined chain
# re-acquires a main worker).
#
# A pool (main workers, a shard's workers, the IO threads) that can
# queue is a free list holding, per unit, the key of the hand-over its
# last holder's release would schedule, ``(time, release, index)``.  An
# acquire at key ``k`` takes the lowest: if that release dispatched
# before ``k`` the unit is free and the grant is ``k`` itself, else the
# acquire waits and the hand-over is its grant -- FIFO, since acquires
# are replayed in the DES order, and acquires at one exact time wait in
# the order of their keys, as the DES's do.  A worker pool of ``nb``
# units or more never makes an acquire wait (at most ``nb`` chains hold
# its workers at once), so it keeps no free list: each acquire is
# granted at its own key.  The IO threads always keep theirs -- a
# request's RPCs are not bounded by ``nb``.
#
# A charge's record *is* the key of the dispatch that records it, with
# the charge's fields after the key's (see
# :data:`~repro.tracing.aggregate.Record`; the DES's records lead with
# their time), and the records sort by themselves into the DES's
# recording order.  Keys are unique, so a comparison never reaches a
# charge field; the sort compares tuples that lead with a float, which
# it specializes.
_NEVER = (-math.inf,)  # below every key
_IDLE = (-math.inf, _NEVER, 0)  # an idle unit: released before any acquire


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
    pools).  ``net_names`` names the tenant's nets in plan order.
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

    def listed(self, row: int) -> list[tuple]:
        """Request ``row``'s plans listed once, for both replay paths:
        per net ``(name, overhead, pre, post, local, slots)`` -- the
        per-batch net overheads, dense halves and (singular plans; else
        ``None``) local SLS work, and per routing slot its shard index
        and per-batch cost lists (:meth:`TargetColumns.costs`).  Nothing
        in the listing refers back to the chunk."""
        singular = self.singular
        return [
            (
                name,
                net.overhead[row],
                net.pre[row],
                net.post[row],
                net.local[row] if singular else None,
                [(target.shard, target.costs(row)) for target in net.targets],
            )
            for name, net in zip(self.net_names, self.nets)
        ]


class SweepEvaluator:
    """Replays plan requests analytically on one simulated cluster.

    The evaluator keeps no replay state of its own: everything a request
    leaves behind that a later request (or the DES) reads lives on the
    cluster's objects -- the fabric's jitter cursor, the servers' egress
    reservations, the ``completed`` map and the cluster's tracer, an
    :class:`~repro.tracing.aggregate.AggregatingTracer` -- and is
    written only when a request *commits*.  It holds those objects, not
    the cluster, so a finished cluster is freed at once.  A request's
    egress Lindley recursions start from the servers' own reservations,
    and its IO-thread and worker pools start idle: in the regime the
    evaluator runs in, every earlier request has completed, so every
    thread and worker is free and every reservation (each precedes its
    own request's completion) lies at or before the request's start --
    exactly where the DES starts.
    """

    __slots__ = (
        "fabric", "main", "shards", "completed", "collector",
        "skew_main", "shard_skews",
        "request_fixed", "response_fixed", "service_fixed", "handler_cpu",
        "io_threads", "main_cap", "shard_caps",
    )

    def __init__(self, cluster: ClusterSimulation) -> None:
        collector = cluster.tracer
        assert isinstance(collector, AggregatingTracer), (
            "the evaluator attributes into an AggregatingTracer"
        )
        cost_model = cluster.config.cost_model
        # ``main``/``shards`` are the cluster's SimServers (worker pool,
        # clock skew and egress reservation are read from them).
        main = self.main = cluster.main
        shards = self.shards = cluster.sparse_servers
        self.fabric = cluster.fabric
        self.completed = cluster.completed
        self.collector = collector
        self.skew_main = main.clock_skew
        self.shard_skews = [server.clock_skew for server in shards]
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
        returns its completion time (see "Idle arrivals" in the module
        docstring).

        The request *commits* -- attributes its row, moves the jitter
        cursor and the egress reservations, enters ``completed`` -- if
        and only if it completes strictly before ``horizon``; otherwise
        the cluster is left untouched and the caller hands the request
        to the DES.
        """
        fabric = self.fabric
        main = self.main
        servers = self.shards
        skm = self.skew_main
        shard_skews = self.shard_skews
        request_fixed = self.request_fixed
        service_fixed = self.service_fixed
        heappush = heapq.heappush
        heappop = heapq.heappop
        heapreplace = heapq.heapreplace

        t0_req = t_start
        deser = plans.head_deser[i]
        t1 = t0_req + deser
        t2 = t1 + request_fixed
        head = (t1 + skm) - (t0_req + skm)
        nb = plans.nb[i]
        # Fresh per request: a committed request's state takes them over.
        recs: list[Record] = [
            (-math.inf, None, 0, None, _K_SERDE, MAIN_SHARD, deser, 0.0)
        ]
        add = recs.append
        b_dense = [0.0] * nb
        b_embedded = [0.0] * nb
        b_serde = [head] * nb
        b_overhead = [0.0] * nb
        b_sparse = [0.0] * nb
        # Zero-byte fabric delays, read from the simulation's own
        # jitter cursor (bitwise the per-call values, consumed in the
        # same order the DES dispatches); later windows are read ahead,
        # and the cursor moves only when the request commits.
        delays, dpos = fabric.jitter_cursor()
        num_delays = len(delays)
        window = 0
        # The request's row, listed once as the DES lists it; an RPC's
        # payload takes its batch's nine cost floats as one list, so the
        # heap branches index no rows at all.
        nets = plans.listed(i)
        num_nets = len(nets)
        heap: list[tuple] = []
        main_free = main.egress_free
        shard_free = [server.egress_free for server in servers]
        ends: list[Any] = [None] * nb
        pend: list[float] = [0.0] * nb
        rpcs = 0
        best_rpc: list[Any] | None = None
        best_rpc_dur = -1.0
        # Worker pools (see the dispatch keys above).  A batch chain
        # holds one main worker from its grant until it parks on an RPC
        # group or ends, and an RPC holds one shard worker from its grant
        # until its response is serialized; every hold is known when its
        # worker is granted.  At most ``nb`` chains hold a pool's workers
        # at once (a batch has at most one RPC in service on a host), so
        # only a pool of fewer units can queue; a deeper one is ``None``.
        io_free = [_IDLE] * self.io_threads
        main_cap = self.main_cap
        m_free = [_IDLE] * main_cap if main_cap < nb else None
        s_free = [[_IDLE] * cap if cap < nb else None for cap in self.shard_caps]

        def advance(b: int, t: float, g: tuple, n0: int, joined: bool) -> tuple:
            # One batch chain's lockstep walk from its worker's grant
            # ``t`` (dispatch key ``g``; each step's record is ``g``
            # again, the previous step its parent), until it either
            # spawns an RPC group (state parks in ``pend`` and in the join
            # list the group's payloads share; the join resumes it) or
            # runs out of nets (``ends[b]`` is the last step's key).
            # Returns the key of the hand-over its worker's release
            # schedules: after the last client serialization of the
            # group, or at its end.  A ``joined`` chain resumes net
            # ``n0``'s RPC group: the embedded window closes at the grant
            # and the dense post half runs before the walk goes on to the
            # next net.  A singular net spawns no RPC: its local SLS op
            # runs between the dense halves, where the group would have.
            if joined:
                t_embedded = pend[b]
                b_embedded[b] += (t + skm) - (t_embedded + skm)
                post = nets[n0][3][b]
                t0 = t
                t = t0 + post
                g = (t, g, 0, None, _K_OPS, MAIN_SHARD, post, 0.0)
                add(g)
                b_dense[b] += (t + skm) - (t0 + skm)
                n0 += 1
            for n in range(n0, num_nets):
                name, overheads, pres, posts, local, slots = nets[n]
                overhead = overheads[b]
                t0 = t
                t = t0 + overhead
                g = (t, g, 0, None, _K_SERVICE, MAIN_SHARD, overhead, 0.0)
                add(g)
                b_overhead[b] += (t + skm) - (t0 + skm)
                pre = pres[b]
                t0 = t
                t = t0 + pre
                g = (t, g, 0, None, _K_OPS, MAIN_SHARD, pre, 0.0)
                add(g)
                b_dense[b] += (t + skm) - (t0 + skm)
                t_embedded = t
                # [outstanding RPCs, last deserialization key, batch, net]
                join: list[Any] = [0, _NEVER, b, n]
                for shard, costs in slots:
                    c = costs[b]
                    if not c[0]:
                        continue
                    cst = c[1]
                    t0 = t
                    t = t0 + cst
                    # A client serialization after the group's first is
                    # scheduled behind the previous one's RPC kickoff.
                    g = (
                        t, g, 1 if join[0] else 0,
                        None, _K_SERDE, MAIN_SHARD, cst, 0.0,
                    )
                    join[0] += 1
                    add(g)
                    b_serde[b] += (t + skm) - (t0 + skm)
                    heappush(heap, (
                        t, g, 0, 0,
                        [0.0, 0.0, 0.0, 0.0, c, shard, name, join, t],
                    ))
                if join[0]:
                    pend[b] = t_embedded
                    return (t, g, 1)
                if local is not None:
                    work = local[b]
                    t0 = t
                    t = t0 + work
                    g = (t, g, 0, None, _K_OPS_LOCAL, MAIN_SHARD, work, 0.0)
                    add(g)
                    # The embedded window wraps the local SLS op: both
                    # buckets receive the same duration float.
                    d = (t + skm) - (t0 + skm)
                    b_sparse[b] += d
                    b_embedded[b] += d
                post = posts[b]
                t0 = t
                t = t0 + post
                g = (t, g, 0, None, _K_OPS, MAIN_SHARD, post, 0.0)
                add(g)
                b_dense[b] += (t + skm) - (t0 + skm)
            ends[b] = g
            return (t, g, 0)

        # The kickoffs acquire at t2 in batch order: the processes spawned
        # by one dispatch, in spawn order, before any later event.
        spawn = (t2, _NEVER, 0)
        for b in range(nb):
            kickoff = (t2, spawn, b)
            if m_free is None:
                advance(b, t2, kickoff, 0, False)
                continue
            f = min(m_free)
            g = kickoff if f[1] < kickoff else f
            m_free[m_free.index(f)] = advance(b, g[0], g, 0, False)

        # Every event but a resume schedules at most one successor, so
        # the loop peeks at the heap's head and hands its slot to that
        # successor with one ``heapreplace``; only an arrive that leaves
        # its group outstanding, and a resume (whose chain may push
        # several RPCs), pop.  Keys are unique, so the dispatch order is
        # the pop-then-push order.
        while heap:
            ev = heap[0]
            t = ev[0]
            kind = ev[3]
            rpc = ev[4]
            if kind == 0:  # issue
                # Main egress reservation (Lindley over the DES order),
                # then the outbound fabric hop.
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
                heapreplace(heap, (t + out_delay, ev, 0, 1, rpc))
                continue
            elif kind == 2:  # send
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
                # Scheduled behind the hand-over of the shard worker.
                heapreplace(heap, (t + back_delay, ev, 1, 3, rpc))
                continue
            elif kind == 3:  # arrive: IO-thread pool, then join
                f = min(io_free)
                grant = ev if f[1] < ev else f
                begin = grant[0]
                crd = rpc[4][6]
                done = begin + crd
                deser_key = (done, grant, 0, None, _K_SERDE, MAIN_SHARD, crd, 0.0)
                io_free[io_free.index(f)] = (done, deser_key, 0)
                add(deser_key)
                # rpc_outstanding: arrival order == heap pop order,
                # strict > keeps the first-recorded maximum.
                tcl = rpc[8]
                d = (t + skm) - (tcl + skm)
                rpcs += 1
                if d > best_rpc_dur:
                    best_rpc_dur = d
                    best_rpc = rpc
                join = rpc[7]
                join[0] -= 1
                if deser_key > join[1]:
                    join[1] = deser_key
                if join[0]:
                    heappop(heap)
                    continue
                # The last deserialization's process ends (behind its
                # IO thread's hand-over), that ends the group's join,
                # and the join resumes the chain.  The key leaves the
                # join list: it leads back to this payload, which holds
                # the list, and a cycle would outlive the request.
                last = join[1]
                join[1] = None
                ended = (last[0], last, 1)
                heapreplace(heap, (last[0], ended, 0, 4, join))
                continue
            elif kind == 4:  # resume: re-acquire a main worker
                # Popped before the chain pushes its next RPC group.
                heappop(heap)
                if m_free is None:
                    advance(rpc[2], t, ev, rpc[3], True)
                    continue
                f = min(m_free)
                g = ev if f[1] < ev else f
                m_free[m_free.index(f)] = advance(rpc[2], g[0], g, rpc[3], True)
                continue
            # serve: the RPC acquires a worker from its shard's FIFO pool
            # and runs its shard chain from the grant (the rpc_e2e
            # service window opens at arrival).
            shard = rpc[5]
            pool = s_free[shard]
            if pool is None:
                g = ev
            else:
                f = min(pool)
                g = ev if f[1] < ev else f
            grant_t = g[0]
            c = rpc[4]
            sdes = c[2]
            x = grant_t + sdes
            x1 = x + service_fixed
            sov = c[3]
            x2 = x1 + sov
            slw = c[4]
            x3 = x2 + slw
            srs = c[5]
            s_done = x3 + srs
            sk = shard_skews[shard]
            d_slw = (x3 + sk) - (x2 + sk)
            # The RPC's attribution entry, complete at grant time:
            # each slot is fed only by this RPC's own spans, in chain
            # order (serde = deser + resp ser).
            rpc[0] = d_slw
            rpc[1] = ((x + sk) - (grant_t + sk)) + ((s_done + sk) - (x3 + sk))
            rpc[2] = (x2 + sk) - (x1 + sk)
            rpc[3] = (s_done + sk) - (t + sk)
            # The shard chain's dispatches, each its charge's record
            # but the fixed service's: deserialization, fixed service,
            # net overhead, SLS, response serialization (the send event;
            # its fused record takes the send's key fields).
            k1 = (x, g, 0, None, _K_SERDE, shard, sdes, 0.0)
            k3 = (x2, (x1, k1, 0), 0, None, _K_SERVICE, shard, sov, 0.0)
            k4 = (x3, k3, 0, rpc[6], _K_OPS_SLW, shard, slw, d_slw)
            sent = (s_done, k4, 0, 2, rpc)
            if pool is not None:
                pool[pool.index(f)] = (s_done, sent, 0)
            add(k1)
            add(k3)
            add(k4)
            add((s_done, k4, 0, None, _K_SRS_SVC, shard, srs, service_fixed))
            heapreplace(heap, sent)

        best_batch = -1
        best_batch_dur = -1.0
        # Batch records fold in the order their chains end.
        for end, b in sorted(zip(ends, range(nb))):
            e = end[0]
            d = (e + skm) - (t2 + skm)
            if d > best_batch_dur:
                best_batch_dur = d
                best_batch = b
        last_end = ends[0][0]
        for b in range(1, nb):
            if ends[b][0] > last_end:
                last_end = ends[b][0]
        ser = plans.tail_ser[i]
        t1 = last_end + ser
        t_end = t1 + self.response_fixed
        if t_end >= horizon:
            # Not committed: the cursor, the reservations and the
            # collector are untouched (the read-ahead windows stay
            # drawn; the DES consumes them when it replays this
            # request).
            return t_end
        recs.sort()
        # The response serialization and request_e2e charges, last in
        # the DES's order too.
        add((t1, None, 0, None, _K_SERDE, MAIN_SHARD, ser, 0.0))
        add((t_end, None, 0, None, _K_SERVICE, MAIN_SHARD, self.handler_cpu, 0.0))
        # The request's state, filled as the DES's record_interval calls
        # would have left it.
        state = _RequestState()
        state.records = recs
        state.tail_serde = (t1 + skm) - (last_end + skm)
        state.e2e = (t_end + skm) - (t0_req + skm)
        state.service_count = 1
        state.num_batches = nb
        state.best_batch = best_batch
        state.best_batch_dur = best_batch_dur
        state.rpcs = rpcs
        state.best_rpc = best_rpc
        state.best_rpc_dur = best_rpc_dur
        state.batch_dense = b_dense
        state.batch_embedded = b_embedded
        state.batch_serde = b_serde
        state.batch_overhead = b_overhead
        state.batch_sparse = b_sparse
        rid = plans.rids[i]
        self.collector.finalize_request(rid, state)
        fabric.seek(window, dpos)
        main.egress_free = main_free
        for server, free in zip(servers, shard_free):
            server.egress_free = free
        self.completed[rid] = t_end - t0_req
        return t_end
