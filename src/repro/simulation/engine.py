"""A minimal discrete-event simulation kernel.

The serving substrate (Section III of the paper) is modeled as a set of
cooperating *processes* -- Python generators that ``yield`` events such as
timeouts, resource acquisitions, or other processes.  The kernel is a small
subset of the SimPy programming model, implemented here so the repository is
self-contained:

* :class:`Engine` owns the event queues and the simulation clock.
* :class:`Event` is a one-shot promise; callbacks run when it triggers.
* :class:`Process` drives a generator, resuming it whenever the event it
  yielded triggers, and is itself an event that triggers on completion.
* :class:`Resource` models a counted resource (e.g. a server's core pool)
  with FIFO queuing.

Determinism: events scheduled for the same timestamp are processed in
insertion order (a monotonic sequence number breaks ties), so repeated runs
with the same seeds produce identical traces.

Plain delays: a process may yield a ``float``/``int`` delay instead of a
:class:`Timeout`.  The kernel then schedules the generator's resumption
directly -- no Event allocation, no callback registration, no trigger
dispatch -- which roughly halves the per-hop cost of the simulator's hot
loop.  The sequence number is taken at the same point either way, so a
``yield delay`` is scheduled identically to ``yield engine.timeout(delay)``
and replacing one with the other cannot reorder a simulation.

The event loop
==============

:class:`Engine` keeps two queues.  Every delay-0 schedule -- process
kick-offs, ``Event.succeed()``, resource hand-offs, ``AllOf``/``AnyOf``
completions -- appends to an O(1) FIFO *now-queue*; every timed event,
and every plain-delay resumption (``yield 0.0`` included), goes on the
heap.  :meth:`Engine.run` merges the two by ``(time, sequence)``, so
same-timestamp cascades -- the dominant event class in serving sweeps --
drain as a batch of queue pops with no heap churn.  A :class:`Resource`
grants a free unit *synchronously*: the acquiring process continues
inline instead of after a delay-0 hop.

Canonical event ordering
========================

Events are dispatched in ``(time, sequence)`` order with one monotonic
sequence counter, so *scheduling order at equal timestamps is execution
order* -- this is the canonical ordering the determinism contract in
:mod:`repro.core.rng` (rule 2) relies on: every RNG draw made from inside
the simulation happens at a position fixed by that ordering.  The
now-queue is FIFO and takes its sequence numbers from the same counter,
so it only changes *where* an event waits, never when it runs: a heap
entry at the current time runs before a queued one exactly when its
sequence is older (a ``Timeout`` landing precisely on ``now``), and after
it otherwise (a ``yield 0.0`` taken after the queued ``succeed()``).  A
free-unit grant schedules nothing, so the code between an ``acquire()``
and the process's next yield runs at the acquire's own position in that
order.  ``tests/test_engine.py`` pins each of these rules on a bare
engine.

Vectorized equivalence
----------------------

The ``vectorized`` kernel replays every request of a chaos-free run
that arrives at an idle engine (:meth:`Engine.idle`) with no event loop
at all, yet commits to the *same* canonical ordering: for such a request
every event's timestamp and sequence position is a pure function of the
precomputed per-request plan, so the columnar evaluator
(:mod:`repro.simulation.vectorized`) can walk its shard RPCs in issue
order -- exactly the order the event loop would pop them -- while
computing durations from numpy columns.  Floats stay bit-identical because every
accumulator is reduced with the same left-associated sequential adds the
chained DES yields perform (cumulative per-shard adds, never
``np.sum``, whose pairwise tree reassociates), and every RNG substream
(fabric jitter, clock skew) is drawn bulk-bufferedly in the same global
time order the scalar calls consume it.  A run keeps the event loop for
its busy periods and hands the evaluator only the requests that finish
strictly before the next arrival -- requests no other event can
interleave with.  Their batches queue FIFO for the worker pools: the
evaluator replays each :class:`Resource` as a free list of release
times, since every hold is known when its unit is granted, and orders
acquires that tie at one exact time by the keys of their dispatches,
as the sequence counter does.  In a serial closed loop the next arrival
is the request's own completion, so every request takes the evaluator,
whatever the pool depth.  The regression suites pin vectorized ==
batched on every eligible paper configuration, serial and parallel, on
2- and 1-worker pools, open-loop and co-located replays.
"""

from __future__ import annotations

import heapq
import numbers
from collections import deque
from heapq import heappush
from typing import Any, Callable, Generator, Iterable, Optional, Union

ProcessGenerator = Generator[Union["Event", float, int], Any, Any]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation kernel."""


class Event:
    """A one-shot occurrence with an optional value.

    Events start *pending*; :meth:`succeed` schedules them to *trigger* at
    the current simulation time, after which their callbacks fire exactly
    once, in registration order.
    """

    __slots__ = ("engine", "callbacks", "_value", "_triggered", "_scheduled")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._triggered = False
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to trigger now, carrying ``value``."""
        if self._scheduled:
            raise SimulationError("event succeeded twice")
        self._value = value
        self._scheduled = True
        self.engine._schedule(0.0, self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self._triggered:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _trigger(self) -> None:
        self._triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that triggers after a fixed delay."""

    __slots__ = ()

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(engine)
        self._value = value
        self._scheduled = True
        engine._schedule(delay, self)


class Process(Event):
    """Drives a generator; triggers with the generator's return value."""

    __slots__ = ("_generator", "_step_ref")

    def __init__(self, engine: "Engine", generator: ProcessGenerator):
        super().__init__(engine)
        # Annotated Any, not Optional: both are nulled on completion to
        # break the reference cycle, and the hot loop cannot afford
        # per-hop None checks to satisfy a narrower type.
        self._generator: Any = generator
        # The bound ``_step`` is created once and reused: the plain-delay
        # fast path schedules it on every hop, and allocating a fresh
        # bound-method object per hop is measurable in full sweeps.
        self._step_ref: Any = self._step
        # Kick off at the current time (not synchronously) so that process
        # creation order does not leak into execution order mid-callback.
        engine._schedule(0.0, self._step_ref)

    def _resume(self, event: Event) -> None:
        self._step(event._value)

    def _step(self, value: Any = None) -> None:
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self._value = stop.value
            self._scheduled = True
            # Break the self -> _step_ref -> self reference cycle so the
            # finished process and its generator frame are reclaimed by
            # refcounting, not deferred to the cyclic GC.
            self._generator = None
            self._step_ref = None
            self.engine._schedule(0.0, self)
            return
        cls = target.__class__
        if cls is float or cls is int:
            if target < 0:
                raise SimulationError(f"negative timeout delay: {target}")
            # Inlined _schedule (a plain delay always takes the heap, 0.0
            # included): this is the hot loop of every sweep.
            engine = self.engine
            engine._sequence += 1
            heappush(
                engine._heap, (engine.now + target, engine._sequence, self._step_ref)
            )
        elif isinstance(target, Event):
            target.add_callback(self._resume)
        elif isinstance(target, numbers.Real) and not isinstance(target, bool):
            # Slow path for numpy scalars (np.float64 etc.) leaking out of
            # array math -- same semantics as the exact-type fast path.
            # bool stays rejected: `yield flag` is a bug, not a delay.
            delay = float(target)
            if delay < 0:
                raise SimulationError(f"negative timeout delay: {delay}")
            self.engine._schedule(delay, self._step_ref)
        else:
            raise SimulationError(
                f"process yielded {type(target).__name__}; processes must "
                "yield Events or float/int delays"
            )


class AllOf(Event):
    """Triggers when every child event has triggered.

    The value is the list of child values, in the order given.
    """

    __slots__ = ("_pending", "_children")

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._children = list(events)
        self._pending = len(self._children)
        if self._pending == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child._value for child in self._children])


class AnyOf(Event):
    """Triggers when the first child event triggers; value is (index, value)."""

    __slots__ = ("_done",)

    def __init__(self, engine: "Engine", events: Iterable[Event]):
        super().__init__(engine)
        self._done = False
        children = list(events)
        if not children:
            raise SimulationError("AnyOf requires at least one event")
        for index, child in enumerate(children):
            child.add_callback(lambda event, index=index: self._on_child(index, event))

    def _on_child(self, index: int, event: Event) -> None:
        if not self._done:
            self._done = True
            self.succeed((index, event._value))


class Resource:
    """A counted resource with FIFO queueing (e.g. a pool of CPU cores).

    :meth:`acquire` on a free unit returns an already-triggered event, so
    the acquiring process continues *inline* (zero scheduled events) --
    the single largest per-hop saving in serving sweeps, where almost
    every acquire finds a free worker.  Contended acquires queue FIFO, and
    :meth:`release` hands the unit to the next waiter through a delay-0
    event.
    """

    __slots__ = ("engine", "capacity", "_in_use", "_queue", "_granted")

    def __init__(self, engine: "Engine", capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Event] = deque()
        # One reusable pre-triggered grant event: triggered events never
        # mutate (callbacks on them fire immediately), so every
        # uncontended acquire can hand out the same instance.
        granted = Event(engine)
        granted._triggered = True
        granted._scheduled = True
        granted._value = self
        self._granted = granted

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        """Grant synchronously when a unit is free; queue FIFO otherwise."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        event = Event(self.engine)
        self._queue.append(event)
        return event

    def release(self) -> None:
        if self._in_use == 0:
            raise SimulationError("release() without a matching acquire()")
        if self._queue:
            # Hand the unit directly to the next waiter; _in_use is unchanged.
            self._queue.popleft().succeed(self)
        else:
            self._in_use -= 1


class Engine:
    """Event loop: a heap of ``(time, sequence, target)`` entries for timed
    events and a FIFO now-queue of the same entries for delay-0 ones.

    A target is either an :class:`Event` (triggered when popped) or a bare
    callable (called with ``None``) -- the allocation-free fast path used
    for process resumption.
    """

    __slots__ = ("now", "_sequence", "_heap", "_now_queue")

    def __init__(self):
        #: Current simulation time.  A plain attribute, not a property:
        #: the serving layer reads it on every span boundary and the
        #: property call overhead is visible in full-sweep profiles.
        self.now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Any]] = []
        self._now_queue: deque[tuple[float, int, Any]] = deque()

    def _schedule(
        self, delay: float, target: Union[Event, Callable[[Any], None]]
    ) -> None:
        self._sequence += 1
        if delay == 0.0:
            self._now_queue.append((self.now, self._sequence, target))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._sequence, target))

    # -- factory helpers ------------------------------------------------
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator) -> Process:
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def resource(self, capacity: int) -> Resource:
        return Resource(self, capacity)

    def idle(self) -> bool:
        """Whether no event is scheduled (a running process's own next
        resumption is not scheduled until it yields)."""
        return not self._heap and not self._now_queue

    # -- execution -------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events until the queue drains or the clock reaches ``until``.

        Boundary semantics (pinned by regression tests in
        ``tests/test_engine.py``):

        * The cutoff is **inclusive**: events scheduled at exactly
          ``until`` are processed before returning, so ``run(until=t)``
          followed by ``run()`` never drops, duplicates, or reorders
          events at the boundary.
        * On return with ``until``, ``now`` reads exactly ``until`` --
          *also* when the queue drained earlier (nothing can occur in an
          empty stretch, so the clock provably advanced).  Historically a
          drained queue left ``now`` at the last event, inconsistent with
          the early-stop branch.
        * Without ``until``, ``now`` reads the time of the last processed
          event.
        * An ``until`` in the past (``until < now``) or NaN raises
          :class:`SimulationError`: the clock never moves backwards.

        Returns the final simulation time.
        """
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self.now})"
            )
        heap = self._heap
        queue = self._now_queue
        pop = heapq.heappop
        popleft = queue.popleft
        while True:
            if queue:
                # Merge by (time, sequence).  Queue entries sit at the
                # current time, heap entries at >= now, so the heap only
                # wins an exact-timestamp tie on an older sequence number
                # (e.g. a Timeout landing precisely on ``now``).
                if heap:
                    head = heap[0]
                    entry = queue[0]
                    if head[0] < entry[0] or (
                        head[0] == entry[0] and head[1] < entry[1]
                    ):
                        at, _, target = pop(heap)
                    else:
                        at, _, target = popleft()
                else:
                    at, _, target = popleft()
            elif heap:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return until
                at, _, target = pop(heap)
            else:
                break
            self.now = at
            if isinstance(target, Event):
                target._trigger()
            else:
                target(None)
        if until is not None and until > self.now:
            self.now = until
        return self.now


#: Selectable kernels (``ServingConfig.kernel``; the CLI always runs
#: the default).  ``"batched"`` replays every request on the
#: :class:`Engine` event loop.  ``"vectorized"`` is the columnar replay
#: fast path: every run -- serial closed-loop, open-loop or a co-located
#: mix -- runs the event loop with every idle arrival that finishes
#: before the next replayed by the evaluator, worker queueing included
#: (see :mod:`repro.simulation.vectorized` /
#: :mod:`repro.serving.columnar`); runs with chaos or a live resilience
#: policy fall back to ``"batched"`` with a recorded reason
#: (``RunResult.kernel_fallback``).
KERNELS = ("batched", "vectorized")

#: The kernel every surface defaults to.  ``"vectorized"`` chooses per
#: run (see :data:`KERNELS`).  Both kernels are regression-pinned
#: bit-identical, so the committed artifacts do not depend on this
#: choice.
DEFAULT_KERNEL = "vectorized"
