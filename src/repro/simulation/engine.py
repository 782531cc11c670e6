"""A minimal discrete-event simulation kernel.

The serving substrate (Section III of the paper) is modeled as a set of
cooperating *processes* -- Python generators that ``yield`` events such as
timeouts, resource acquisitions, or other processes.  The kernel is a small
subset of the SimPy programming model, implemented here so the repository is
self-contained:

* :class:`Engine` owns the event heap and the simulation clock.
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

Kernel selection (:func:`make_engine`)
======================================

Two kernels share this event model:

* ``"reference"`` -- :class:`Engine`: one heap entry per event, resource
  grants always deferred through a delay-0 event.  This is the bit-exact
  historical kernel every regression artifact was recorded under.
* ``"batched"`` -- :class:`BatchedEngine`: delay-0 scheduling (process
  kick-offs, ``succeed()``, resource hand-offs) lands in an O(1) FIFO
  *now-queue* that is merged with the heap by ``(time, sequence)``, so
  same-timestamp cascades -- the dominant event class in serving sweeps --
  bypass heap churn entirely; and :class:`SyncResource` grants a free unit
  *synchronously* (the continuation runs inline instead of after a delay-0
  hop).

Canonical event ordering
========================

Both kernels order events by ``(time, sequence)`` with one monotonic
sequence counter, so *scheduling order at equal timestamps is execution
order* -- this is the canonical ordering the determinism contract in
:mod:`repro.core.rng` (rule 2) relies on: every RNG draw made from inside
the simulation happens at a position fixed by that ordering.  Both kernels
drive the same serving generators; the batched kernel preserves the
canonical ordering exactly (the now-queue is FIFO and sequence numbers are
assigned at the same points), with one documented exception: a
synchronous resource grant runs the acquiring continuation *earlier
within the same timestamp* than the reference kernel would.  Code between
an ``acquire()`` and its next positive-delay yield must therefore not
touch cross-process shared state (fabric jitter draws, egress
reservations) -- the serving layer obeys this, and
``tests/test_kernel_equivalence.py`` pins the result columns of the two
kernels bit-identical on every paper configuration, chaos included.

Vectorized equivalence
----------------------

The ``vectorized`` kernel replays a serial closed-loop, chaos-free run
with no event loop at all, yet commits to
the *same* canonical ordering: in that regime every event's timestamp
and sequence position is a pure function of the precomputed per-request
plan, so the columnar evaluator (:mod:`repro.simulation.vectorized`)
can walk requests in arrival order and shard RPCs in issue order --
exactly the order the reference loop would pop them -- while computing
durations from numpy columns.  Floats stay bit-identical because every
accumulator is reduced with the same left-associated sequential adds the
chained DES yields perform (cumulative per-shard adds, never
``np.sum``, whose pairwise tree reassociates), and every RNG substream
(fabric jitter, clock skew) is drawn bulk-bufferedly in the same global
time order the scalar calls consume it.  An open-loop run keeps the
event loop for its busy periods and hands the evaluator only the
requests that arrive at an idle engine (:meth:`Engine.idle`) and finish
strictly before the next arrival -- requests no other event can
interleave with.  The same regression suites pin vectorized == reference
on every eligible paper configuration, serial and parallel, and
vectorized == batched on open-loop and co-located replays.
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
        engine._schedule_call(0.0, self._step_ref)

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
            # Inlined _schedule_call: this is the hot loop of every sweep.
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
            self.engine._schedule_call(delay, self._step_ref)
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
    """A counted resource with FIFO queueing (e.g. a pool of CPU cores)."""

    __slots__ = ("engine", "capacity", "_in_use", "_queue")

    def __init__(self, engine: "Engine", capacity: int):
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._in_use = 0
        self._queue: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return len(self._queue)

    def acquire(self) -> Event:
        """Return an event that triggers once a unit is held by the caller."""
        event = Event(self.engine)
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed(self)
        else:
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
    """Event loop: a heap of ``(time, sequence, target)`` entries.

    A target is either an :class:`Event` (triggered when popped) or a bare
    callable scheduled via :meth:`_schedule_call` (called with ``None``) --
    the allocation-free fast path used for plain-delay process resumption.
    """

    __slots__ = ("now", "_sequence", "_heap")

    def __init__(self):
        #: Current simulation time.  A plain attribute, not a property:
        #: the serving layer reads it on every span boundary and the
        #: property call overhead is visible in full-sweep profiles.
        self.now = 0.0
        self._sequence = 0
        self._heap: list[tuple[float, int, Any]] = []

    def _schedule(self, delay: float, event: Event) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def _schedule_call(self, delay: float, fn: Callable[[Any], None]) -> None:
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, fn))

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
        return not self._heap

    # -- execution -------------------------------------------------------
    def _check_until(self, until: Optional[float]) -> None:
        if until is not None and not until >= self.now:  # also rejects NaN
            raise SimulationError(
                f"run(until={until!r}) is in the past (now={self.now})"
            )

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
        self._check_until(until)
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if until is not None and heap[0][0] > until:
                self.now = until
                return until
            at, _, target = pop(heap)
            self.now = at
            if isinstance(target, Event):
                target._trigger()
            else:
                target(None)
        if until is not None and until > self.now:
            self.now = until
        return self.now


class SyncResource(Resource):
    """A :class:`Resource` whose free-unit grants are synchronous.

    :meth:`acquire` on a free unit returns an already-triggered event, so
    the acquiring process continues *inline* (zero scheduled events)
    instead of after a delay-0 hop -- the single largest per-hop saving in
    serving sweeps, where almost every acquire finds a free worker.
    Contended acquires still queue FIFO, and :meth:`release` still hands
    the unit to the next waiter through a deferred event, so wake-up order
    is identical to the reference kernel.

    Determinism: the inline continuation runs earlier *within the same
    timestamp* than under the reference :class:`Resource` (see "Canonical
    event ordering" in the module docstring).  Callers must not touch
    cross-process shared state between the acquire and their next yield.
    """

    __slots__ = ("_granted",)

    def __init__(self, engine: "Engine", capacity: int):
        super().__init__(engine, capacity)
        # One reusable pre-triggered grant event: triggered events never
        # mutate (callbacks on them fire immediately), so every
        # uncontended acquire can hand out the same instance.
        granted = Event(engine)
        granted._triggered = True
        granted._scheduled = True
        granted._value = self
        self._granted = granted

    def acquire(self) -> Event:
        """Grant synchronously when a unit is free; queue FIFO otherwise."""
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        event = Event(self.engine)
        self._queue.append(event)
        return event


class BatchedEngine(Engine):
    """Batched event loop: heap for timed events, FIFO queue for "now".

    Every delay-0 schedule -- process kick-offs, ``Event.succeed()``,
    resource hand-offs, ``AllOf``/``AnyOf`` completions -- appends to an
    O(1) *now-queue* instead of churning the heap.  The run loop merges
    the two by ``(time, sequence)``, which keeps the canonical event
    ordering bit-identical to the reference kernel: now-queue entries are
    naturally sorted (the sequence counter is monotonic and entries are
    only created at the current time), so the merge is a single
    comparison per dispatch, and a same-timestamp cascade drains as a
    batch of queue pops with zero ``log n`` factors.

    Resources created through :meth:`resource` are :class:`SyncResource`
    (synchronous free-unit grants); see the module docstring for the
    one documented ordering difference that introduces.
    """

    __slots__ = ("_now_queue",)

    def __init__(self):
        super().__init__()
        self._now_queue: deque[tuple[float, int, Any]] = deque()

    def _schedule(self, delay: float, event: Event) -> None:
        self._sequence += 1
        if delay == 0.0:
            self._now_queue.append((self.now, self._sequence, event))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._sequence, event))

    def _schedule_call(self, delay: float, fn: Callable[[Any], None]) -> None:
        self._sequence += 1
        if delay == 0.0:
            self._now_queue.append((self.now, self._sequence, fn))
        else:
            heapq.heappush(self._heap, (self.now + delay, self._sequence, fn))

    def resource(self, capacity: int) -> Resource:
        return SyncResource(self, capacity)

    def idle(self) -> bool:
        return not self._heap and not self._now_queue

    def run(self, until: Optional[float] = None) -> float:
        """Same contract and boundary semantics as :meth:`Engine.run`."""
        self._check_until(until)
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


#: Selectable DES kernels (``ServingConfig.kernel``; the CLI always
#: runs the default).  ``"vectorized"`` is the columnar replay fast
#: path: a serial closed-loop run bypasses the event loop entirely, and
#: an open-loop run or co-located mix runs the batched loop with every
#: idle arrival replayed by the evaluator (see
#: :mod:`repro.simulation.vectorized` / :mod:`repro.serving.columnar`);
#: runs with chaos or a live resilience policy, and serial runs on
#: shallow pools, fall back to the batched kernel with a recorded reason
#: (``RunResult.kernel_fallback``).
KERNELS = ("reference", "batched", "vectorized")

#: The kernel every surface defaults to.  ``"vectorized"`` chooses per
#: run (see :data:`KERNELS`).  All three kernels are regression-pinned
#: bit-identical, so the committed artifacts do not depend on this
#: choice; ``"reference"`` stays selectable as the test oracle the
#: batched kernel is pinned to.
DEFAULT_KERNEL = "vectorized"


def make_engine(kernel: str = DEFAULT_KERNEL) -> Engine:
    """Construct the selected DES kernel (see ``KERNELS``).

    ``"vectorized"`` returns a :class:`BatchedEngine`: the event loop a
    vectorized run keeps -- an open-loop run's busy periods, or a
    fallback run entirely -- is the batched kernel, bit-identical to the
    reference.
    """
    if kernel == "reference":
        return Engine()
    if kernel in ("batched", "vectorized"):
        return BatchedEngine()
    raise ValueError(
        f"unknown DES kernel {kernel!r}; expected one of {KERNELS}"
    )
