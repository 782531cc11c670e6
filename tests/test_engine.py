"""Unit tests for the discrete-event simulation kernel."""

import numpy as np
import pytest

from repro.simulation.engine import Engine, SimulationError


@pytest.fixture(params=["float", "timeout", "numpy"])
def hop(request):
    """The three ways ``Process._step`` schedules a timed resumption.

    A ``float`` takes the inlined heap push (``0.0`` included); a
    ``Timeout`` is scheduled by ``Engine._schedule``, whose delay-0
    entries wait in the now-queue; a numpy scalar takes the numeric slow
    path through ``Engine._schedule`` too.  Each must resume at
    ``now + delay`` in the same sequence slot.
    """
    if request.param == "float":
        return lambda engine, delay: float(delay)
    if request.param == "timeout":
        return lambda engine, delay: engine.timeout(delay)
    return lambda engine, delay: np.float64(delay)


def test_timeout_advances_clock():
    engine = Engine()

    def proc():
        yield engine.timeout(1.5)
        return engine.now

    process = engine.process(proc())
    engine.run()
    assert process.triggered
    assert process.value == pytest.approx(1.5)


def test_timeout_carries_value():
    engine = Engine()

    def proc():
        value = yield engine.timeout(0.1, value="payload")
        return value

    process = engine.process(proc())
    engine.run()
    assert process.value == "payload"


def test_negative_timeout_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.timeout(-0.1)


def test_sequential_timeouts_accumulate():
    engine = Engine()
    timestamps = []

    def proc():
        for delay in (1.0, 2.0, 3.0):
            yield engine.timeout(delay)
            timestamps.append(engine.now)

    engine.process(proc())
    engine.run()
    assert timestamps == [1.0, 3.0, 6.0]


def test_processes_run_concurrently():
    engine = Engine()
    log = []

    def worker(name, delay):
        yield engine.timeout(delay)
        log.append((engine.now, name))

    engine.process(worker("slow", 2.0))
    engine.process(worker("fast", 1.0))
    engine.run()
    assert log == [(1.0, "fast"), (2.0, "slow")]


def test_same_time_events_fifo_order():
    engine = Engine()
    log = []

    def worker(name):
        yield engine.timeout(1.0)
        log.append(name)

    for name in ("a", "b", "c"):
        engine.process(worker(name))
    engine.run()
    assert log == ["a", "b", "c"]


def test_process_waits_on_process():
    engine = Engine()

    def inner():
        yield engine.timeout(2.0)
        return 42

    def outer():
        result = yield engine.process(inner())
        return (engine.now, result)

    process = engine.process(outer())
    engine.run()
    assert process.value == (2.0, 42)


def test_all_of_waits_for_slowest():
    engine = Engine()

    def worker(delay):
        yield engine.timeout(delay)
        return delay

    def outer():
        children = [engine.process(worker(d)) for d in (3.0, 1.0, 2.0)]
        values = yield engine.all_of(children)
        return (engine.now, values)

    process = engine.process(outer())
    engine.run()
    at, values = process.value
    assert at == 3.0
    assert values == [3.0, 1.0, 2.0]  # order of submission, not completion


def test_all_of_empty_triggers_immediately():
    engine = Engine()

    def outer():
        values = yield engine.all_of([])
        return (engine.now, values)

    process = engine.process(outer())
    engine.run()
    assert process.value == (0.0, [])


def test_any_of_returns_first():
    engine = Engine()

    def worker(delay):
        yield engine.timeout(delay)
        return delay

    def outer():
        children = [engine.process(worker(d)) for d in (3.0, 1.0)]
        index, value = yield engine.any_of(children)
        return (engine.now, index, value)

    process = engine.process(outer())
    engine.run()
    assert process.value == (1.0, 1, 1.0)


def test_event_succeed_twice_rejected():
    engine = Engine()
    event = engine.event()
    event.succeed(1)
    with pytest.raises(SimulationError):
        event.succeed(2)


def test_event_value_before_trigger_rejected():
    engine = Engine()
    event = engine.event()
    with pytest.raises(SimulationError):
        _ = event.value


def test_run_until_stops_early():
    engine = Engine()

    def proc():
        yield engine.timeout(10.0)

    engine.process(proc())
    final = engine.run(until=4.0)
    assert final == 4.0
    # remaining work still runs afterwards
    final = engine.run()
    assert final == 10.0


class TestResource:
    def test_acquire_release_serializes_work(self):
        engine = Engine()
        resource = engine.resource(1)
        log = []

        def worker(name):
            yield resource.acquire()
            log.append((engine.now, name, "start"))
            yield engine.timeout(1.0)
            log.append((engine.now, name, "end"))
            resource.release()

        engine.process(worker("a"))
        engine.process(worker("b"))
        engine.run()
        assert log == [
            (0.0, "a", "start"),
            (1.0, "a", "end"),
            (1.0, "b", "start"),
            (2.0, "b", "end"),
        ]

    def test_capacity_two_overlaps(self):
        engine = Engine()
        resource = engine.resource(2)
        ends = []

        def worker():
            yield resource.acquire()
            yield engine.timeout(1.0)
            resource.release()
            ends.append(engine.now)

        for _ in range(4):
            engine.process(worker())
        engine.run()
        assert ends == [1.0, 1.0, 2.0, 2.0]

    def test_release_without_acquire_rejected(self):
        engine = Engine()
        resource = engine.resource(1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_fifo_queue_order(self):
        engine = Engine()
        resource = engine.resource(1)
        order = []

        def worker(name):
            yield resource.acquire()
            order.append(name)
            yield engine.timeout(0.5)
            resource.release()

        for name in ("first", "second", "third"):
            engine.process(worker(name))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_in_use_and_queued_counters(self):
        engine = Engine()
        resource = engine.resource(1)

        def holder():
            yield resource.acquire()
            yield engine.timeout(2.0)
            resource.release()

        def waiter():
            yield engine.timeout(1.0)
            yield resource.acquire()
            resource.release()

        engine.process(holder())
        engine.process(waiter())
        engine.run(until=1.5)
        assert resource.in_use == 1
        assert resource.queued == 1
        engine.run()
        assert resource.in_use == 0
        assert resource.queued == 0

    def test_bad_capacity_rejected(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.resource(0)

    def test_fifo_handoff_under_contention(self, hop):
        engine = Engine()
        resource = engine.resource(1)
        order = []

        def worker(name, arrival):
            yield hop(engine, arrival)
            yield resource.acquire()
            order.append((engine.now, name))
            yield hop(engine, 1.0)
            resource.release()

        # all three contend; arrival order is the service order
        for name, arrival in (("a", 0.0), ("b", 0.1), ("c", 0.2)):
            engine.process(worker(name, arrival))
        engine.run()
        assert order == [(0.0, "a"), (1.0, "b"), (2.0, "c")]

    def test_release_without_waiters_frees_capacity(self, hop):
        engine = Engine()
        resource = engine.resource(1)
        log = []

        def proc():
            yield resource.acquire()
            yield hop(engine, 1.0)
            resource.release()
            log.append(resource.in_use)
            # the freed unit is immediately acquirable again
            yield resource.acquire()
            log.append(resource.in_use)
            resource.release()

        engine.process(proc())
        engine.run()
        assert log == [0, 1]
        assert resource.in_use == 0
        assert resource.queued == 0

    def test_interleaved_acquire_release_at_identical_timestamps(self, hop):
        """A release and a fresh acquire in the same instant: the queued
        waiter (FIFO) wins over the newcomer."""
        engine = Engine()
        resource = engine.resource(1)
        order = []

        def holder():
            yield resource.acquire()
            yield hop(engine, 1.0)
            resource.release()  # at t=1.0, exactly when others act

        def queued_waiter():
            yield hop(engine, 0.5)  # queues behind the holder at t=0.5
            yield resource.acquire()
            order.append(("queued", engine.now))
            resource.release()

        def newcomer():
            # tries to acquire in the same instant as the release
            yield hop(engine, 1.0)
            yield resource.acquire()
            order.append(("newcomer", engine.now))
            resource.release()

        engine.process(holder())
        engine.process(queued_waiter())
        engine.process(newcomer())
        engine.run()
        assert [name for name, _ in order] == ["queued", "newcomer"]
        assert all(at == 1.0 for _, at in order)

    def test_zero_duration_hold_cycles_cleanly(self):
        engine = Engine()
        resource = engine.resource(2)
        completions = []

        def churn(tag):
            yield resource.acquire()
            resource.release()  # release in the same instant
            yield resource.acquire()
            completions.append(tag)
            resource.release()

        for tag in range(4):
            engine.process(churn(tag))
        engine.run()
        assert completions == [0, 1, 2, 3]
        assert resource.in_use == 0 and resource.queued == 0

    def test_uncontended_acquire_is_synchronous(self):
        engine = Engine()
        resource = engine.resource(1)
        event = resource.acquire()
        # granted inline: already triggered, no scheduled hop required
        assert event.triggered
        assert resource.in_use == 1
        resource.release()
        assert resource.in_use == 0

    def test_contended_acquire_still_queues(self):
        engine = Engine()
        resource = engine.resource(1)
        first = resource.acquire()
        second = resource.acquire()
        assert first.triggered
        assert not second.triggered
        assert resource.queued == 1
        resource.release()
        engine.run()
        assert second.triggered
        assert resource.in_use == 1  # handed over, still held


def test_yielding_non_event_raises():
    engine = Engine()

    def proc():
        yield "1.0"  # neither an Event nor a float/int delay

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_yielding_plain_delay_advances_clock():
    """The fast path: ``yield delay`` behaves like ``yield timeout(delay)``."""
    engine = Engine()
    seen = []

    def proc():
        yield 1.5
        seen.append(engine.now)
        yield 2
        seen.append(engine.now)
        yield 0.0  # a zero-length hop is legal
        seen.append(engine.now)

    engine.process(proc())
    engine.run()
    assert seen == [1.5, 3.5, 3.5]


def test_yielding_numpy_scalar_delay_works():
    """np.float64 leaking out of array math must behave like a float."""
    import numpy as np

    engine = Engine()
    seen = []

    def proc():
        yield np.float64(2.5)
        seen.append(engine.now)

    engine.process(proc())
    engine.run()
    assert seen == [2.5]


def test_yielding_negative_delay_raises():
    engine = Engine()

    def proc():
        yield -0.1

    engine.process(proc())
    with pytest.raises(SimulationError):
        engine.run()


def test_plain_delay_orders_like_timeout():
    """A float yield takes the same sequence slot as an explicit Timeout."""
    engine = Engine()
    order = []

    def via_timeout(tag):
        yield engine.timeout(1.0)
        order.append(tag)

    def via_float(tag):
        yield 1.0
        order.append(tag)

    engine.process(via_timeout("a"))
    engine.process(via_float("b"))
    engine.process(via_timeout("c"))
    engine.run()
    assert order == ["a", "b", "c"]


class TestRunUntilBoundary:
    """Pinned ``run(until=...)`` boundary semantics (see the method doc),
    on every scheduling path of a timed resumption."""

    def test_event_exactly_at_until_is_processed(self, hop):
        engine = Engine()
        seen = []

        def proc():
            yield hop(engine, 4.0)
            seen.append(engine.now)
            yield hop(engine, 0.0)  # a same-instant hop at the cutoff
            seen.append(engine.now)
            yield hop(engine, 1.0)
            seen.append(engine.now)

        engine.process(proc())
        final = engine.run(until=4.0)
        # inclusive cutoff: the t=4.0 resumptions ran, the t=5.0 one did not
        assert seen == [4.0, 4.0]
        assert final == 4.0
        assert engine.run() == 5.0
        assert seen == [4.0, 4.0, 5.0]

    def test_drained_queue_advances_clock_to_until(self, hop):
        engine = Engine()

        def proc():
            yield hop(engine, 1.0)

        engine.process(proc())
        # the queue drains at t=1.0; nothing can occur in (1.0, 7.5], so
        # the clock reads exactly `until` -- consistent with the
        # early-stop branch.
        assert engine.run(until=7.5) == 7.5
        assert engine.now == 7.5

    def test_until_then_resume_never_drops_events(self, hop):
        engine = Engine()
        log = []

        def worker(name, delay):
            yield hop(engine, delay)
            log.append((engine.now, name))

        engine.process(worker("a", 1.0))
        engine.process(worker("b", 2.0))
        engine.process(worker("c", 2.0))
        engine.run(until=2.0)
        assert log == [(1.0, "a"), (2.0, "b"), (2.0, "c")]
        engine.run()
        assert log == [(1.0, "a"), (2.0, "b"), (2.0, "c")]

    @pytest.mark.parametrize("until", [2.0, float("nan")])
    def test_until_in_the_past_or_nan_rejected(self, hop, until):
        engine = Engine()

        def proc():
            yield hop(engine, 5.0)
            yield hop(engine, 5.0)

        engine.process(proc())
        assert engine.run(until=5.0) == 5.0
        with pytest.raises(SimulationError, match="in the past"):
            engine.run(until=until)
        # the clock never moved backwards, and nothing was lost
        assert engine.now == 5.0
        assert engine.run(until=5.0) == 5.0
        assert engine.run() == 10.0


class TestDelayPaths:
    """Every scheduling path resumes at ``now + delay``, rejects a
    negative delay, and takes the same sequence slot as a plain float --
    whichever queue (heap or now-queue) its entry waits in."""

    def test_resumes_at_now_plus_delay(self, hop):
        engine = Engine()
        seen = []

        def proc():
            yield hop(engine, 2.5)
            seen.append(engine.now)
            yield hop(engine, 0.0)  # a zero-length hop is legal
            seen.append(engine.now)
            yield hop(engine, 1)
            seen.append(engine.now)

        engine.process(proc())
        engine.run()
        assert seen == [2.5, 2.5, 3.5]

    def test_negative_delay_raises(self, hop):
        engine = Engine()

        def proc():
            yield hop(engine, 3.0)
            yield hop(engine, -2.0)

        engine.process(proc())
        with pytest.raises(SimulationError, match="negative"):
            engine.run()
        # nothing was scheduled into the past
        assert engine.now == 3.0
        assert engine.idle()

    @pytest.mark.parametrize("delay", [0.0, 1.0])
    def test_orders_like_a_plain_float(self, hop, delay):
        """Interleaved with plain-float hops to the same instant, each
        path runs in its sequence slot: at delay 0 the now-queue entries
        (``Timeout``, numpy) and the heap entries (float) still dispatch
        in scheduling order."""
        engine = Engine()
        order = []

        def via_hop(tag):
            yield hop(engine, delay)
            order.append(tag)

        def via_float(tag):
            yield delay
            order.append(tag)

        engine.process(via_hop("a"))
        engine.process(via_float("b"))
        engine.process(via_hop("c"))
        engine.process(via_float("d"))
        engine.run()
        assert order == ["a", "b", "c", "d"]
        assert engine.now == delay


class TestEventOrdering:
    """Where the now-queue and the heap meet: the merge in :meth:`Engine.run`
    dispatches by ``(time, sequence)``, whichever queue an entry waits in."""

    def test_older_timeout_runs_before_a_same_instant_succeed(self):
        """Two timeouts land on t=1.0; the first one's callback succeeds an
        event, which queues behind the second timeout's older sequence."""
        engine = Engine()
        order = []
        fired = engine.event()
        fired.add_callback(lambda _: order.append("succeeded"))
        first = engine.timeout(1.0)
        second = engine.timeout(1.0)
        first.add_callback(lambda _: (order.append("first"), fired.succeed()))
        second.add_callback(lambda _: order.append("second"))
        engine.run()
        assert order == ["first", "second", "succeeded"]

    def test_zero_delay_yield_runs_after_an_older_queued_event(self):
        """``yield 0.0`` takes the heap at ``now``; an event succeeded
        before it holds the older sequence and runs first."""
        engine = Engine()
        order = []
        queued = engine.event()
        queued.add_callback(lambda _: order.append("queued"))

        def proc():
            queued.succeed()
            yield 0.0
            order.append("resumed")

        engine.process(proc())
        engine.run()
        assert order == ["queued", "resumed"]

    def test_not_idle_while_either_queue_holds_an_event(self):
        engine = Engine()
        assert engine.idle()
        engine.event().succeed()  # the now-queue alone
        assert not engine.idle()
        engine.run()
        assert engine.idle()
        engine.timeout(1.0)  # the heap alone
        assert not engine.idle()
        engine.run()
        assert engine.idle()
