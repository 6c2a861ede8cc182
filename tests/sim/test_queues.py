"""The event queue: ordering contract, pooling, cancellation, compaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim.engine import EventQueue


@pytest.fixture
def queue():
    return EventQueue()


class TestQueueContract:
    def test_orders_by_time(self, queue):
        queue.push(3e-3, lambda: None, label="late")
        queue.push(1e-3, lambda: None, label="early")
        queue.push(2e-3, lambda: None, label="middle")
        assert queue.peek_time() == 1e-3
        assert [queue.pop().label for _ in range(3)] == ["early", "middle", "late"]

    def test_popped_event_carries_its_callback(self, queue):
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.pop().callback()
        queue.pop().callback()
        assert fired == ["a", "b"]

    def test_ties_break_by_insertion_order(self, queue):
        labels = [f"tie{i}" for i in range(8)]
        for label in labels:
            queue.push(5e-4, lambda: None, label=label)
        assert [queue.pop().label for _ in range(len(labels))] == labels

    def test_push_before_current_time_raises_with_label(self, queue):
        queue.push(1e-3, lambda: None)
        queue.pop()
        with pytest.raises(SimulationError, match=r"autoscale:control.*causality"):
            queue.push(5e-4, lambda: None, label="autoscale:control")

    def test_negative_time_rejected(self, queue):
        with pytest.raises(SimulationError, match="non-negative"):
            queue.push(-1e-6, lambda: None)

    def test_pop_empty_raises_and_take_returns_none(self, queue):
        assert queue.take() is None
        with pytest.raises(SimulationError, match="empty"):
            queue.pop()

    def test_peek_empty_returns_none(self, queue):
        assert queue.peek_time() is None

    def test_push_at_exactly_the_floor_is_allowed(self, queue):
        queue.push(1e-3, lambda: None)
        queue.pop()
        event = queue.push(1e-3, lambda: None, label="same-time")
        assert queue.pop() is event


class TestEventPooling:
    def test_fired_events_are_recycled(self, queue):
        first = queue.push(1e-3, lambda: None)
        queue.pop()
        queue.release(first)
        second = queue.push(2e-3, lambda: None)
        assert second is first  # same object, re-initialized
        assert second.time == 2e-3
        assert not second.cancelled

    def test_release_drops_the_callback_reference(self, queue):
        event = queue.push(1e-3, lambda: None)
        queue.pop()
        queue.release(event)
        assert event.callback is None


class TestCancellation:
    def test_cancel_drops_callback_immediately(self, queue):
        closure = []
        event = queue.push(1e-3, lambda: closure.append(1))
        event.cancel()
        assert event.callback is None
        assert event.cancelled

    def test_cancel_is_idempotent(self, queue):
        event = queue.push(1e-3, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.pop() is event

    def test_mass_cancellation_compacts_storage(self, queue):
        events = [queue.push(i * 1e-4, lambda: None, label=f"e{i}") for i in range(20)]
        for event in events[:16]:
            event.cancel()
        # Once the dead fraction passed one half, compaction dropped the
        # cancelled entries from storage instead of waiting for their times.
        assert len(queue) < 20
        live = []
        while len(queue):
            popped = queue.pop()
            if not popped.cancelled:
                live.append(popped.label)
        assert live == ["e16", "e17", "e18", "e19"]

    def test_small_queues_drain_cancels_lazily(self, queue):
        live = queue.push(2e-3, lambda: None, label="live")
        queue.push(1e-3, lambda: None, label="dead").cancel()
        # Below the compaction threshold the cancelled entry stays queued...
        assert len(queue) == 2
        popped = queue.pop()
        assert popped.cancelled and popped.label == "dead"
        assert queue.pop() is live


# ---------------------------------------------------------------------------
# Property-based: any push/pop/cancel schedule pops in (time, sequence) order.
# ---------------------------------------------------------------------------

#: Times drawn from a tiny grid so ties are common, plus booleans choosing
#: push vs pop and whether to cancel a pending event.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop", "cancel"]),
        st.integers(min_value=0, max_value=9),
    ),
    min_size=1,
    max_size=120,
)


def _drive(queue: EventQueue, ops) -> list:
    """Apply an op sequence; return the observable trace."""
    trace = []
    pending = []
    floor = 0.0
    for op, value in ops:
        if op == "push":
            time = floor + value * 1e-4
            event = queue.push(time, lambda: None, label=f"t{time:.6f}")
            pending.append(event)
            trace.append(("push", time))
        elif op == "pop" and len(queue):
            event = queue.pop()
            floor = event.time
            if event in pending:
                pending.remove(event)
            trace.append(("pop", event.time, event.sequence, event.cancelled))
        elif op == "cancel" and pending:
            event = pending.pop(value % len(pending))
            event.cancel()
            trace.append(("cancel", event.time, event.sequence))
    while len(queue):
        event = queue.pop()
        trace.append(("pop", event.time, event.sequence, event.cancelled))
    return trace


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_schedules_pop_in_order_and_keep_every_live_event(ops):
    trace = _drive(EventQueue(), ops)
    popped = [(entry[1], entry[2]) for entry in trace if entry[0] == "pop"]
    assert popped == sorted(popped)
    pushed = sum(1 for entry in trace if entry[0] == "push")
    cancelled = sum(1 for entry in trace if entry[0] == "cancel")
    live = [entry for entry in trace if entry[0] == "pop" and not entry[3]]
    assert len(live) == pushed - cancelled


@settings(max_examples=80, deadline=None)
@given(
    times=st.lists(
        st.floats(min_value=0.0, max_value=1e-2, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=200,
    )
)
def test_bulk_pop_order_is_sorted_with_arbitrary_floats(times):
    queue = EventQueue()
    for time in times:
        queue.push(time, lambda: None)
    order = [(e.time, e.sequence) for e in (queue.pop() for _ in times)]
    assert order == sorted(order)
