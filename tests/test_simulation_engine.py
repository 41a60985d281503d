"""Tests for the discrete-event simulation engine."""

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_can_start_elsewhere():
    assert Simulator(start_time=5.0).now == 5.0


def test_negative_start_time_rejected():
    with pytest.raises(SimulationError):
        Simulator(start_time=-1.0)


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(3.0, lambda s: fired.append("late"))
    sim.schedule(1.0, lambda s: fired.append("early"))
    sim.schedule(2.0, lambda s: fired.append("middle"))
    sim.run()
    assert fired == ["early", "middle", "late"]


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for label in ("first", "second", "third"):
        sim.schedule(1.0, lambda s, label=label: fired.append(label))
    sim.run()
    assert fired == ["first", "second", "third"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(4.5, lambda s: seen.append(s.now))
    sim.run()
    assert seen == [4.5]
    assert sim.now == 4.5


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda s: None)
    sim.schedule(1.0, lambda s: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda s: None)


def test_cancelled_events_do_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda s: fired.append("cancelled"))
    sim.schedule(2.0, lambda s: fired.append("kept"))
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_events_scheduled_from_callbacks_run():
    sim = Simulator()
    fired = []

    def chain(s):
        fired.append(s.now)
        if len(fired) < 3:
            s.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert fired == [1.0, 2.0, 3.0]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda s: fired.append(1))
    sim.schedule(10.0, lambda s: fired.append(10))
    processed = sim.run(until=5.0)
    assert processed == 1
    assert fired == [1]
    assert sim.now == 5.0
    sim.run()
    assert fired == [1, 10]


def test_run_max_events_bounds_processing():
    sim = Simulator()
    for i in range(10):
        sim.schedule(float(i + 1), lambda s: None)
    assert sim.run(max_events=4) == 4
    assert sim.pending_events() == 6


def test_step_returns_none_when_empty():
    assert Simulator().step() is None


def test_advance_to_moves_clock_without_events():
    sim = Simulator()
    sim.advance_to(12.0)
    assert sim.now == 12.0
    with pytest.raises(SimulationError):
        sim.advance_to(5.0)


def test_advance_to_refuses_to_skip_events():
    sim = Simulator()
    sim.schedule(2.0, lambda s: None)
    with pytest.raises(SimulationError):
        sim.advance_to(3.0)


def test_hour_of_day_wraps_around():
    sim = Simulator(epoch_hour_utc=23.0)
    assert sim.hour_of_day_utc() == pytest.approx(23.0)
    assert sim.hour_of_day_utc(at=2 * 3600.0) == pytest.approx(1.0)


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    keep = sim.schedule(1.0, lambda s: None)
    cancel = sim.schedule(2.0, lambda s: None)
    cancel.cancel()
    assert sim.pending_events() == 1
    assert keep.time == 1.0


# ---------------------------------------------------------------------------
# Lazy-deletion stress: schedule/cancel interleavings.
# ---------------------------------------------------------------------------
def test_heap_schedule_cancel_interleaving_stress():
    """Randomized schedule/cancel interleavings (including cancels and
    re-schedules from inside callbacks) must fire exactly the surviving
    events, in (time, sequence) order, with lazy deletion invisible."""
    import random

    rng = random.Random(0xC0FFEE)
    sim = Simulator()
    fired = []
    expected_alive = {}  # sequence -> fire time
    handles = {}

    def make_callback(seq):
        def callback(s):
            fired.append(seq)
            # Occasionally mutate the future from inside a callback.
            roll = rng.random()
            if roll < 0.2 and expected_alive:
                later = [other for other, t in expected_alive.items()
                         if (t, other) > (s.now, seq)]
                if later:
                    victim = rng.choice(sorted(later))
                    handles[victim].cancel()
                    del expected_alive[victim]
            elif roll < 0.4:
                event = s.schedule(rng.uniform(0.0, 5.0), make_callback(None))
                handles[event.sequence] = event
                expected_alive[event.sequence] = event.time
                event.callback = make_callback(event.sequence)
        return callback

    for _ in range(400):
        event = sim.schedule(rng.uniform(0.0, 100.0), make_callback(None))
        event.callback = make_callback(event.sequence)
        handles[event.sequence] = event
        expected_alive[event.sequence] = event.time
        if rng.random() < 0.5 and expected_alive:
            victim = rng.choice(sorted(expected_alive))
            handles[victim].cancel()
            handles[victim].cancel()  # double-cancel must be harmless
            del expected_alive[victim]

    snapshot = dict(expected_alive)
    assert sim.pending_events() == len(snapshot)
    sim.run()
    # Everything alive at run start fired (callbacks may add/cancel more,
    # which expected_alive tracked as the run went).
    fired_set = set(fired)
    for seq in snapshot:
        assert seq in fired_set or seq not in expected_alive
    # Fired order is the (time, sequence) order of the surviving events.
    fire_keys = [(handles[seq].time, seq) for seq in fired]
    assert fire_keys == sorted(fire_keys)
    assert sim.pending_events() == 0


def test_heavy_cancellation_compacts_heap():
    """Cancelled events must not linger: after mass cancellation the heap
    compacts instead of dragging corpses until they are popped."""
    sim = Simulator()
    events = [sim.schedule(float(i + 1), lambda s: None) for i in range(1000)]
    for event in events[100:]:
        event.cancel()
    assert sim.pending_events() == 100
    # Lazy deletion with compaction: far fewer than 1000 entries remain.
    assert len(sim._queue) < 300
    fired = sim.run()
    assert fired == 100


def test_cancel_after_fire_keeps_accounting_consistent():
    sim = Simulator()
    first = sim.schedule(1.0, lambda s: None)
    second = sim.schedule(2.0, lambda s: None)
    sim.run()
    first.cancel()   # cancelling an already-fired event is a no-op
    second.cancel()
    assert sim.pending_events() == 0


# ---------------------------------------------------------------------------
# Fleet-scale hooks (PR 4): ownership tags, pop_next.
# ---------------------------------------------------------------------------
def test_event_ownership_tags():
    sim = Simulator()
    owner_a, owner_b = object(), object()
    event = sim.schedule(1.0, lambda s: None, owner=owner_a)
    assert event.owner is owner_a
    sim.schedule(2.0, lambda s: None, owner=owner_a)
    sim.schedule(3.0, lambda s: None, owner=owner_b)
    sim.schedule(4.0, lambda s: None)  # untagged
    assert sim.peek_next().owner is owner_a


def test_pop_next_removes_without_firing():
    sim = Simulator()
    fired = []
    first = sim.schedule(1.0, lambda s: fired.append("first"))
    sim.schedule(2.0, lambda s: fired.append("second"))
    popped = sim.pop_next()
    assert popped is first and fired == []
    assert sim.pending_events() == 1
    # The popped event can be re-inserted with its original sequence and
    # fires in its original position.
    sim.schedule_at(first.time, first.callback, sequence=first.sequence)
    sim.run()
    assert fired == ["first", "second"]


def test_pop_next_skips_cancelled_corpses():
    sim = Simulator()
    doomed = sim.schedule(0.5, lambda s: None)
    survivor = sim.schedule(1.0, lambda s: None)
    doomed.cancel()
    assert sim.pop_next() is survivor
    assert sim.pop_next() is None
