"""Deterministic same-timestamp ordering.

The simulation's byte-identity guarantees bottom out here: events that
share a ``(time, priority)`` must fire in scheduling order (FIFO via the
unique sequence number), and the engine's run loop must keep that order
when callbacks schedule, cancel, or stop work at the current instant.
"""

from __future__ import annotations

from repro.sim.engine import Engine
from repro.sim.event_queue import EventQueue


def _recorder(log, label):
    def _cb(event):
        log.append(label)

    return _cb


# ----------------------------------------------------------------------
# Queue-level FIFO tie-break
# ----------------------------------------------------------------------
def test_same_time_same_priority_fires_in_schedule_order():
    queue = EventQueue()
    log: list[str] = []
    for i in range(10):
        queue.schedule(100, _recorder(log, f"e{i}"), 0)
    while (event := queue.pop()) is not None:
        event.callback(event)
    assert log == [f"e{i}" for i in range(10)]


def test_priority_breaks_ties_before_sequence():
    queue = EventQueue()
    queue.schedule(100, lambda e: None, 5, None, "late")
    queue.schedule(100, lambda e: None, 0, None, "early")
    queue.schedule(100, lambda e: None, 5, None, "late2")
    tags = []
    while (event := queue.pop()) is not None:
        tags.append(event.tag)
    assert tags == ["early", "late", "late2"]


# ----------------------------------------------------------------------
# Engine-level same-instant semantics
# ----------------------------------------------------------------------
def test_callback_scheduling_same_instant_interleaves():
    """A callback schedules same-instant work that sorts before the
    remaining same-instant event: it fires first."""
    engine = Engine(seed=0)
    log: list[str] = []

    def first(event):
        log.append("first")
        # priority 1 sorts before the pending priority-2 event.
        engine.at(100, _recorder(log, "injected"), priority=1)

    engine.at(100, first, priority=0)
    engine.at(100, _recorder(log, "second"), priority=2)
    engine.run_until(1000)
    assert log == ["first", "injected", "second"]


def test_callback_scheduling_later_same_instant_does_not_interleave():
    """Same-instant work that sorts *after* the pending events stays after."""
    engine = Engine(seed=0)
    log: list[str] = []

    def first(event):
        log.append("first")
        engine.at(100, _recorder(log, "appended"), priority=5)

    engine.at(100, first, priority=0)
    engine.at(100, _recorder(log, "second"), priority=2)
    engine.run_until(1000)
    assert log == ["first", "second", "appended"]


def test_mid_instant_cancellation_suppresses_dispatch():
    """An earlier same-instant event cancels a later one: the cancelled
    event never fires."""
    engine = Engine(seed=0)
    log: list[str] = []
    handle_box = {}

    def killer(event):
        log.append("killer")
        handle_box["victim"].cancel()

    engine.at(100, killer, priority=0)
    handle_box["victim"] = engine.at(100, _recorder(log, "victim"), priority=1)
    engine.at(100, _recorder(log, "survivor"), priority=2)
    engine.run_until(1000)
    assert log == ["killer", "survivor"]


def test_stop_mid_instant_leaves_the_rest_pending():
    engine = Engine(seed=0)
    log: list[str] = []

    def stopper(event):
        log.append("stopper")
        engine.stop()

    engine.at(100, stopper, priority=0)
    engine.at(100, _recorder(log, "tail"), priority=1)
    processed = engine.run_until(1000)
    assert processed == 1
    assert log == ["stopper"]
    assert len(engine.queue) == 1  # still pending
    engine.run_until(1000)
    assert log == ["stopper", "tail"]


def test_live_count_stays_consistent():
    engine = Engine(seed=0)
    for t in (10, 10, 10, 20, 20):
        engine.at(t, lambda e: None)
    assert len(engine.queue) == 5
    engine.run_until(10)
    assert len(engine.queue) == 2
    engine.run_until(20)
    assert len(engine.queue) == 0


def test_max_events_bounds_a_same_instant_run():
    engine = Engine(seed=0)
    log: list[str] = []
    for i in range(5):
        engine.at(10, _recorder(log, f"e{i}"))
    engine.run_until(10, max_events=2)
    assert log == ["e0", "e1"]
    engine.run_until(10)
    assert log == [f"e{i}" for i in range(5)]
