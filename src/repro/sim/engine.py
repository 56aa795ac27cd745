"""The discrete-event simulation engine (event loop)."""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.event_queue import Event, EventCallback, EventHandle, EventQueue
from repro.sim.rng import RngStreams
from repro.sim.trace import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.observer import Observer
    from repro.perf.counters import PerfCounters


class Engine:
    """Drives a simulation by popping events and advancing the clock.

    The engine is deliberately dumb: all semantics live in the components
    that schedule events (the simulated kernel, ALPS agents, workload
    drivers).  Determinism comes from the stable event ordering plus the
    named, seeded RNG streams in :class:`RngStreams`.

    The run loop is the simulation's innermost hot path.  It pops ready
    events through :meth:`EventQueue.pop_ready` (one heap pass instead of
    a peek/pop pair), advances the clock by direct assignment (heap order
    guarantees monotonicity; events cannot be scheduled in the past), and
    short-circuits the tracer with a single attribute read per event.

    When ``counters`` (a :class:`~repro.perf.counters.PerfCounters`) is
    attached, each ``run_until``/``run_until_idle`` call accounts its
    wall time and event count there — per-call granularity, so the
    per-event path stays instrumentation-free.

    When an ``observer`` (:class:`~repro.obs.observer.Observer`) is
    attached, its perf counters back the engine's run accounting (unless
    an explicit ``counters`` was also given), so one registry export
    carries engine throughput alongside the event log.  The run loop
    itself reads nothing from the observer — observation points live in
    the components (kernel, agent, injector), keeping this path exactly
    as instrumentation-free as the tracer short-circuit.
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        counters: Optional["PerfCounters"] = None,
        observer: Optional["Observer"] = None,
    ) -> None:
        self.clock = Clock()
        self.queue = EventQueue()
        self.rng = RngStreams(seed)
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.observer = observer
        if counters is None and observer is not None and observer.enabled:
            counters = observer.perf
        self.counters = counters
        self._events_processed = 0
        self._stop_requested = False

    # ------------------------------------------------------------------
    # Scheduling API
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time (µs)."""
        return self.clock._now

    @property
    def events_processed(self) -> int:
        """Total number of events dispatched so far.

        Updated when a run call returns (not per event), so a callback
        reading it mid-run sees the value as of the run's start.
        """
        return self._events_processed

    def at(
        self,
        when: int,
        callback: EventCallback,
        *,
        priority: int = 0,
        payload: Any = None,
        tag: str = "",
    ) -> EventHandle:
        """Schedule an event at absolute virtual time ``when`` (µs)."""
        if when < self.clock._now:
            raise SimulationError(
                f"cannot schedule event in the past: now={self.clock._now} when={when}"
            )
        return self.queue.schedule(when, callback, priority, payload, tag)

    def after(
        self,
        delay: int,
        callback: EventCallback,
        *,
        priority: int = 0,
        payload: Any = None,
        tag: str = "",
    ) -> EventHandle:
        """Schedule an event ``delay`` µs from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(
            self.clock._now + delay,
            callback,
            priority=priority,
            payload=payload,
            tag=tag,
        )

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run_until(self, until: int, *, max_events: Optional[int] = None) -> int:
        """Run until virtual time ``until`` (inclusive of events at it).

        Returns the number of events processed by this call.  The clock is
        left at ``until`` even if the queue drained earlier, so callers can
        take end-of-run measurements at a well-defined instant.
        """
        timer = _start_timer(self.counters)
        processed = 0
        self._stop_requested = False
        clock = self.clock
        tracer = self.tracer
        pop_ready = self.queue.pop_ready
        # Two loop bodies so the common unbounded run pays no per-event
        # max_events check.
        if max_events is None:
            while not self._stop_requested:
                event = pop_ready(until)
                if event is None:
                    break
                # Direct assignment: pops are time-ordered and events
                # cannot be scheduled before `now`, so monotonicity holds.
                clock._now = event.time
                if tracer.enabled:
                    tracer.record(event.time, "event", event.tag)
                event.callback(event)
                processed += 1
        else:
            while not self._stop_requested and processed < max_events:
                event = pop_ready(until)
                if event is None:
                    break
                clock._now = event.time
                if tracer.enabled:
                    tracer.record(event.time, "event", event.tag)
                event.callback(event)
                processed += 1
        self._events_processed += processed
        if not self._stop_requested and clock._now < until:
            clock.advance_to(until)
        _stop_timer(self.counters, timer, "engine.run_until", processed)
        return processed

    def run_until_idle(self, *, max_events: int = 10_000_000) -> int:
        """Run until the event queue is empty (bounded by ``max_events``)."""
        timer = _start_timer(self.counters)
        processed = 0
        self._stop_requested = False
        clock = self.clock
        tracer = self.tracer
        pop = self.queue.pop
        while not self._stop_requested:
            event = pop()
            if event is None:
                break
            if processed >= max_events:
                self._events_processed += processed
                raise SimulationError(
                    f"run_until_idle exceeded {max_events} events; "
                    "likely a self-rescheduling event loop"
                )
            clock._now = event.time
            if tracer.enabled:
                tracer.record(event.time, "event", event.tag)
            event.callback(event)
            processed += 1
        self._events_processed += processed
        _stop_timer(self.counters, timer, "engine.run_until_idle", processed)
        return processed


def _start_timer(counters: Optional["PerfCounters"]) -> Optional[float]:
    if counters is None:
        return None
    import time

    return time.perf_counter()


def _stop_timer(
    counters: Optional["PerfCounters"],
    started: Optional[float],
    name: str,
    events: int,
) -> None:
    if counters is None or started is None:
        return
    import time

    counters.add_time(name, time.perf_counter() - started)
    counters.incr("engine.events", events)
