"""Heap-based discrete-event simulation engine.

The engine is intentionally small: a clock, a priority queue of events, and
a run loop.  Higher-level entities (cloud instances, workers, parameter
servers, the CM-DARE controller) schedule callbacks on the engine rather
than subclassing it.

Cancelled events are deleted lazily: :meth:`repro.simulation.events.Event.cancel`
flips a flag, pops skip flagged entries, and the engine compacts the heap
once cancelled entries outnumber live ones (beyond a small floor), so heavy
cancellation stays O(log n) amortized instead of growing the heap without
bound.  The engine also exposes a few small hooks used by the training
session's vectorized fast-forward path and the fleet wake-set scheduler:
:meth:`Simulator.peek_next` (what fires next, without firing it),
:meth:`Simulator.claim_sequence` / ``schedule_at(..., sequence=...)``
(pre-allocating tie-breaker sequence numbers so events replayed outside the
heap keep their exact ordering), and event *ownership* tags
(``schedule(..., owner=...)``, so a multi-session driver can map the heap
top to the one session able to make fast-forward progress).
:meth:`Simulator.next_event_time` exposes the heap top's timestamp as a
progress lower bound, which the sharded fleet driver
(:mod:`repro.scenarios.shard`) reports across process boundaries to order
cross-shard random draws deterministically.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.simulation.events import Event
from repro.units import wrap_hour

#: Heap entry: ``(time, sequence, event)``.  Sequence numbers are unique,
#: so tuple comparison never falls through to the event object — every
#: heap operation stays on the C fast path instead of calling the
#: dataclass ``__lt__``.
_QueueEntry = Tuple[float, int, Event]

#: Compaction threshold: the heap is rebuilt when more than this many
#: cancelled events are queued *and* they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 64


class Simulator:
    """A discrete-event simulator with a floating-point clock in seconds.

    The simulator optionally carries an *epoch*: the wall-clock hour-of-day
    (UTC) corresponding to simulation time zero.  The epoch is used by the
    revocation model to reproduce the paper's time-of-day analysis (Fig. 9)
    without introducing real timestamps.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> sim.schedule(5.0, lambda s: fired.append(s.now))
        Event(t=5.000, seq=0, '', pending)
        >>> sim.run()
        >>> fired
        [5.0]
    """

    def __init__(self, start_time: float = 0.0, epoch_hour_utc: float = 0.0):
        if start_time < 0:
            raise SimulationError("start_time must be non-negative")
        self._now = float(start_time)
        self._queue: List[_QueueEntry] = []
        self._sequence = 0
        self._running = False
        self._cancelled_in_queue = 0
        self.epoch_hour_utc = wrap_hour(epoch_hour_utc)

    # ------------------------------------------------------------------
    # Clock.
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def hour_of_day_utc(self, at: Optional[float] = None) -> float:
        """Return the UTC hour-of-day (``[0, 24)``) at simulation time ``at``.

        Args:
            at: Simulation time in seconds; defaults to the current time.
                Times before the epoch (negative values) and arbitrarily
                large times both wrap correctly.
        """
        time = self._now if at is None else at
        return wrap_hour(self.epoch_hour_utc + time / 3600.0)

    # ------------------------------------------------------------------
    # Scheduling.
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[["Simulator"], None],
                 label: str = "", owner: Optional[Any] = None) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now.

        Args:
            delay: Non-negative delay in seconds.
            callback: Invoked as ``callback(simulator)``.
            label: Optional label for traces.
            owner: Optional ownership tag (see :class:`Event`).

        Returns:
            The scheduled :class:`Event`, which may be cancelled.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label=label,
                                owner=owner)

    def schedule_at(self, time: float, callback: Callable[["Simulator"], None],
                    label: str = "", sequence: Optional[int] = None,
                    owner: Optional[Any] = None) -> Event:
        """Schedule ``callback`` at an absolute simulation time.

        Args:
            time: Absolute simulation time; must not lie in the past.
            callback: Invoked as ``callback(simulator)``.
            label: Optional label for traces.
            sequence: Internal — a tie-breaker previously obtained from
                :meth:`claim_sequence`.  Used by fast-forward replay to
                reinsert events with their original ordering; omit it for
                normal scheduling.
            owner: Optional ownership tag (see :class:`Event`).
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}")
        if sequence is None:
            sequence = self._sequence
            self._sequence += 1
        elif not 0 <= sequence < self._sequence:
            raise SimulationError(
                f"sequence {sequence} was never claimed (next is {self._sequence})")
        event = Event(time=float(time), sequence=sequence, callback=callback,
                      label=label, owner=owner)
        event._owner = self
        event._in_queue = True
        heapq.heappush(self._queue, (event.time, sequence, event))
        return event

    def claim_sequence(self) -> int:
        """Reserve and return the next event sequence number.

        The fast-forward path simulates chunk completions without putting
        them through the heap; claiming sequence numbers as it goes keeps
        the (time, sequence) ordering of any event it later materializes
        with ``schedule_at(..., sequence=...)`` identical to what plain
        event-by-event execution would have produced.
        """
        sequence = self._sequence
        self._sequence += 1
        return sequence

    def pending_events(self) -> int:
        """Number of scheduled (non-cancelled) events still in the queue."""
        return len(self._queue) - self._cancelled_in_queue

    def peek_next(self) -> Optional[Event]:
        """The next event that would fire, without firing it (or ``None``)."""
        queue = self._queue
        while queue:
            event = queue[0][2]
            if not event.cancelled:
                return event
            heapq.heappop(queue)
            event._in_queue = False
            self._cancelled_in_queue -= 1
        return None

    def next_event_time(self) -> Optional[float]:
        """When the next pending event fires, or ``None`` on an empty heap.

        This is the simulator's *progress lower bound*: every callback it
        will ever run — and therefore every random draw those callbacks
        make — happens at or after this time.  The sharded fleet driver
        (:mod:`repro.scenarios.shard`) reports it to the parent process so
        cross-shard draws can be granted in deterministic time order
        without waiting for the slowest shard to actually reach them.
        """
        event = self.peek_next()
        return None if event is None else event.time

    def pop_next(self) -> Optional[Event]:
        """Remove and return the next pending event *without firing it*.

        The fast-forward replay lifts its own due chunk events out of the
        heap with this: a true removal leaves no cancelled corpse behind,
        so short replay spans (common in fleets, where many sessions
        interleave on one heap) do not churn the heap with dead entries.
        The caller owns the event afterwards and is responsible for either
        executing its effect or re-inserting it via
        ``schedule_at(..., sequence=event.sequence)``.
        """
        queue = self._queue
        while queue:
            event = heapq.heappop(queue)[2]
            event._in_queue = False
            if not event.cancelled:
                return event
            self._cancelled_in_queue -= 1
        return None

    # ------------------------------------------------------------------
    # Run loop.
    # ------------------------------------------------------------------
    def step(self) -> Optional[Event]:
        """Fire the next pending event and return it, or ``None`` if empty."""
        while self._queue:
            time, _sequence, event = heapq.heappop(self._queue)
            event._in_queue = False
            if event.cancelled:
                self._cancelled_in_queue -= 1
                continue
            if time < self._now:
                raise SimulationError("event queue produced an event in the past")
            self._now = time
            if event.callback is not None:
                event.callback(self)
            return event
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue empties or a bound is hit.

        Args:
            until: If given, stop once the next event lies strictly beyond
                this time; the clock is advanced to ``until``.
            max_events: If given, process at most this many events (a guard
                against accidental infinite event chains).

        Returns:
            The number of events processed.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run call)")
        self._running = True
        processed = 0
        try:
            while self._queue:
                if max_events is not None and processed >= max_events:
                    break
                next_event = self.peek_next()
                if next_event is None:
                    break
                if until is not None and next_event.time > until:
                    break
                fired = self.step()
                if fired is not None:
                    processed += 1
            if until is not None and until > self._now:
                self._now = float(until)
        finally:
            self._running = False
        return processed

    def advance_to(self, time: float) -> None:
        """Advance the clock to ``time`` without firing events.

        Raises:
            SimulationError: If a pending event exists before ``time`` or the
                target time is in the past.
        """
        if time < self._now:
            raise SimulationError("cannot move the clock backwards")
        next_event = self.peek_next()
        if next_event is not None and next_event.time < time:
            raise SimulationError(
                "cannot advance past a pending event; call run(until=...) instead")
        self._now = float(time)

    # ------------------------------------------------------------------
    # Lazy-deletion bookkeeping.
    # ------------------------------------------------------------------
    def _note_cancelled(self) -> None:
        """Called by :meth:`Event.cancel` for an event still in the heap."""
        self._cancelled_in_queue += 1
        if (self._cancelled_in_queue > _COMPACT_MIN_CANCELLED
                and self._cancelled_in_queue * 2 > len(self._queue)):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the live ones."""
        live: List[_QueueEntry] = []
        for entry in self._queue:
            if entry[2].cancelled:
                entry[2]._in_queue = False
            else:
                live.append(entry)
        heapq.heapify(live)
        self._queue = live
        self._cancelled_in_queue = 0
