"""The discrete-event simulation core.

:class:`Simulator` keeps a binary heap of ``(time, seq, handle)`` tuples
(the layout is documented in :mod:`repro.sim.events`), so :mod:`heapq`
compares entries in C and the :class:`~repro.sim.events.EventHandle` itself
carries no ordering.  The sequence number makes execution order
deterministic for simultaneous events: events scheduled earlier fire
earlier.  That determinism is what makes the paper's "reduce disk space
until transactions are killed" search reproducible.

Usage::

    sim = Simulator()
    sim.after(1.5, handler, arg1, arg2)
    sim.run_until(500.0)
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SchedulingError
from repro.sim.events import EventHandle

#: Module-level binding: one global lookup instead of two attribute
#: lookups on every schedule call.
_heappush = heapq.heappush


class Simulator:
    """A deterministic discrete-event scheduler.

    The clock only moves when :meth:`run_until`, :meth:`run` or :meth:`step`
    execute events; there is no wall-clock coupling.  All times are seconds
    of simulated time as in the paper.
    """

    __slots__ = ("now", "_heap", "_seq", "_events_executed", "_running")

    def __init__(self, start_time: float = 0.0):
        #: Current simulated time in seconds.  A plain attribute, not a
        #: property: the managers read it several times per event.  Only
        #: the engine assigns it.
        self.now = float(start_time)
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_executed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_executed(self) -> int:
        """Total number of events executed so far (for diagnostics)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of queued events, including cancelled-but-not-popped ones."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def snapshot(self) -> dict:
        """Engine state as a JSON-ready dict (run manifests / diagnostics).

        Computed on demand so the event loop itself carries no
        instrumentation cost; heap depth is therefore the *current* depth,
        sampled whenever the snapshot is taken (the periodic sampler can
        turn it into a series).
        """
        return {
            "now": self.now,
            "events_executed": self._events_executed,
            "heap_depth": len(self._heap),
            "next_event_time": self._heap[0][0] if self._heap else None,
        }

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling *at the current time* is allowed (the event runs after all
        already-queued events with the same timestamp); scheduling in the
        past raises :class:`~repro.errors.SchedulingError`.
        """
        if time < self.now:
            raise SchedulingError(
                f"cannot schedule event at t={time!r}; current time is {self.now!r}"
            )
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, handle))
        return handle

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        # Inlined rather than delegating to :meth:`at`: this is the hottest
        # scheduling call (one per executed event in steady state), and a
        # non-negative delay cannot land in the past, so the extra frame
        # and the past-time check would both be pure overhead.
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        time = self.now + delay
        seq = self._seq
        handle = EventHandle(time, seq, callback, args)
        self._seq = seq + 1
        _heappush(self._heap, (time, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next live event.  Returns ``False`` if none exists."""
        self._drop_cancelled()
        if not self._heap:
            return False
        self.now, _, handle = heapq.heappop(self._heap)
        handle._mark_fired()
        self._events_executed += 1
        handle.callback(*handle.args)
        return True

    def run_until(self, end_time: float) -> None:
        """Execute all events with ``time <= end_time``; clock ends at ``end_time``.

        Events scheduled during execution are honoured if they fall inside
        the window.  After the call, :attr:`now` equals ``end_time`` even if
        the queue drained earlier, mirroring a fixed-duration experiment.
        """
        if end_time < self.now:
            raise SchedulingError(
                f"run_until({end_time!r}) is in the past (now={self.now!r})"
            )
        if self._running:
            raise SchedulingError("simulator is not reentrant")
        self._running = True
        # This loop executes hundreds of events per simulated second over
        # runs of hundreds of seconds: pop eagerly (pushing back the one
        # event that overshoots the window, instead of a peek-compare-pop
        # on every iteration), bind the heap functions once, and count
        # executions locally — flushed in ``finally`` so the total stays
        # right even when a callback raises (e.g. LogFullError).
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        cancelled_state = EventHandle._CANCELLED
        try:
            while heap:
                entry = pop(heap)
                time, _, handle = entry
                if time > end_time:
                    heapq.heappush(heap, entry)
                    break
                if handle._state == cancelled_state:
                    continue
                self.now = time
                handle._state = EventHandle._FIRED
                executed += 1
                handle.callback(*handle.args)
            self.now = end_time
        finally:
            self._events_executed += executed
            self._running = False

    def run(self) -> None:
        """Execute events until the queue is empty."""
        if self._running:
            raise SchedulingError("simulator is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        cancelled_state = EventHandle._CANCELLED
        try:
            while heap:
                time, _, handle = pop(heap)
                if handle._state == cancelled_state:
                    continue
                self.now = time
                handle._state = EventHandle._FIRED
                executed += 1
                handle.callback(*handle.args)
        finally:
            self._events_executed += executed
            self._running = False

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self.now:.6f} pending={len(self._heap)} "
            f"executed={self._events_executed}>"
        )
