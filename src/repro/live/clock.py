"""Wall-clock scheduler implementing the ``Simulator`` interface.

The log managers, flush scheduler and samplers only ever touch the engine
through four entry points — ``now``, ``at``, ``after`` and the introspection
surface — so a scheduler that maps those onto an asyncio event loop lets the
exact same manager code serve real requests.  The ordering contract is
preserved: the heap holds the same ``(time, seq, handle)`` entries as the
discrete-event engine (see :mod:`repro.sim.events`), so events fire in
``(time, seq)`` order and two callbacks scheduled for the same instant run
in scheduling order (FIFO), exactly as in the simulator.

Two deliberate divergences from :class:`repro.sim.engine.Simulator`, both
forced by physics:

* ``at`` *clamps* past deadlines to "as soon as possible" instead of
  raising.  Under simulated time, scheduling in the past is a logic bug;
  under wall-clock time, ``sim.at(sim.now + x, ...)`` can land microseconds
  in the past simply because time advanced between the read and the call.
  ``after`` still rejects negative delays — those are caller bugs in any
  clock domain.
* ``step`` executes the next *due* event (deadline reached) rather than
  advancing time to the next event: wall-clock time cannot be advanced.
"""

from __future__ import annotations

import asyncio
import heapq
from typing import Any, Callable, Optional

from repro.errors import SchedulingError
from repro.sim.events import EventHandle


class RealTimeScheduler:
    """The ``Simulator`` scheduling interface on an asyncio event loop.

    Time is seconds since construction, measured on the loop's monotonic
    clock.  All scheduling must happen on the loop thread; completions
    arriving from worker threads cross over via :meth:`post`.
    """

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._origin = self._loop.time()
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_executed = 0
        self._timer: Optional[asyncio.TimerHandle] = None
        self._armed_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Introspection (mirrors Simulator)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds of wall-clock time since the scheduler was created."""
        return self._loop.time() - self._origin

    @property
    def events_executed(self) -> int:
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Queued events, including cancelled-but-not-popped ones."""
        return len(self._heap)

    def peek_time(self) -> Optional[float]:
        """Deadline of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def snapshot(self) -> dict:
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
        """Schedule ``callback(*args)`` at absolute scheduler time ``time``.

        Deadlines at or before the current instant run as soon as the loop
        is free, after already-queued events with earlier ``(time, seq)``.
        """
        return self._push(max(time, self.now), callback, args)

    def after(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SchedulingError(f"negative delay {delay!r}")
        return self._push(self.now + delay, callback, args)

    def post(self, callback: Callable[..., Any], *args: Any) -> None:
        """Run ``callback(*args)`` on the loop thread as soon as possible.

        The only thread-safe entry point; storage workers use it to deliver
        write completions into the single-threaded scheduling domain.
        """
        self._loop.call_soon_threadsafe(callback, *args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next *due* event.  Returns ``False`` if none is due."""
        self._drop_cancelled()
        if not self._heap or self._heap[0][0] > self.now:
            return False
        _, _, handle = heapq.heappop(self._heap)
        handle._mark_fired()
        self._events_executed += 1
        handle.callback(*handle.args)
        return True

    def close(self) -> None:
        """Cancel the armed timer and drop all pending events."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
            self._armed_time = None
        for _, _, handle in self._heap:
            handle.cancel()
        self._heap.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _push(self, time: float, callback: Callable[..., Any], args: tuple) -> EventHandle:
        handle = EventHandle(time, self._seq, callback, args)
        heapq.heappush(self._heap, (time, self._seq, handle))
        self._seq += 1
        self._arm()
        return handle

    def _drop_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][2]._state == EventHandle._CANCELLED:
            heapq.heappop(heap)

    def _arm(self) -> None:
        """(Re)arm the loop timer for the earliest pending deadline."""
        self._drop_cancelled()
        if not self._heap:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
                self._armed_time = None
            return
        earliest = self._heap[0][0]
        if self._armed_time is not None and self._armed_time <= earliest:
            return  # the armed timer already covers it
        if self._timer is not None:
            self._timer.cancel()
        self._armed_time = earliest
        self._timer = self._loop.call_at(self._origin + earliest, self._fire)

    def _fire(self) -> None:
        """Timer callback: run every event whose deadline has arrived."""
        self._timer = None
        self._armed_time = None
        heap = self._heap
        cancelled = EventHandle._CANCELLED
        while heap:
            time, _, handle = heap[0]
            if handle._state == cancelled:
                heapq.heappop(heap)
                continue
            if time > self.now:
                break
            heapq.heappop(heap)
            handle._mark_fired()
            self._events_executed += 1
            handle.callback(*handle.args)
        self._arm()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RealTimeScheduler now={self.now:.3f} pending={len(self._heap)} "
            f"executed={self._events_executed}>"
        )
