"""Event handles for the discrete-event engine.

An :class:`EventHandle` is returned by :meth:`repro.sim.engine.Simulator.at`
and :meth:`~repro.sim.engine.Simulator.after`.  It supports O(1) cancellation
(the engine lazily skips cancelled entries when they surface at the top of
the heap) and exposes the scheduled time for introspection in tests.

Heap entry layout, shared by :class:`~repro.sim.engine.Simulator` and
:class:`~repro.live.clock.RealTimeScheduler`: each scheduler's heap holds
``(time, seq, handle)`` tuples.  ``seq`` is unique per scheduler, so tuple
comparison (done in C by :mod:`heapq`) never reaches the handle, and
handles themselves define no ordering.
"""

from __future__ import annotations

from typing import Any, Callable


class EventHandle:
    """A scheduled callback that can be cancelled before it fires.

    Instances are created by the engine; user code only cancels or inspects
    them.  Equality is identity: two handles are the same event only if they
    are the same object.
    """

    __slots__ = ("time", "seq", "callback", "args", "_state")

    _PENDING = 0
    _CANCELLED = 1
    _FIRED = 2

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self._state = EventHandle._PENDING

    def cancel(self) -> bool:
        """Cancel the event.  Returns ``True`` if it was still pending."""
        if self._state == EventHandle._PENDING:
            self._state = EventHandle._CANCELLED
            # Drop references so cancelled events don't pin objects alive
            # while they sink through the heap.
            self.callback = _noop
            self.args = ()
            return True
        return False

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` succeeded before the event fired."""
        return self._state == EventHandle._CANCELLED

    @property
    def fired(self) -> bool:
        """Whether the engine has already executed the callback."""
        return self._state == EventHandle._FIRED

    @property
    def pending(self) -> bool:
        """Whether the event is still waiting in the queue."""
        return self._state == EventHandle._PENDING

    def _mark_fired(self) -> None:
        self._state = EventHandle._FIRED

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = {0: "pending", 1: "cancelled", 2: "fired"}[self._state]
        return f"<EventHandle t={self.time:.6f} seq={self.seq} {state}>"


def _noop(*_args: Any) -> None:
    """Placeholder callback installed on cancelled handles."""
