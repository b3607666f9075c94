"""The event stream: every traced occurrence of a run, schema-checked.

Components call ``trace.emit(time, source, kind, detail)``; a disabled
stream (:data:`NULL_TRACE`, the default everywhere) returns at once, so
paper-scale runs pay one flag check per emit site.  An enabled
:class:`EventStream` keeps a keep-latest ring of :class:`TraceEvent`
tuples, checks each ``source``/``kind`` pair against the schema registry
(:data:`EVENT_SCHEMA`) so traces stay diffable between runs, and can also
write every event to a JSON Lines file, the format ``repro report``
re-parses.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import deque
from pathlib import Path
from typing import (
    Any,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError


class TraceEvent(NamedTuple):
    """One traced occurrence.

    Attributes:
        time: simulated time the event occurred at.
        source: short component name (``"el"``, ``"flush"``, ``"gen0"``...).
        kind: event kind (``"forward"``, ``"kill"``, ``"block_write"``...).
        detail: free-form payload, usually a dict of identifiers.
    """

    time: float
    source: str
    kind: str
    detail: Any

    def to_dict(self) -> dict:
        """JSON-serialisable form (the JSONL line schema)."""
        return {
            "time": self.time,
            "source": self.source,
            "kind": self.kind,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TraceEvent":
        return cls(
            float(data["time"]),
            str(data["source"]),
            str(data["kind"]),
            data.get("detail"),
        )


#: Known event namespaces: source -> set of kinds.  Components register
#: their vocabulary here so ``repro report`` can flag schema drift and
#: tests can assert coverage.
EVENT_SCHEMA: Dict[str, set] = {
    # Ephemeral log manager hot paths.
    "el": {
        "forward",
        "recirculate",
        "demand_flush",
        "kill",
        "gap_ensure",
        "pressure",
        "emergency_recirculate",
    },
    # Firewall-specific occurrences (FW shares the EL machinery).
    "fw": {
        "forward",
        "recirculate",
        "demand_flush",
        "kill",
        "gap_ensure",
        "pressure",
        "emergency_recirculate",
        "space_reclaim",
    },
    # Hybrid manager.
    "hybrid": {"kill", "regenerate"},
    # Flush scheduler / database drives.
    "flush": {"submit", "complete", "demand", "settle"},
    # Log generations (block lifecycle).
    "log": {"block_write", "block_durable"},
    # Fault injection and self-healing (disk faults, remaps, crash checks).
    "fault": {
        "write_fault",
        "write_failed",
        "latent",
        "stabilise",
        "heal",
        "remap",
        "degrade",
        "ack_deferred",
        "flush_requeue",
        "crash_check",
    },
    # Sharded manager (cross-shard commit protocol).
    "shard": {"cross_commit"},
    # Harness lifecycle markers.
    "run": {"begin", "end"},
}


def register_event(source: str, kind: str) -> None:
    """Extend the schema (extensions and tests add their vocabulary here)."""
    EVENT_SCHEMA.setdefault(source, set()).add(kind)


def is_known_event(source: str, kind: str) -> bool:
    kinds = EVENT_SCHEMA.get(source)
    return kinds is not None and kind in kinds


class EventStream:
    """An in-memory event ring with a schema check and optional JSONL export.

    ``capacity`` bounds the ring (``None`` keeps everything); at capacity
    the oldest event is evicted and :attr:`dropped` counts it.  With
    ``jsonl_path`` every event is also appended to that file as one JSON
    object per line; the file is opened on the first event, so a stream
    that never saw one never creates it, and :meth:`close` closes it.
    """

    def __init__(
        self,
        enabled: bool = True,
        capacity: Optional[int] = None,
        strict: bool = False,
        jsonl_path: Union[str, Path, None] = None,
    ):
        if capacity is not None and capacity < 1:
            raise ConfigurationError(f"event stream needs capacity >= 1, got {capacity}")
        self.enabled = enabled
        #: Maximum retained events, or ``None`` for unbounded.
        self.capacity = capacity
        self._events: Deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0
        self.strict = strict
        #: Events emitted whose (source, kind) pair the schema does not know.
        self.unknown_events = 0
        self.jsonl_path = Path(jsonl_path) if jsonl_path is not None else None
        self._handle = None
        self.events_written = 0
        self.closed = False

    def emit(self, time: float, source: str, kind: str, detail: Any = None) -> None:
        """Record one event (no-op while :attr:`enabled` is false)."""
        if not self.enabled:
            return
        if not is_known_event(source, kind):
            if self.strict:
                raise ConfigurationError(
                    f"unregistered trace event {source!r}/{kind!r}; add it to "
                    f"repro.obs.events.EVENT_SCHEMA (register_event)"
                )
            self.unknown_events += 1
        event = TraceEvent(time, source, kind, detail)
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append(event)
        if self.jsonl_path is not None:
            self._write(event)

    def _write(self, event: TraceEvent) -> None:
        if self.closed:
            raise ConfigurationError(f"event stream export {self.jsonl_path} is closed")
        if self._handle is None:
            self.jsonl_path.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(self.jsonl_path, "w", encoding="utf-8")
        json.dump(event.to_dict(), self._handle, separators=(",", ":"))
        self._handle.write("\n")
        self.events_written += 1

    def close(self) -> None:
        """Close the JSONL export, if any (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        self.closed = True

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def select(self, source: Optional[str] = None, kind: Optional[str] = None) -> List[TraceEvent]:
        """Events matching the given source and/or kind."""
        return [
            e
            for e in self._events
            if (source is None or e.source == source) and (kind is None or e.kind == kind)
        ]

    def clear(self) -> None:
        """Drop all retained events (the ``enabled`` flag is unchanged)."""
        self._events.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<EventStream {state} events={len(self._events)} dropped={self.dropped}>"


#: A shared disabled stream components can default to.
NULL_TRACE = EventStream(enabled=False)


# ----------------------------------------------------------------------
# JSONL parsing and summarising (the ``repro report`` input side)
# ----------------------------------------------------------------------
def read_jsonl(path: Union[str, Path]) -> List[TraceEvent]:
    """Parse a JSONL trace file back into :class:`TraceEvent` objects."""
    events: List[TraceEvent] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
                events.append(TraceEvent.from_dict(data))
            except (ValueError, KeyError, TypeError) as exc:
                raise ConfigurationError(
                    f"{path}:{lineno}: malformed trace line ({exc})"
                ) from exc
    return events


def summarise_events(
    events: Iterable[TraceEvent],
) -> Dict[Tuple[str, str], int]:
    """Event counts keyed by ``(source, kind)``, insertion-ordered."""
    return dict(TallyCounter((e.source, e.kind) for e in events))


def event_time_span(events: Sequence[TraceEvent]) -> Tuple[float, float]:
    """(first, last) event time; ``(0.0, 0.0)`` for an empty trace."""
    if not events:
        return (0.0, 0.0)
    return (events[0].time, events[-1].time)
