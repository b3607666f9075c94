"""The keep-latest ring of :class:`repro.obs.events.EventStream`, as the simulator uses it."""

from __future__ import annotations

from repro.obs.events import NULL_TRACE, EventStream, TraceEvent


class TestTraceLog:
    def test_emit_and_iterate(self):
        trace = EventStream()
        trace.emit(1.0, "lm", "kill", {"tid": 3})
        events = list(trace)
        assert len(events) == 1
        assert events[0].time == 1.0
        assert events[0].detail == {"tid": 3}

    def test_disabled_trace_records_nothing(self):
        trace = EventStream(enabled=False)
        trace.emit(1.0, "lm", "kill")
        assert len(trace) == 0

    def test_null_trace_is_disabled(self):
        NULL_TRACE.emit(0.0, "x", "y")
        assert len(NULL_TRACE) == 0

    def test_select_by_source(self):
        trace = EventStream()
        trace.emit(1.0, "a", "k1")
        trace.emit(2.0, "b", "k1")
        assert len(trace.select(source="a")) == 1

    def test_select_by_kind(self):
        trace = EventStream()
        trace.emit(1.0, "a", "k1")
        trace.emit(2.0, "a", "k2")
        assert [e.kind for e in trace.select(kind="k2")] == ["k2"]

    def test_select_combined(self):
        trace = EventStream()
        trace.emit(1.0, "a", "k1")
        trace.emit(2.0, "a", "k2")
        trace.emit(3.0, "b", "k2")
        assert len(trace.select(source="a", kind="k2")) == 1

    def test_capacity_keeps_latest(self):
        # A bounded stream is a keep-latest ring: the tail of the run survives.
        trace = EventStream(capacity=2)
        for i in range(5):
            trace.emit(float(i), "s", "k")
        assert len(trace) == 2
        assert trace.dropped == 3
        assert [e.time for e in trace] == [3.0, 4.0]

    def test_capacity_property(self):
        assert EventStream(capacity=7).capacity == 7
        assert EventStream().capacity is None

    def test_unbounded_log_never_drops(self):
        trace = EventStream()
        for i in range(1000):
            trace.emit(float(i), "s", "k")
        assert len(trace) == 1000
        assert trace.dropped == 0
        assert [e.time for e in trace][:2] == [0.0, 1.0]

    def test_event_dict_round_trip(self):
        event = TraceEvent(1.5, "el", "forward", {"lsn": 9})
        assert TraceEvent.from_dict(event.to_dict()) == event

    def test_clear(self):
        trace = EventStream(capacity=1)
        trace.emit(0.0, "s", "k")
        trace.emit(1.0, "s", "k")
        trace.clear()
        assert len(trace) == 0
        assert trace.dropped == 0
