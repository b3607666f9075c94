"""Tests for the event stream: schema, capacity, JSONL export."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.obs import ObsConfig, Observability
from repro.obs.events import (
    EVENT_SCHEMA,
    EventStream,
    TraceEvent,
    event_time_span,
    is_known_event,
    read_jsonl,
    register_event,
    summarise_events,
)


class TestSchema:
    def test_hot_path_kinds_are_registered(self):
        for kind in ("forward", "recirculate", "demand_flush", "kill", "gap_ensure"):
            assert is_known_event("el", kind)
        assert is_known_event("fw", "space_reclaim")
        assert is_known_event("log", "block_write")
        assert is_known_event("run", "begin")

    def test_register_event_extends_schema(self):
        register_event("test_ns", "custom")
        try:
            assert is_known_event("test_ns", "custom")
        finally:
            EVENT_SCHEMA.pop("test_ns", None)

    def test_unknown_events_counted_when_lenient(self):
        stream = EventStream()
        stream.emit(0.0, "nonsense", "whatever")
        assert stream.unknown_events == 1
        assert len(stream) == 1  # still recorded

    def test_strict_stream_rejects_unknown_events(self):
        stream = EventStream(strict=True)
        with pytest.raises(ConfigurationError):
            stream.emit(0.0, "nonsense", "whatever")
        stream.emit(0.0, "el", "kill", {"tid": 1})  # known: fine


class TestEventStream:
    def test_is_a_drop_in_trace_log(self):
        # The managers' ``trace`` argument: emit, then filter what was kept.
        stream = EventStream()
        stream.emit(1.0, "el", "forward", {"lsn": 1})
        assert len(stream.select(source="el", kind="forward")) == 1

    def test_disabled_stream_writes_no_jsonl(self, tmp_path):
        path = tmp_path / "off.jsonl"
        stream = EventStream(enabled=False, jsonl_path=path)
        stream.emit(0.0, "el", "kill")
        stream.close()
        assert len(stream) == 0
        assert not path.exists()

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_rejects_silly_capacity(self, capacity):
        with pytest.raises(ConfigurationError):
            EventStream(capacity=capacity)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_obs_config_rejects_silly_trace_capacity(self, capacity):
        with pytest.raises(ConfigurationError):
            ObsConfig(trace=True, trace_capacity=capacity)

    def test_obs_config_capacity_bounds_the_stream(self):
        obs = Observability(ObsConfig(trace=True, trace_capacity=1))
        obs.trace.emit(0.0, "el", "kill")
        obs.trace.emit(1.0, "el", "kill")
        assert [e.time for e in obs.trace] == [1.0]
        assert obs.trace_summary()["events_dropped"] == 1


class TestJsonlSink:
    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        stream = EventStream(capacity=1, jsonl_path=path)
        events = [
            TraceEvent(0.5, "el", "forward", {"lsn": 1, "from": 0}),
            TraceEvent(1.0, "el", "kill", {"tid": 7}),
        ]
        for event in events:
            stream.emit(*event)
        stream.close()
        # The file holds every event, not only the ones the ring kept.
        assert stream.events_written == 2
        assert read_jsonl(path) == events

    def test_lazy_open_never_creates_empty_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        EventStream(jsonl_path=path).close()
        assert not path.exists()

    def test_accept_after_close_raises(self, tmp_path):
        stream = EventStream(jsonl_path=tmp_path / "t.jsonl")
        stream.emit(0.0, "el", "kill")
        stream.close()
        with pytest.raises(ConfigurationError):
            stream.emit(1.0, "el", "kill")

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"time": 0, "source": "a", "kind": "b"}\nnot json\n')
        with pytest.raises(ConfigurationError, match="bad.jsonl:2"):
            read_jsonl(path)


class TestSummaries:
    def test_summarise_events_counts_pairs(self):
        events = [
            TraceEvent(0.0, "el", "forward", None),
            TraceEvent(1.0, "el", "forward", None),
            TraceEvent(2.0, "el", "kill", None),
        ]
        assert summarise_events(events) == {
            ("el", "forward"): 2,
            ("el", "kill"): 1,
        }

    def test_event_time_span(self):
        events = [TraceEvent(0.5, "a", "b", None), TraceEvent(9.0, "a", "b", None)]
        assert event_time_span(events) == (0.5, 9.0)
        assert event_time_span([]) == (0.0, 0.0)
