"""JobEventBus and the tracer bridge feeding per-job progress streams."""

import pytest

from repro.obs.tracer import Tracer
from repro.service.events import JobEventBus, SpanPublishingTracer


class TestJobEventBus:
    def test_publish_assigns_monotonic_seq(self):
        bus = JobEventBus()
        first = bus.publish("j", "queued")
        second = bus.publish("j", "started", tenant="t")
        assert (first["seq"], second["seq"]) == (1, 2)
        assert [e["kind"] for e in bus.snapshot("j")] == ["queued", "started"]

    def test_jobs_do_not_share_buffers(self):
        bus = JobEventBus()
        bus.publish("a", "queued")
        bus.publish("b", "queued")
        assert len(bus.snapshot("a")) == 1
        assert len(bus.snapshot("b")) == 1
        assert bus.snapshot("c") == []

    def test_bounded_buffer_drops_oldest(self):
        bus = JobEventBus(max_buffered=4)
        for i in range(10):
            bus.publish("j", "tick", i=i)
        events = bus.snapshot("j")
        assert len(events) == 4
        assert [e["seq"] for e in events] == [7, 8, 9, 10]
        assert bus.dropped("j") == 6

    def test_payloads_are_json_safe(self):
        import json

        bus = JobEventBus()
        event = bus.publish("j", "span", wall_s=float("nan"), attrs={(1, 2): 3})
        assert event["wall_s"] is None
        json.dumps(event, allow_nan=False)

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            JobEventBus(max_buffered=0)

    def test_forget_keeps_the_closed_flag(self):
        bus = JobEventBus()
        bus.publish("j", "done")
        bus.close("j")
        bus.forget("j")
        # A late reader sees a finished, empty stream instead of hanging.
        assert bus.snapshot("j") == []
        assert bus.closed("j")


class TestSpanPublishingTracer:
    def test_completed_spans_publish(self):
        bus = JobEventBus()
        tracer = SpanPublishingTracer(bus, "j")
        with tracer.span("work", shard=3) as span:
            span.count("points", 8)
        events = bus.snapshot("j")
        assert len(events) == 1
        event = events[0]
        assert event["kind"] == "span"
        assert event["name"] == "work"
        assert event["attrs"]["shard"] == 3
        assert event["counters"]["points"] == 8

    def test_name_filter(self):
        bus = JobEventBus()
        tracer = SpanPublishingTracer(bus, "j", names={"outer"})
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [e["name"] for e in bus.snapshot("j")] == ["outer"]

    def test_mismatched_pop_publishes_nothing(self):
        bus = JobEventBus()
        tracer = SpanPublishingTracer(bus, "j")
        with tracer.span("real"):
            pass
        stray = bus.snapshot("j")
        # Popping a span that was never pushed is a no-op upstream and
        # must not fabricate progress downstream.
        foreign = Tracer()
        with foreign.span("foreign") as span:
            pass
        tracer._pop(span)
        assert bus.snapshot("j") == stray

    def test_still_a_recording_tracer(self):
        bus = JobEventBus()
        tracer = SpanPublishingTracer(bus, "j")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.roots]
        assert names == ["outer"]
