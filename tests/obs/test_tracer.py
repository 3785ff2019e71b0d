"""Span/Tracer tests: nesting, monotonic timing, counters, no-op path."""

import time

import pytest

from repro.obs import NULL_TRACER, NullTracer, Span, Tracer, render_span_tree


def _innermost(tracer):
    """The span the tracer's next span nests under (None at top level)."""
    return tracer._stack[-1] if tracer._stack else None

class TestSpanNesting:
    def test_children_attach_to_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("sibling"):
                pass
        assert [s.name for s in tracer.roots] == ["outer"]
        outer = tracer.roots[0]
        assert [s.name for s in outer.children] == ["inner", "sibling"]
        assert [s.name for s in outer.children[0].children] == ["leaf"]

    def test_sequential_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert _innermost(tracer) is None
        with tracer.span("outer") as outer:
            assert _innermost(tracer) is outer
            with tracer.span("inner") as inner:
                assert _innermost(tracer) is inner
            assert _innermost(tracer) is outer
        assert _innermost(tracer) is None

    def test_exception_still_pops_and_times(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("broken"):
                raise RuntimeError("boom")
        assert _innermost(tracer) is None
        assert tracer.roots[0].wall_s >= 0.0

    def test_double_exit_leaves_ancestors_open(self):
        # Exiting a span that is no longer on the stack used to unwind
        # the whole stack looking for it, orphaning every open ancestor.
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            inner.__exit__(None, None, None)  # mismatched second exit
            assert _innermost(tracer) is outer
            with tracer.span("late") as late:
                assert _innermost(tracer) is late
        assert _innermost(tracer) is None
        assert [s.name for s in tracer.roots] == ["outer"]
        assert [s.name for s in outer.children] == ["inner", "late"]

    def test_exit_of_never_entered_span_is_noop(self):
        tracer = Tracer()
        stray = tracer.span("stray")  # created but never entered
        with tracer.span("outer") as outer:
            stray.__exit__(None, None, None)
            assert _innermost(tracer) is outer
        assert [s.name for s in tracer.roots] == ["outer"]


class TestSpanTiming:
    def test_wall_time_is_monotonic_elapsed(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.02)
        outer, inner = tracer.roots[0], tracer.roots[0].children[0]
        assert inner.wall_s >= 0.02
        assert outer.wall_s >= inner.wall_s


class TestCounters:
    def test_span_counters_accumulate(self):
        tracer = Tracer()
        with tracer.span("work") as span:
            span.count("items", 3)
            span.count("items", 2)
            span.count("retries")
        assert span.counters == {"items": 5, "retries": 1}

    def test_tracer_count_targets_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.count("outer_work")
            with tracer.span("inner") as inner:
                tracer.count("inner_work", 4)
        assert outer.counters == {"outer_work": 1}
        assert inner.counters == {"inner_work": 4}

    def test_count_outside_any_span_is_noop(self):
        tracer = Tracer()
        tracer.count("lost")
        assert tracer.roots == []


class TestSerialization:
    def test_to_dict_structure(self):
        tracer = Tracer()
        with tracer.span("outer", bench="gcc") as span:
            span.count("items", 7)
            with tracer.span("inner"):
                pass
        payload = tracer.to_list()
        assert len(payload) == 1
        node = payload[0]
        assert node["name"] == "outer"
        assert node["attrs"] == {"bench": "gcc"}
        assert node["counters"] == {"items": 7}
        assert [c["name"] for c in node["children"]] == ["inner"]
        assert isinstance(node["wall_s"], float)

    def test_render_tree_indents_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = render_span_tree(tracer.roots)
        lines = text.splitlines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")
        assert "ms" in lines[0]


class TestNullTracer:
    def test_is_disabled_and_shares_one_span(self):
        assert not NULL_TRACER.enabled
        a = NULL_TRACER.span("anything", attr=1)
        b = NULL_TRACER.span("else")
        assert a is b  # single shared no-op object: the zero-overhead path

    def test_noop_span_supports_full_api(self):
        with NULL_TRACER.span("work") as span:
            span.count("items", 10)
        assert NULL_TRACER.roots == []
        NULL_TRACER.count("ignored")

    def test_separate_instances_also_record_nothing(self):
        tracer = NullTracer()
        with tracer.span("x"):
            pass
        assert tracer.roots == []

    def test_real_tracer_enabled_flag(self):
        assert Tracer().enabled
        span = Tracer().span("x")
        assert isinstance(span, Span)
