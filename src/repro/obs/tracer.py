"""Nested context-manager timers with per-span counters.

A :class:`Tracer` produces :class:`Span` context managers; entering a
span pushes it on the tracer's stack (so spans opened inside it become
children), exiting records its wall time from a monotonic clock.  Code
under measurement increments counters on the innermost open span through
:meth:`Tracer.count` — e.g. the sweep executor counts dispatched items,
the optimizer counts evaluated design points.

Instrumented code never checks "is tracing on?": it calls the same API
against a :class:`NullTracer` (the module singleton :data:`NULL_TRACER`)
whose spans are a single shared no-op object, which keeps the disabled
path allocation-free and branch-free.  Tracers are passive — they time
and count but never influence what the harness computes, which is what
keeps ``results/*.txt`` byte-identical with profiling on or off.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "render_span_tree"]


class Span:
    """One timed region: name, attributes, counters, children.

    Use as a context manager (via :meth:`Tracer.span`); ``wall_s`` is
    valid after exit.  Attributes describe the region (``bench="gcc"``),
    counters accumulate work done inside it (``items=24``).
    """

    __slots__ = ("name", "attrs", "counters", "children", "wall_s", "_tracer", "_t0")

    def __init__(
        self, name: str, attrs: Dict[str, Any], tracer: Optional["Tracer"] = None
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.counters: Dict[str, int] = {}
        self.children: List["Span"] = []
        self.wall_s: float = 0.0
        self._tracer = tracer
        self._t0: float = 0.0

    def count(self, counter: str, n: int = 1) -> None:
        """Add ``n`` to one of this span's counters."""
        self.counters[counter] = self.counters.get(counter, 0) + n

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._push(self)
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.wall_s = time.perf_counter() - self._t0
        if self._tracer is not None:
            self._tracer._pop(self)
        return False

    def to_dict(self) -> Dict[str, Any]:
        """JSON-encodable rendering (the ledger's ``spans`` schema)."""
        payload: Dict[str, Any] = {"name": self.name, "wall_s": self.wall_s}
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.counters:
            payload["counters"] = dict(self.counters)
        if self.children:
            payload["children"] = [child.to_dict() for child in self.children]
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, wall_s={self.wall_s:.6f}, counters={self.counters})"


class Tracer:
    """Collects a forest of :class:`Span` trees for one run."""

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        """A new span; nesting follows context-manager entry order."""
        return Span(name, attrs, tracer=self)

    def count(self, counter: str, n: int = 1) -> None:
        """Add to the innermost open span's counter (no-op outside spans)."""
        if self._stack:
            self._stack[-1].count(counter, n)

    # -- internals (called by Span enter/exit) ---------------------------------

    def _push(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        # Pop back to (and including) `span`.  A span that is not on the
        # stack at all (a mismatched or double exit) must be a no-op:
        # unwinding until "found" would empty the stack and orphan every
        # open ancestor, silently reparenting their later children.
        if not any(entry is span for entry in self._stack):
            return
        while self._stack:
            if self._stack.pop() is span:
                break

    def to_list(self) -> List[Dict[str, Any]]:
        """Every root span tree as JSON-encodable dicts."""
        return [span.to_dict() for span in self.roots]


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()

    def count(self, counter: str, n: int = 1) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """No-op tracer for instrumented code (the default everywhere).

    ``span()`` hands back one shared, stateless span object, so code
    instrumented against a disabled tracer allocates nothing and records
    nothing.  A run ledger takes a recording :class:`Tracer` or none.
    """

    enabled = False
    roots: List[Span] = []

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def count(self, counter: str, n: int = 1) -> None:
        pass


#: The module-wide disabled tracer instrumented code defaults to.
NULL_TRACER = NullTracer()


def _render_one(span: Span, depth: int, lines: List[str]) -> None:
    label = "  " * depth + span.name
    extras = []
    if span.attrs:
        extras.append(", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items())))
    if span.counters:
        extras.append(
            ", ".join(f"{k}={v}" for k, v in sorted(span.counters.items()))
        )
    suffix = f"  [{'; '.join(extras)}]" if extras else ""
    lines.append(f"{label:<44} {1000.0 * span.wall_s:>10.1f} ms{suffix}")
    for child in span.children:
        _render_one(child, depth + 1, lines)


def render_span_tree(roots: List[Span]) -> str:
    """Indented ASCII rendering of span trees (milliseconds per span)."""
    lines: List[str] = []
    for root in roots:
        _render_one(root, 0, lines)
    return "\n".join(lines)
