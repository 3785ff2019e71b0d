"""In-memory span recorder and the layer wrappers of the traced run.

A span is ``(layer, start, end, parent, thread)``: the benchmark wraps
public entry points of the program's modules (see ``layers.py``) so every
call records one.  Parents are tracked per thread, so spans opened by
service worker threads nest under their own callers, never under a span
that happens to be open on another thread.  Spans stay in memory until
the run ends; nothing is written while the work runs.

Wrapping replaces the attribute on the defining module or class *and* on
every ``repro.*`` module that imported the same object by name, so
``from x import f`` call sites are traced too.  :meth:`Wrapping.restore`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    layer: str
    start: float
    thread: int
    parent: Optional["Span"]
    end: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        """Duration minus the part of it that child spans cover."""
        return self.duration - union_length(
            (max(c.start, self.start), min(c.end, self.end)) for c in self.children
        )

    def ancestors(self) -> Iterable["Span"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class SpanRecorder:
    """Thread-aware span collection."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(layer, time.perf_counter(), threading.get_ident(), parent)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            if span.parent is not None:
                span.parent.children.append(span)
            self.spans.append(span)


#: ``hook(span, args, kwargs, result)`` — records counts after a call.
CallHook = Callable[[Span, tuple, dict, Any], None]
#: ``hook(span, args, kwargs, item)`` — records counts per yielded item.
ItemHook = Callable[[Span, tuple, dict, Any], None]


def _call_wrapper(recorder: SpanRecorder, layer: str, fn: Callable, hook: Optional[CallHook]):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = recorder.open(layer)
        try:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result
        finally:
            recorder.close(span)

    return traced


def _generator_wrapper(
    recorder: SpanRecorder, layer: str, fn: Callable, hook: Optional[ItemHook]
):
    """One span per ``next()`` step, so the consumer's own work between
    items is never charged to the producing layer."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            span = recorder.open(layer)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                recorder.close(span)
            if hook is not None:
                hook(span, args, kwargs, item)
            yield item

    return traced


@dataclass(frozen=True)
class Target:
    """One public entry point to wrap: ``module`` + ``Name`` or ``Class.method``."""

    layer: str
    module: str
    qualname: str
    generator: bool = False
    hook: Optional[Callable] = None


class Wrapping:
    """Installed wrappers, restorable."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self, targets: Iterable[Target]) -> "Wrapping":
        targets = list(targets)
        # Import every layer first, so the identity scan below sees (and
        # restore() later resets) every module that binds a target by name.
        for target in targets:
            importlib.import_module(target.module)
        for target in targets:
            owner = sys.modules[target.module]
            parts = target.qualname.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            name = parts[-1]
            original = getattr(owner, name)
            make = _generator_wrapper if target.generator else _call_wrapper
            traced = make(self.recorder, target.layer, original, target.hook)
            if len(parts) > 1:  # a method: patch the class only
                self._set(owner, name, traced)
                continue
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, attr, traced)
        return self

    def _set(self, owner: Any, name: str, value: Any) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
