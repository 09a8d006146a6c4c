"""Call spans for the benchmark's traced run.

``traced`` wraps named package functions at every module attribute that
refers to them, so calls made through ``harness.generate_noise``,
``estimators.augment`` or ``pencil.hankel`` are all seen, and restores the
original attributes when the block ends. Each call records one span: its
name, thread, start, end and parent. Spans stay in memory and are reduced to
per-function totals after the run.

A thread keeps its own span stack. A span opened on a thread whose stack is
empty (a trial on a pool thread) takes as parent the innermost open span of
the thread that entered ``traced``, which is blocked in the call that
started the pool.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

WRAPPER_MARK = "__perfbench_span__"


@dataclass(eq=False)
class Span:
    """One call: ``name`` is ``<module>.<function>``; times are perf_counter seconds."""

    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: "Span | None" = None


class Tracer:
    """Collects spans from wrapped calls on any thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._root_stack: list[Span] = []
        self.root_thread: int | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def bind_root(self) -> None:
        """Make the calling thread the parent of spans opened on fresh threads."""
        self._root_stack = self._stack()
        self.root_thread = threading.get_ident()

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                root = tracer._root_stack
                parent = root[-1] if root else None
            span = Span(name, threading.get_ident(), 0.0, parent=parent)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)

        setattr(wrapper, WRAPPER_MARK, name)
        return wrapper


def package_modules(package: str) -> list:
    """The package module and every loaded submodule, in a stable order."""
    prefix = package + "."
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == package or name.startswith(prefix)]


@contextmanager
def traced(tracer: Tracer, package: str, names):
    """Wrap ``<module>.<function>`` for each name; yield the names not found.

    A name whose function the package no longer defines is reported as absent
    instead of raising. Every replaced attribute is restored on exit, also
    when the block raises.
    """
    modules = package_modules(package)
    by_name = {mod.__name__: mod for mod in modules}
    absent = []
    replaced = []  # (module, attribute, original)
    try:
        for name in names:
            module_name, _, func_name = name.rpartition(".")
            home = by_name.get(f"{package}.{module_name}")
            original = getattr(home, func_name, None) if home is not None else None
            if not callable(original):
                absent.append(name)
                continue
            wrapper = tracer.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        replaced.append((mod, attr, original))
        tracer.bind_root()
        yield absent
    finally:
        for mod, attr, original in reversed(replaced):
            setattr(mod, attr, original)


def wrapped_attributes(package: str) -> list:
    """``module.attribute`` of every tracing wrapper still installed."""
    return [f"{mod.__name__}.{attr}"
            for mod in package_modules(package)
            for attr, value in vars(mod).items()
            if hasattr(value, WRAPPER_MARK)]


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Span -> its duration minus the part of it covered by child spans.

    Children may run on other threads and overlap one another, so the covered
    part is the union of the children's intervals clipped to the parent's.
    """
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        clipped = [(max(c.start, span.start), min(c.end, span.end))
                   for c in children.get(span, ())]
        result[span] = (span.end - span.start) - covered_length(clipped)
    return result


def layer_totals(spans) -> dict:
    """name -> (calls, busy seconds, self seconds) over all spans."""
    selfs = self_times(spans)
    totals: dict = {}
    for span in spans:
        calls, busy, own = totals.get(span.name, (0, 0.0, 0.0))
        totals[span.name] = (calls + 1, busy + (span.end - span.start),
                             own + selfs[span])
    return totals


def off_root_busy(spans, root_thread: int) -> float:
    """Summed duration of the outermost spans opened on threads other than the root."""
    return sum(span.end - span.start for span in spans
               if span.thread != root_thread
               and (span.parent is None or span.parent.thread != span.thread))
