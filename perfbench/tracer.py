"""Outside-in tracer: wraps public callables at the package's module
boundaries and records one span per call, without touching the package.

A target names the attribute where the *caller* looks the callable up.
``from .flow import fit_gis`` binds ``fit_gis`` into ``overdensity.cli``,
so the fit subcommand only sees a wrapper installed as
``overdensity.cli.fit_gis``; patching ``overdensity.flow.fit_gis`` would
not be seen.  A target that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One patch point.

    owner is a module path, or ``module:Class`` for a method; kind is
    "call", or "iter" for a function returning an iterator, where each
    ``next()`` becomes a span.  work maps (args, result) - or, for
    "iter", (item,) - to the span's work count (rows, particles, bytes).
    """

    owner: str
    attr: str
    span: str
    work: Callable | None = None
    kind: str = "call"

    @property
    def label(self) -> str:
        return f"{self.owner}.{self.attr}".replace(":", ".")


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "work")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread
        self.work = 0


def _resolve_owner(owner: str):
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    return getattr(obj, class_name, None) if class_name else obj


class Tracer:
    """Records spans while installed; ``install``/``restore`` bracket use.

    Spans nest per thread.  A span opened on a thread with nothing open
    (a pool worker) takes as parent the innermost span open on the thread
    that installed the tracer, so work handed to a thread pool still
    belongs to the call that submitted it.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._saved = []
        self._local = threading.local()
        self._root_stack: list[Span] = []

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self._local.stack = self._root_stack
        self.absent = []
        for target in self.targets:
            owner = _resolve_owner(target.owner)
            original = getattr(owner, target.attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(target.label)
                continue
            had_own = target.attr in vars(owner)
            wrapper = self._wrap_iter(original, target) if target.kind == "iter" \
                else self._wrap_call(original, target)
            setattr(owner, target.attr, wrapper)
            self._saved.append((owner, target.attr, original, had_own))

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._saved):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._saved = []

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- spans ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            root = self._root_stack
            parent = root[-1] if root else None
        span = Span(name, time.perf_counter(), parent, threading.get_ident())
        self.spans.append(span)
        stack.append(span)
        return span

    def end(self, span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name):
        opened = self.begin(name)
        try:
            yield opened
        finally:
            self.end(opened)

    def _wrap_call(self, fn, target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(target.span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if target.work is not None:
                span.work = target.work(args, result)
            return result

        return traced

    def _wrap_iter(self, fn, target):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                span = tracer.begin(target.span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                if target.work is not None:
                    span.work = target.work(item)
                yield item

        return traced

    def clear(self) -> None:
        self.spans = []


# -- analysis -------------------------------------------------------------------


def _covered(intervals, lo, hi) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Self time per span: its duration minus the part of it that its
    children cover.  Children on other threads overlap each other, so
    the union of their intervals is subtracted, not their sum."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {id(span): (span.end - span.start)
            - _covered(children.get(id(span), ()), span.start, span.end)
            for span in spans}


def has_ancestor(span, name) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.name == name:
            return True
        parent = parent.parent
    return False


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


def summarize(spans, within: str | None = None) -> dict:
    """Per span name: calls, inclusive time, self time and work; with
    ``within``, only spans that have an ancestor of that name."""
    selfs = self_times(spans)
    stats = defaultdict(SpanStats)
    for span in spans:
        if within is not None and not has_ancestor(span, within):
            continue
        entry = stats[span.name]
        entry.calls += 1
        entry.total_s += span.end - span.start
        entry.self_s += selfs[id(span)]
        entry.work += span.work
    return dict(stats)


def self_by_thread(spans) -> dict:
    """Self time per (span name, thread), for the spans file."""
    selfs = self_times(spans)
    out = defaultdict(float)
    for span in spans:
        out[(span.name, span.thread)] += selfs[id(span)]
    return dict(out)


def span_records(spans) -> list:
    """Spans as plain records with integer ids and parent ids."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [{"id": i, "name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "thread": s.thread, "work": s.work}
            for i, s in enumerate(spans)]
