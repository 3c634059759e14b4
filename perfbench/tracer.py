"""Span tracer that wraps a package's functions from outside the package.

A traced function is re-bound in every module of the package that holds a
reference to it, because ``from .integrate import integrate`` gives each
importing module its own name for the same function object.  Methods are
wrapped on their class.  Every call records a span with its name, start,
end, parent span and thread id; the parent is the innermost open span of
the same thread, so spans of concurrent worker threads never nest into each
other.  Exiting the tracer restores every original binding.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


@dataclass
class Span:
    name: str
    start: float = 0.0
    end: float = 0.0
    parent: Optional["Span"] = None
    thread: int = 0
    cpu: float = 0.0            # CPU seconds of the calling thread, when requested
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the summed durations of direct children, keyed by id(span).

    Children run on their parent's thread and inside its interval, so they
    do not overlap each other and their sum is the part of the parent they
    cover.
    """
    covered: dict[int, float] = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            covered[id(sp.parent)] += sp.duration
    return {id(sp): sp.duration - covered[id(sp)] for sp in spans}


def ancestor(span: Span, name: str) -> Optional[Span]:
    """The nearest enclosing span called name, or None."""
    p = span.parent
    while p is not None:
        if p.name == name:
            return p
        p = p.parent
    return None


@dataclass(frozen=True)
class Target:
    """One function to trace.

    module and attr name the function (attr may be 'Class.method'); span is
    the recorded span name; info, when given, maps (args, kwargs, result) to
    counts stored on the span; cpu also records the thread's CPU time.
    """

    module: str
    attr: str
    span: str
    info: Optional[Callable[[tuple, dict, Any], dict]] = None
    cpu: bool = False


class Tracer:
    def __init__(self, targets: list[Target], package: str):
        self.targets = targets
        self.package = package
        self.spans: list[Span] = []
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def take(self) -> list[Span]:
        """Spans recorded since the last call; the tracer keeps recording."""
        out, self.spans = self.spans, []
        return out

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span = Span(target.span, parent=stack[-1] if stack else None,
                        thread=threading.get_ident())
            stack.append(span)
            cpu0 = time.thread_time() if target.cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.info["error"] = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                if target.cpu:
                    span.cpu = time.thread_time() - cpu0
                stack.pop()
                tracer.spans.append(span)
            if target.info is not None:
                span.info.update(target.info(args, kwargs, result))
            return result

        return traced

    def _modules(self) -> list:
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def __enter__(self) -> "Tracer":
        try:
            modules = self._modules()
            for target in self.targets:
                owner = sys.modules[target.module]
                if "." in target.attr:
                    cls_name, meth = target.attr.split(".")
                    cls = getattr(owner, cls_name)
                    orig = cls.__dict__[meth]
                    self._rebind(cls, meth, self._wrap(orig, target), orig)
                    continue
                orig = getattr(owner, target.attr)
                wrapper = self._wrap(orig, target)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._rebind(mod, name, wrapper, orig)
        except BaseException:
            self.restore()
            raise
        return self

    def _rebind(self, holder, name: str, new, orig) -> None:
        setattr(holder, name, new)
        self._undo.append((holder, name, orig))

    def restore(self) -> None:
        while self._undo:
            holder, name, orig = self._undo.pop()
            setattr(holder, name, orig)

    def __exit__(self, *exc) -> None:
        self.restore()
