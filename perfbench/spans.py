"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into the layers of the analysis pipeline by
replacing a public callable at the module (or class) attribute the pipeline
resolves at call time with a timing wrapper.  Nothing in the program changes;
:meth:`Tracer.restore` puts the original callables back.

A span holds its name, start, end, parent span and kernel id.  A layer's
*self time* is its span's duration minus the part of that interval covered
by its child spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    kernel: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans of one thread; one tracer per traced process."""

    def __init__(self, kernel: str, clock: Callable[[], float] = time.perf_counter) -> None:
        self.kernel = kernel
        self.spans: List[Span] = []
        self._clock = clock
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []
        #: Per span name, a hook called with the wrapped call's return value.
        self.on_return: Dict[str, Callable[[object], None]] = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self._clock(), 0.0, parent, self.kernel)
        self.spans.append(span)
        self._stack.append(span.id)
        return span.id

    def end(self, span_id: int) -> None:
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} ended out of order (open: {popped})")
        self.spans[span_id].end = self._clock()

    def call(self, name: str, function: Callable, *args, **kwargs):
        span_id = self.begin(name)
        try:
            result = function(*args, **kwargs)
        finally:
            self.end(span_id)
        hook = self.on_return.get(name)
        if hook is not None:
            hook(result)
        return result

    def wrap(self, target: str, name: str) -> None:
        """Record a span named ``name`` around every call of ``target``.

        ``target`` is ``"package.module:attribute"`` or
        ``"package.module:Class.method"``.
        """
        module_name, _, attribute_path = target.partition(":")
        owner = importlib.import_module(module_name)
        *owner_path, attribute = attribute_path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.call(name, original, *args, **kwargs)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)


def _covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part of it its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def outermost(spans: Sequence[Span], name: str) -> List[Span]:
    """Spans named ``name`` with no ancestor of that name among ``spans``, so
    that re-entrant calls are not counted twice."""
    by_id = {span.id: span for span in spans}
    result = []
    for span in spans:
        if span.name != name:
            continue
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.name != name:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            result.append(span)
    return result
