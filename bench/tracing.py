"""In-memory spans around calls into the program, and self time per layer.

The tracer replaces a module attribute with a wrapper that records one
span per call: name, start, end, parent span and the ID of the operation
(CLI call or replicate) it belongs to.  Because callers look functions up
by module attribute at call time, patching ``mcjoint.resampling.batch_fit``
catches every call ``resampling`` makes, without editing the program.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    error: Optional[str] = None
    info: Dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for wrapped callables; one instance per traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.spans: List[Span] = []
        self.op: Optional[int] = None
        self._clock = clock
        self._stack: List[int] = []
        self._patched: List[Tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, tag: Optional[Callable] = None,
             annotate: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span; results and exceptions pass through.

        ``tag(args, kwargs)`` and, when the call returns,
        ``annotate(args, kwargs, result)`` may return dicts of labels and
        counters for the span.  Both run outside the span's interval.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            info = tag(args, kwargs) if tag is not None else {}
            span = Span(len(self.spans), name, self._clock(), float("nan"),
                        self._stack[-1] if self._stack else None, self.op, info=info)
            self.spans.append(span)
            self._stack.append(span.sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span.end = self._clock()
                span.error = type(err).__name__
                self._stack.pop()
                raise
            span.end = self._clock()
            self._stack.pop()
            if annotate is not None:
                span.info.update(annotate(args, kwargs, result))
            return result

        return traced

    def patch(self, module, attr: str, name: str, tag: Optional[Callable] = None,
              annotate: Optional[Callable] = None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, tag, annotate))

    def unpatch(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def dump(self) -> List[Dict]:
        return [asdict(s) for s in self.spans]


def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    kids: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def covered(span: Span, kids: Sequence[Span]) -> float:
    """Length of ``span`` covered by its child spans (clipped to it)."""
    return union_length([(max(k.start, span.start), min(k.end, span.end)) for k in kids
                         if k.end > span.start and k.start < span.end])


def self_time(span: Span, kids: Sequence[Span]) -> float:
    """Duration minus the part of it that child spans cover."""
    return span.duration - covered(span, kids)


def layer_self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per layer (the span name's first component)."""
    kids = children_of(spans)
    out: Dict[str, float] = {}
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + self_time(s, kids.get(s.sid, ()))
    return out
