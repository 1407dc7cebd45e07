"""In-memory spans recorded by the benchmark around its calls into asymspec.

A span is one call into one public function of one layer (module). Spans
nest: a request's root span is the parent of the calls it makes, so a
span's self time is its duration minus the part of it its children cover.
Nothing inside the program is patched; spans sit only in benchmark code.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None
    source: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: every span is the same do-nothing context."""

    _null = contextlib.nullcontext()

    def span(self, name: str, **attrs):
        return self._null


class Tracer:
    """Collects spans in memory; ``source`` tags which pass they came from."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.source = "own"
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, parent, self.source, self.clock(), attrs=attrs)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec.end = self.clock()

    def self_times(self) -> list[float]:
        """Self time of every span, in the order of ``spans``."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            cursor = s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, cursor), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(s.duration - covered)
        return out

    def to_records(self) -> list[dict]:
        selfs = self.self_times()
        return [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "source": s.source,
                "start": s.start,
                "end": s.end,
                "self": selfs[i],
                "attrs": s.attrs,
            }
            for i, s in enumerate(self.spans)
        ]
