"""Spans and counts recorded from outside the engine.

The tracer wraps a layer's public function at the name where its caller
looks it up (for example ``orbits.side_orbits``, or ``cli.count_components``
because ``cli`` binds its own name), so no engine file changes. Spans are
kept in memory and written out once, when the pass ends.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into Tracer.spans, -1 for a root
    applies_start: int = 0  # counted calls seen when the span opened / closed
    applies_end: int = 0
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.calls = [0]  # counted calls without spans (apply_move)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent=parent, applies_start=self.calls[0]))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.applies_end = self.calls[0]
        self._stack.pop()
        return span

    def wrap(self, name: str, fn, consume: bool = False, describe=None):
        """Span around fn. consume=True drains a generator inside the span.
        describe(args, result) -> dict is stored on the span after it closes."""

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if consume:
                    out = list(out)
            finally:
                span = self.close(idx)
            if describe is not None:
                try:
                    span.info = describe(args, out)
                except (AttributeError, TypeError, IndexError) as exc:
                    self.missing.append(f"{name}: cannot describe the result: {exc}")
            return out

        return traced

    def count(self, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[0] += 1
            return fn(*args, **kwargs)

        return counted

    def patch(self, module, attr: str, make) -> None:
        """Replace module.attr with make(original); a name the engine no
        longer has is recorded in ``missing`` and skipped."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        self._patched.append((module, attr, original))
        setattr(module, attr, make(original))

    def unpatch(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.
        Spans of one thread nest, so children never overlap."""
        out = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                out[s.parent] -= s.seconds
        return out

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        agg: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for s, own in zip(self.spans, self.self_seconds()):
            a = agg[s.name]
            a["calls"] += 1
            a["seconds"] += s.seconds
            a["self_seconds"] += own
        return agg

    def to_json(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "applies": s.applies_end - s.applies_start,
                "info": s.info,
            }
            for i, s in enumerate(self.spans)
        ]
