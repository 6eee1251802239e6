"""In-memory spans recorded around the benchmark's calls into gridpose.

A span has a name, a start, an end and the index of the span that was
open when it started (its parent). Spans stay in memory for the whole
run; the benchmark reduces them to per-layer numbers at the end. The
layer of a span is the part of its name before the first dot, which is
the gridpose module the call went into (`synth.load_frames` belongs to
`synth`); spans of the benchmark's own code are named `bench.*`.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans; nesting follows the order `span()` blocks are entered."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span with this exact name."""
        return [s.duration for s in self.spans if s.name == name]


class NullTracer:
    """Stands in for a Tracer when the run is not traced; records nothing."""

    @contextmanager
    def span(self, name: str):
        yield


def self_times(spans: list[Span]) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children of one span run one after another, never overlapping, so the
    covered part is the sum of their durations clipped to the parent.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start = max(span.start, parent.start)
            end = min(span.end, parent.end)
            covered[span.parent] += max(0.0, end - start)
    return [max(0.0, s.duration - c) for s, c in zip(spans, covered)]


def self_time_by_layer(spans: list[Span]) -> dict[str, float]:
    """Total self time in seconds of each layer's spans."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        out[span.layer] = out.get(span.layer, 0.0) + own
    return out
