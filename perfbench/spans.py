"""In-memory span recorder for the benchmark's traced runs.

A span is one public call into a layer of pdevsim, timed from the
benchmark's side: name, start, end, parent span and run id. Spans of one
traced batch share a run id. They stay in memory while the benchmark
measures and are written out once at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = 0

    @contextmanager
    def run(self, name: str):
        """Open a new run id with a root span called ``name``."""
        self._run += 1
        with self.span(name):
            yield self._run

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self._run)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def self_times(self, run: int) -> dict[str, float]:
        """Seconds per span name spent in the span itself, summed over the
        run: duration minus the time its children cover. Spans nest on one
        thread, so children never overlap and their durations add up."""
        spans = [s for s in self.spans if s.run == run]
        covered: dict[int, float] = {}
        for span in spans:
            if span.parent is not None:
                covered[span.parent] = covered.get(span.parent, 0.0) + span.duration
        totals: dict[str, float] = {}
        for span in spans:
            own = span.duration - covered.get(span.id, 0.0)
            totals[span.name] = totals.get(span.name, 0.0) + own
        return totals

    def durations(self, run: int) -> dict[str, float]:
        """Seconds per span name, children included, summed over the run."""
        totals: dict[str, float] = {}
        for span in self.spans:
            if span.run == run:
                totals[span.name] = totals.get(span.name, 0.0) + span.duration
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")
