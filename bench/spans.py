"""In-memory span recorder for the benchmark's own calls into each layer.

A span is (name, layer, start, end, parent, run).  Spans nest strictly,
since the benchmark is single-threaded, so a span's self time is its
duration minus the durations of its direct children.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans when enabled; otherwise `span` costs one method call."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[int] = []

    def span(self, name: str, layer: str):
        return self._record(name, layer) if self.enabled else nullcontext()

    @contextmanager
    def _record(self, name: str, layer: str):
        parent = self._open[-1] if self._open else None
        span = Span(len(self.spans), name, layer, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._open.append(span.id)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer: each span's duration minus its direct children's."""
    child_time = dict.fromkeys((s.id for s in spans), 0.0)
    for s in spans:
        if s.parent in child_time:
            child_time[s.parent] += s.duration
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.layer] = totals.get(s.layer, 0.0) + s.duration - child_time[s.id]
    return totals


def span_cost_s(samples: int = 5000) -> float:
    """Measured cost of recording one empty span, in seconds."""
    tracer = Tracer("calibration")
    t0 = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty", "calibration"):
            pass
    return (time.perf_counter() - t0) / samples
