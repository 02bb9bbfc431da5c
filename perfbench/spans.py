"""In-memory span recorder for one benchmark campaign process.

Spans are recorded around calls into the program's public functions,
never inside the program.  A span has a name, a start, an end and the
span it ran under; hot per-record calls are summed into one *aggregate*
span under the span that was open when they ran, so tracing them does
not write thousands of spans.  Everything stays in memory and is
written once, when the campaign ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Records spans when enabled; every method is a cheap no-op otherwise."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: Closed spans: {"id", "name", "start", "end", "parent"}.
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._aggregates: dict[tuple[str, int | None], float] = {}

    def _parent(self) -> int | None:
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._parent()
        self._stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            end = time.monotonic()
            self._stack.pop()
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent}
            )

    def wrap(self, name: str, fn):
        """``fn`` wrapped so each call records a span ``name``."""
        if not self.enabled:
            return fn

        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn):
        """``fn`` wrapped so each call adds to the aggregate span ``name``."""
        if not self.enabled:
            return fn

        def wrapper(*args, **kwargs):
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                key = (name, self._parent())
                self._aggregates[key] = (
                    self._aggregates.get(key, 0.0) + time.monotonic() - start
                )

        return wrapper

    def export(self) -> list[dict]:
        """All spans, aggregates included (as ``"aggregate": True`` spans)."""
        spans = sorted(self.spans, key=lambda s: s["id"])
        for offset, ((name, parent), total) in enumerate(self._aggregates.items()):
            spans.append(
                {"id": self._next_id + offset, "name": name, "duration": total,
                 "parent": parent, "aggregate": True}
            )
        return spans


def duration(span: dict) -> float:
    if "duration" in span:
        return span["duration"]
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span less the time its children cover.

    Children of one span never overlap (one thread records them), so
    the part of a span its children cover is the sum of their durations.
    """
    child_total: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] = (
                child_total.get(span["parent"], 0.0) + duration(span)
            )
    totals: dict[str, float] = {}
    for span in spans:
        own = duration(span) - child_total.get(span["id"], 0.0)
        totals[span["name"]] = totals.get(span["name"], 0.0) + own
    return totals


def breakdown(spans: list[dict], wall_s: float) -> tuple[dict[str, float], float]:
    """(self time per layer, ``unattributed_s``) for one traced campaign.

    ``unattributed_s`` is ``wall_s`` less the sum of the layers' self
    times, so the two always add up to ``wall_s``; a large remainder
    flags time spent outside every traced call.
    """
    layers = self_times(spans)
    return layers, wall_s - sum(layers.values())
