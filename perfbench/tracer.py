"""In-memory spans and counts for the traced replay.

A span records its name, layer, start, end and the span that caused it;
spans opened inside a trial inherit the trial's id. Nothing is written until
the benchmark ends.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, layer: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = {"id": len(self.spans), "parent": None if parent is None else parent["id"],
               "name": name, "layer": layer}
        if parent is not None and "trial" in parent:
            rec["trial"] = parent["trial"]
        rec.update(attrs)
        self.spans.append(rec)
        self._open.append(rec)
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            self._open.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] += n

    def select(self, **where) -> list[dict]:
        return [s for s in self.spans if all(s.get(k) == v for k, v in where.items())]

    def children(self, span: dict) -> list[dict]:
        return self.select(parent=span["id"])


def duration(span: dict) -> float:
    return span["t1"] - span["t0"]
