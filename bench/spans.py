"""Wall-time accounting at layer boundaries, kept in memory.

A Clock only sums the time spent inside each named call; the untraced
run uses it so that per-stage rates (pairs verified per second of
verification, for instance) cost two clock reads per call and nothing
else.  A Tracer additionally keeps one record per call: name, start,
end, the enclosing span, workload, phase, pass and domain.  Records are
written out once, when the run ends.

Span names are "<module>.<function>", where <module> is the multitile
module that owns the public function being called (or "bench" for the
benchmark's own pass loop), so self time can be grouped per module.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager


class Clock:
    """Sums wall time per span name."""

    def __init__(self) -> None:
        self.totals: dict[str, float] = defaultdict(float)

    @contextmanager
    def span(self, name: str, domain: str | None = None):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.totals[name] += time.perf_counter() - t0


class Tracer(Clock):
    """Clock that also records every span with its parent."""

    def __init__(self, workload: str) -> None:
        super().__init__()
        self.workload = workload
        self.phase = "setup"
        self.pass_no: int | None = None
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, domain: str | None = None):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "phase": self.phase,
            "pass": self.pass_no,
            "domain": domain,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()
            self.totals[name] += rec["end"] - rec["start"]

    def select(self, phase: str) -> list[dict]:
        return [s for s in self.spans if s["phase"] == phase]

    def per_pass_totals(self, name: str) -> list[float]:
        """Total time of spans called `name`, one entry per traced pass."""
        sums: dict[int, float] = defaultdict(float)
        for s in self.select("pass"):
            sums[s["pass"]] += s["end"] - s["start"] if s["name"] == name else 0.0
        return [sums[p] for p in sorted(sums)]

    def median_per_pass(self, name: str) -> float:
        vals = self.per_pass_totals(name)
        return statistics.median(vals) if vals else 0.0

    def phase_total(self, phase: str, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.select(phase) if s["name"] == name)

    def self_time_by_module(self, phase: str) -> dict[str, float]:
        """Self time per module over one phase: each span's duration
        minus the time its child spans cover (children of one span are
        sequential, so their durations add)."""
        spans = self.select(phase)
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            module = s["name"].split(".", 1)[0]
            out[module] += (s["end"] - s["start"]) - child_time[s["id"]]
        return dict(sorted(out.items()))

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)
