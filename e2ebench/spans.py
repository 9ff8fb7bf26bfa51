"""Benchmark-side wall-clock spans around calls into the program's layers.

The benchmark opens one span per public call it makes into a layer of
``repro``; nothing inside the package is instrumented.  A span records
its name, host start/end (``time.perf_counter``), its parent, and the
process RSS at both ends.  ``NULL`` is the untraced stand-in: the same
workload code runs against it and records nothing.

Exports:

* :meth:`Tracer.tree` — indented total/self time per span, with an
  explicit ``unattributed`` row (the root's self time);
* :meth:`Tracer.layer_self_s` — self time summed per layer name;
* :meth:`Tracer.chrome_trace` — Chrome-trace JSON that Perfetto and
  ``chrome://tracing`` open.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    rss_start_mb: float = 0.0
    rss_end_mb: float = 0.0
    children: List[int] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans kept in memory until the workload ends."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = Span(name, 0.0, parent, rss_start_mb=rss_mb())
        self.spans.append(rec)
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            rec.rss_end_mb = rss_mb()

    def self_s(self, idx: int) -> float:
        span = self.spans[idx]
        return span.duration_s - sum(self.spans[c].duration_s
                                     for c in span.children)

    def first(self, name: str) -> Optional[Span]:
        return next((s for s in self.spans if s.name == name), None)

    def layer_self_s(self) -> Dict[str, float]:
        """Self time per non-root span name, plus ``unattributed``.

        ``unattributed`` is the self time of the root spans: time inside
        the timed region that no layer call covers.
        """
        out: Dict[str, float] = {}
        unattributed = 0.0
        for idx, span in enumerate(self.spans):
            if span.parent is None:
                unattributed += self.self_s(idx)
            else:
                out[span.name] = out.get(span.name, 0.0) + self.self_s(idx)
        out["unattributed"] = unattributed
        return out

    def tree(self) -> str:
        """Indented span tree: total s, self s, share of the root."""
        lines = [f"{'span':<44} {'total s':>10} {'self s':>10} "
                 f"{'share':>7} {'rss +MiB':>9}"]

        def walk(idx: int, depth: int, root_s: float) -> None:
            span = self.spans[idx]
            label = "  " * depth + span.name
            lines.append(
                f"{label:<44} {span.duration_s:>10.4f} "
                f"{self.self_s(idx):>10.4f} "
                f"{span.duration_s / root_s if root_s else 0.0:>7.1%} "
                f"{span.rss_end_mb - span.rss_start_mb:>9.1f}")
            for child in span.children:
                walk(child, depth + 1, root_s)
            if span.parent is None:
                un = self.self_s(idx)
                lines.append(
                    f"{'  ' * (depth + 1) + 'unattributed':<44} "
                    f"{un:>10.4f} {un:>10.4f} "
                    f"{un / root_s if root_s else 0.0:>7.1%}")

        for idx, span in enumerate(self.spans):
            if span.parent is None:
                walk(idx, 0, span.duration_s)
        return "\n".join(lines)

    def chrome_trace(self, process_name: str) -> dict:
        """Complete ('X') events on one process row, microsecond clock."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
                   "args": {"name": process_name}}]
        for idx, span in enumerate(self.spans):
            events.append({
                "name": span.name, "cat": "host", "ph": "X",
                "pid": 1, "tid": 1,
                "ts": (span.start - t0) * 1e6,
                "dur": span.duration_s * 1e6,
                "args": {"self_s": self.self_s(idx),
                         "rss_delta_mb": span.rss_end_mb
                         - span.rss_start_mb},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


class NullTracer:
    """Untraced runs: ``span()`` hands back one shared no-op context."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span


NULL = NullTracer()
