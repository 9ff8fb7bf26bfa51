"""The accumulated form of a run: the one form the SLO reducers read.

The full-detail engines materialize one frozen ``RequestRecord`` per
request — at 10^6+ requests that object churn *is* the profile, and
the report only needs order statistics and sums of those records.
These containers hold exactly that:

* per-model latency lists (the *exact* multiset, so every percentile —
  nearest-rank order statistics — is bit-identical at either detail);
* per-model wait/batch-size sums (summary-detail runs fold them in
  completion order, the conversion of a full result in rid order, so
  means may differ between the two in the last ulp — percentiles never
  differ);
* the queue-depth step integral, folded one change point at a time by
  :meth:`_Accumulated._sample`;
* the per-instance stats the engines already track incrementally.

:func:`repro.serving.slo.summarize` and
:func:`~repro.serving.slo.summarize_generation` reduce only this form:
``detail="summary"`` runs write it while the events fire, a full
result is converted into it first, and :mod:`repro.sim.shard` merges
per-cell copies of it.  Nothing else writes it.

These containers deliberately import nothing from :mod:`repro.serving`
(the façade imports the engines, which import this module — a
serving-layer import here would be a cycle).  The ``instances`` lists
carry the serving layer's frozen stats objects by reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = ["ServeSummary", "GenerationSummary"]


class _Accumulated:
    """What both accumulated forms share: instance totals and the
    queue-depth step integral (``depth_area`` up to the last change
    point ``(depth_last_t, depth_last)``)."""

    @property
    def total_switches(self) -> int:
        return sum(i.switch_count for i in self.instances)

    @property
    def total_reprogram_time_ms(self) -> float:
        return sum(i.reprogram_time_ms for i in self.instances)

    def _sample(self, point: Tuple[float, int]) -> None:
        """Fold one queue-depth change point ``(t_ms, depth)``."""
        t, d = point
        self.depth_area += self.depth_last * (t - self.depth_last_t)
        self.depth_last_t = t
        self.depth_last = d

    def mean_queue_depth(self, horizon_ms: float) -> float:
        """Close the depth integral at ``horizon_ms``."""
        if horizon_ms <= 0:
            return 0.0
        area = self.depth_area + self.depth_last * max(
            0.0, horizon_ms - self.depth_last_t)
        return area / horizon_ms


@dataclass
class ServeSummary(_Accumulated):
    """Accumulated metrics of one serve run.

    A ``detail="summary"`` run returns it directly;
    :func:`repro.serving.slo.summarize` converts a full
    :class:`~repro.serving.cluster.SimulationResult` into it before
    reducing, so both detail levels report the same (percentiles
    exact, means to the ulp).
    """

    total_requests: int
    makespan_ms: float
    n_instances: int
    scheduler: str
    batching: str
    #: model → latency list in completion order (exact multiset).
    model_lats: Dict[str, List[float]] = field(default_factory=dict)
    #: model → sum of per-request wait (dispatch - arrival) ms.
    model_wait_sum: Dict[str, float] = field(default_factory=dict)
    #: model → sum of batch_size per *request* (i.e. Σ size² per batch).
    model_batch_sq: Dict[str, int] = field(default_factory=dict)
    #: serving-layer ``InstanceStats``, one per instance.
    instances: List[object] = field(default_factory=list)
    # Queue-depth step function, pre-integrated: area up to the last
    # change point, plus the last (t, depth) so the report can close
    # the integral against its horizon.
    depth_area: float = 0.0
    depth_last_t: float = 0.0
    depth_last: int = 0
    max_queue_depth: int = 0
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    degraded_count: Optional[int] = None
    #: Latencies of completed requests that were degraded or retried
    #: (``None`` when the run injected no failures).
    touched_lats: Optional[List[float]] = None

    def _sample(self, point: Tuple[float, int]) -> None:
        """The depth fold, also tracking the deepest point."""
        t, d = point
        self.depth_area += self.depth_last * (t - self.depth_last_t)
        self.depth_last_t = t
        self.depth_last = d
        if d > self.max_queue_depth:
            self.max_queue_depth = d


@dataclass
class GenerationSummary(_Accumulated):
    """Accumulated metrics of one generation run.

    What :func:`repro.serving.slo.summarize_generation` reads, at
    either detail level: TTFT/TPOT/latency multisets (exact
    percentiles), wait sums, token counts, and the queue-depth
    integral.
    """

    total_requests: int
    total_tokens: int
    makespan_ms: float
    n_instances: int
    slots: int
    scheduler: str
    #: Per-request metric lists in completion order (exact multisets).
    ttfts: List[float] = field(default_factory=list)
    #: TPOT of requests with > 1 output token (others have no TPOT).
    tpots: List[float] = field(default_factory=list)
    lats: List[float] = field(default_factory=list)
    wait_sum: float = 0.0
    #: Parallel to ``ttfts``/``lats``: what SLO goodput needs per
    #: request, without materializing per-request tuples.  ``req_tpots``
    #: holds 0.0 for single-token requests (never read for those).
    out_tokens: List[int] = field(default_factory=list)
    req_tpots: List[float] = field(default_factory=list)
    instances: List[object] = field(default_factory=list)
    depth_area: float = 0.0
    depth_last_t: float = 0.0
    depth_last: int = 0
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    total_preemptions: int = 0
