"""Closed-form fleet sizing: the analytic half of ``plan_capacity``.

:func:`propose_fleet` binary-searches the smallest fleet whose
*analytic* estimate (:func:`repro.analytic.serving.estimate_serving`)
meets the p99 SLO and throughput target — valid because the analytic
p99 is monotone non-increasing and the analytic throughput monotone
non-decreasing in fleet size (property-tested in ``tests/analytic``).
A proposal costs a few O(n) envelope walks instead of the dozens of
full event-simulation replays the probe-from-1 search spends, which is
where ``plan_capacity``'s analytic-first speedup comes from; the event
sim then confirms at (and brackets around) the proposal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..serving.batching import BatchingPolicy, ServiceTimeModel
from ..serving.workload import Request
from .serving import AnalyticServingEstimate, _estimate, _workload_pass

__all__ = ["FleetProposal", "propose_fleet"]


@dataclass(frozen=True)
class FleetProposal:
    """Outcome of :func:`propose_fleet`."""

    #: Proposed fleet size (clamped to ``max_instances``).
    instances: int
    #: The analytic estimate at ``instances``.
    estimate: AnalyticServingEstimate
    #: Whether the analytic model believes ``instances`` meets the
    #: targets (False means even ``max_instances`` falls short).
    feasible: bool
    target_p99_ms: float
    target_qps: Optional[float]

    def as_dict(self) -> dict:
        return {
            "instances": self.instances,
            "feasible": self.feasible,
            "target_p99_ms": self.target_p99_ms,
            "target_qps": self.target_qps,
            "estimate": self.estimate.as_dict(),
        }


def propose_fleet(
    accel: ProTEA,
    requests: Sequence[Request],
    target_p99_ms: float,
    target_qps: Optional[float] = None,
    *,
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    max_instances: int = 256,
    failures=None,
    duration_ms: Optional[float] = None,
) -> FleetProposal:
    """Smallest fleet the closed-form model expects to meet the SLO.

    Mirrors :func:`repro.serving.slo.plan_capacity`'s criteria: analytic
    p99 <= ``target_p99_ms`` and (when set) analytic throughput >=
    ``0.95 * target_qps``.  Never raises on infeasibility — it returns
    ``max_instances`` with ``feasible=False`` and lets the caller's
    confirming simulations issue the authoritative verdict.
    """
    if target_p99_ms <= 0:
        raise ValueError("target_p99_ms must be positive")
    if not requests:
        raise ValueError("cannot plan capacity for an empty workload")
    if max_instances < 1:
        raise ValueError(
            "cannot plan capacity over an empty fleet: max_instances "
            "must be >= 1")

    estimates: Dict[int, AnalyticServingEstimate] = {}
    # One service-time model and one workload pass across every
    # candidate fleet: the latency reports depend only on (model,
    # seq_len), and the model counts, sorted arrivals, and envelope
    # not on the fleet at all.
    service = ServiceTimeModel(accel, models or MODEL_ZOO)
    work = _workload_pass(requests, duration_ms)

    def meets(n: int) -> bool:
        est = estimates.get(n)
        if est is None:
            est = _estimate(work, n, service, batching=batching,
                            reprogram_latency_ms=reprogram_latency_ms,
                            failures=failures)
            estimates[n] = est
        ok = est.p99_ms <= target_p99_ms
        if target_qps is not None:
            ok = ok and est.throughput_rps >= 0.95 * target_qps
        return ok

    if not meets(max_instances):
        return FleetProposal(
            instances=max_instances, estimate=estimates[max_instances],
            feasible=False, target_p99_ms=target_p99_ms,
            target_qps=target_qps)
    lo, hi = 0, max_instances  # lo: largest known-infeasible size
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return FleetProposal(
        instances=hi, estimate=estimates[hi], feasible=True,
        target_p99_ms=target_p99_ms, target_qps=target_qps)
