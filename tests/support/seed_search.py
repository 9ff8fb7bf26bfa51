"""The seed capacity search, kept as a reference for ``plan_capacity``.

The original :func:`repro.serving.plan_capacity` probed fleet sizes up
from one instance: double until a fleet meets the targets, then bisect
between the last miss and the first hit.  The shipped planner starts
from a closed-form proposal instead and must land on the same plan, so
this search survives here as its oracle (``tests/analytic``) and as
the baseline of ``plan_capacity_speedup_x`` (``benchmarks``).

The verdict is the seed's: a fleet meets the targets when its p99 is
at most ``target_p99_ms`` and, with a throughput target, it serves at
least ``0.95 * target_qps``.  An infeasible search raises the same
``RuntimeError`` text the planner raises.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.core.accelerator import ProTEA
from repro.nn.model_zoo import TransformerConfig
from repro.serving.batching import BatchingPolicy
from repro.serving.cluster import ClusterSimulator
from repro.serving.slo import CapacityPlan, ServingReport, summarize
from repro.serving.workload import Request

from .legacy import run_legacy_cluster

__all__ = ["PROBES", "seed_plan_capacity"]

#: How one probe simulates a fleet: the kernel at summary or full
#: detail, or the pre-kernel serve loop the seed search ran on.
PROBES = {
    "summary": lambda sim, requests: sim.run(requests, detail="summary"),
    "full": lambda sim, requests: sim.run(requests),
    "legacy": run_legacy_cluster,
}


def seed_plan_capacity(
    accel: ProTEA,
    requests: Sequence[Request],
    target_p99_ms: float,
    target_qps: Optional[float] = None,
    scheduler: str = "least-loaded",
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    max_instances: int = 256,
    failures=None,
    *,
    probe: str = "summary",
) -> CapacityPlan:
    """Minimum fleet meeting the targets, found by probing up from 1.

    Takes :func:`~repro.serving.plan_capacity`'s arguments; ``probe``
    names the engine each probe runs on (a key of :data:`PROBES`).
    The returned plan has no ``analytic`` proposal.
    """
    run = PROBES[probe]
    probes: Dict[int, float] = {}
    reports: Dict[int, ServingReport] = {}

    def meets(n: int) -> bool:
        if n not in reports:
            sim = ClusterSimulator(
                accel, n, scheduler=scheduler, batching=batching,
                models=models, reprogram_latency_ms=reprogram_latency_ms,
                failures=failures)
            report = summarize(run(sim, requests), slo_ms=target_p99_ms)
            probes[n] = report.p99_ms
            reports[n] = report
        report = reports[n]
        ok = report.p99_ms <= target_p99_ms
        if target_qps is not None:
            ok = ok and report.throughput_rps >= 0.95 * target_qps
        return ok

    def infeasible() -> RuntimeError:
        best_p99 = min(probes.values())
        parts = []
        if best_p99 > target_p99_ms:
            parts.append(f"p99 <= {target_p99_ms} ms "
                         f"(best probe: {best_p99:.3f} ms)")
        if target_qps is not None:
            best_tput = max(r.throughput_rps for r in reports.values())
            if best_tput < 0.95 * target_qps:
                parts.append(f"throughput >= {0.95 * target_qps:.1f} req/s "
                             f"(best probe: {best_tput:.1f} req/s)")
        if not parts:
            parts.append(f"p99 <= {target_p99_ms} ms and "
                         f"throughput >= {0.95 * target_qps:.1f} req/s "
                         f"on the same probe")
        return RuntimeError(f"no fleet of <= {max_instances} instances "
                            "meets " + " and ".join(parts))

    lo, hi = 0, 1  # lo: largest known-infeasible size
    while not meets(hi):
        lo = hi
        if hi >= max_instances:
            raise infeasible()
        hi = min(2 * hi, max_instances)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if meets(mid):
            hi = mid
        else:
            lo = mid
    return CapacityPlan(
        instances=hi,
        report=reports[hi],
        target_p99_ms=target_p99_ms,
        target_qps=target_qps,
        probes=dict(sorted(probes.items())),
    )
