"""Serving metrics and SLO-driven capacity planning.

Percentiles use the nearest-rank definition (exact, no interpolation),
so two runs with identical traces report bit-identical metrics.

:func:`plan_capacity` answers the deployment question the paper's
single-instance numbers cannot: *how many reprogrammable instances does
a target traffic level need to stay inside a p99 latency SLO?*  It is
analytic-first: the closed-form model (:mod:`repro.analytic`) proposes
a fleet size, and the event simulation confirms at — and binary-
searches the bracket around — the proposal instead of probing up from
one instance.  The confirming probes replay the same seeded workload
at ``detail="summary"`` (exact for every statistic the planner reads),
so the returned minimum is still confirmed by, and reproducible from,
a direct simulation run; ``mode="probe"`` keeps the seed probe-from-1
search, and ``confirm=False`` skips simulation entirely and returns
the analytic proposal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analytic.capacity import FleetProposal
from ..core.accelerator import ProTEA
from ..nn.model_zoo import TransformerConfig
from ..sim.summary import GenerationSummary, ServeSummary
from .batching import BatchingPolicy
from .cluster import InstanceStats, SimulationResult, simulate
from .generation import GenerationSimulationResult
from .workload import Request

__all__ = ["percentile", "ModelMetrics", "ServingReport", "summarize",
           "GenerationServingReport", "summarize_generation",
           "CapacityPlan", "plan_capacity"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (q in [0, 100]).

    Matches ``numpy.percentile(..., method="inverted_cdf")`` at every
    rank, including the edges (q=0 → smallest sample, q=100 → largest,
    single-sample inputs) — regression-tested against numpy.  An empty
    input has no percentile of any rank and raises instead of leaking
    an index error (or a silent NaN) to the caller.
    """
    if not values:
        raise ValueError("percentile of an empty sequence is undefined")
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _pct(values: Sequence[float], q: float) -> float:
    """Percentile for report plumbing: empty runs report NaN."""
    return percentile(values, q) if values else math.nan


@dataclass(frozen=True)
class ModelMetrics:
    """Latency/throughput profile of one model within a run."""

    model: str
    count: int
    throughput_rps: float
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_wait_ms: float
    mean_batch_size: float
    slo_attainment: Optional[float] = None


@dataclass(frozen=True)
class ServingReport:
    """Aggregate + per-model + per-instance view of one simulation."""

    total_requests: int
    horizon_ms: float
    throughput_rps: float
    utilization: float
    mean_latency_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    mean_wait_ms: float
    mean_queue_depth: float
    max_queue_depth: int
    total_switches: int
    total_reprogram_time_ms: float
    scheduler: str
    batching: str
    n_instances: int
    slo_ms: Optional[float] = None
    slo_attainment: Optional[float] = None
    per_model: Dict[str, ModelMetrics] = field(default_factory=dict)
    instances: List[InstanceStats] = field(default_factory=list)
    # Failure-injection metrics (None/0 unless the run injected faults;
    # reports omit them then, keeping non-failure renders byte-stable).
    #: Fleet-time fraction up across the run.
    availability: Optional[float] = None
    total_failures: int = 0
    #: Dispatches lost to faults and re-served elsewhere.
    total_retries: int = 0
    #: Requests that arrived while at least one instance was down.
    degraded_count: Optional[int] = None
    #: Tail latency of the degraded-arrival subset (falls back to the
    #: overall p99 when no request saw a degraded fleet).
    p99_degraded_ms: Optional[float] = None
    #: :meth:`repro.obs.Watchdog.summary` of the attached watchdog
    #: (None unless the run was watched; reports omit it then).
    watch: Optional[dict] = None

    def as_dict(self) -> dict:
        """JSON-friendly flattening (CLI ``--json`` output).

        Empty-run statistics are NaN internally; they become ``null``
        here because ``json.dumps`` would emit literal ``NaN``, which
        strict parsers reject."""
        def num(v: float) -> Optional[float]:
            return None if isinstance(v, float) and math.isnan(v) else v

        out = {
            "total_requests": self.total_requests,
            "horizon_ms": self.horizon_ms,
            "throughput_rps": num(self.throughput_rps),
            "utilization": self.utilization,
            "latency_ms": {
                "mean": num(self.mean_latency_ms),
                "p50": num(self.p50_ms),
                "p95": num(self.p95_ms),
                "p99": num(self.p99_ms),
            },
            "mean_wait_ms": num(self.mean_wait_ms),
            "queue_depth": {"mean": self.mean_queue_depth,
                            "max": self.max_queue_depth},
            "reprogramming": {"switches": self.total_switches,
                              "time_ms": self.total_reprogram_time_ms},
            "scheduler": self.scheduler,
            "batching": self.batching,
            "instances": self.n_instances,
            "per_model": {
                name: {
                    "count": m.count,
                    "throughput_rps": m.throughput_rps,
                    "mean_latency_ms": m.mean_latency_ms,
                    "p50_ms": m.p50_ms,
                    "p95_ms": m.p95_ms,
                    "p99_ms": m.p99_ms,
                    "mean_wait_ms": m.mean_wait_ms,
                    "mean_batch_size": m.mean_batch_size,
                    **({"slo_attainment": m.slo_attainment}
                       if m.slo_attainment is not None else {}),
                }
                for name, m in sorted(self.per_model.items())
            },
            "per_instance": [
                {"index": i.index, "requests": i.requests,
                 "batches": i.batches, "busy_ms": i.busy_ms,
                 "switches": i.switch_count,
                 # switch_ms: time this instance spent reprogramming —
                 # the text report shows it, so the JSON must too.
                 "switch_ms": i.reprogram_time_ms}
                for i in self.instances
            ],
        }
        if self.slo_ms is not None:
            out["slo"] = {"p_latency_ms": self.slo_ms,
                          "attainment": self.slo_attainment}
        if self.availability is not None:
            out["failures"] = {
                "availability": self.availability,
                "count": self.total_failures,
                "retries": self.total_retries,
                "degraded_requests": self.degraded_count,
                "p99_degraded_ms": num(self.p99_degraded_ms),
            }
        if self.watch is not None:
            out["watch"] = self.watch
        return out


def summarize(result: Union[SimulationResult, ServeSummary],
              slo_ms: Optional[float] = None,
              watch: Optional[dict] = None) -> ServingReport:
    """Reduce a simulation to its serving metrics.

    :class:`~repro.sim.summary.ServeSummary` is the one form this
    reducer reads: a ``detail="summary"`` run returns it, and a full
    :class:`SimulationResult` is converted into it first.  Both detail
    levels therefore produce the same report — percentile fields
    bit-identical (exact latency multisets), means equal to the last
    ulp (the engine folds sums in completion order, the conversion in
    rid order).

    ``watch`` is the :meth:`repro.obs.Watchdog.summary` dict of a
    watchdog that observed this run; it rides along into the report
    (and its ``--json``/text renders) untouched.
    """
    s = (result if isinstance(result, ServeSummary)
         else _serve_summary(result))
    horizon = s.makespan_ms
    horizon_s = horizon / 1e3 if horizon > 0 else math.nan
    model_names = sorted(s.model_lats)
    ordered_by_model = {name: sorted(s.model_lats[name])
                        for name in model_names}
    if len(model_names) == 1:
        # Single-model runs dominate the web-scale benchmarks: the
        # per-model sort IS the overall sort, so don't pay it twice.
        only = model_names[0]
        all_lats: List[float] = s.model_lats[only]
        all_sorted = ordered_by_model[only]
    else:
        all_lats = []
        for name in model_names:
            all_lats.extend(s.model_lats[name])
        all_sorted = sorted(all_lats)
    n = len(all_sorted)

    def attainment(lats: Sequence[float]) -> Optional[float]:
        if slo_ms is None or not lats:
            return None
        return sum(1 for v in lats if v <= slo_ms) / len(lats)

    per_model: Dict[str, ModelMetrics] = {}
    for name in model_names:
        lats = s.model_lats[name]
        cnt = len(lats)
        ordered = ordered_by_model[name]
        per_model[name] = ModelMetrics(
            model=name,
            count=cnt,
            throughput_rps=cnt / horizon_s,
            mean_latency_ms=sum(lats) / cnt,
            p50_ms=_nearest_rank(ordered, 50),
            p95_ms=_nearest_rank(ordered, 95),
            p99_ms=_nearest_rank(ordered, 99),
            mean_wait_ms=s.model_wait_sum[name] / cnt,
            mean_batch_size=s.model_batch_sq[name] / cnt,
            slo_attainment=attainment(lats),
        )

    degraded_count = p99_degraded = None
    if s.availability is not None:
        touched = s.touched_lats or []
        degraded_count = s.degraded_count
        # An undominatable NaN would poison Pareto fronts: when no
        # request saw a degraded fleet, the degraded tail IS the tail.
        p99_degraded = (percentile(touched, 99) if touched
                        else (_nearest_rank(all_sorted, 99) if n
                              else math.nan))

    busy = sum(i.busy_ms for i in s.instances)
    return ServingReport(
        total_requests=n,
        horizon_ms=horizon,
        throughput_rps=n / horizon_s if n else 0.0,
        utilization=(busy / (s.n_instances * horizon)
                     if horizon > 0 else 0.0),
        mean_latency_ms=sum(all_lats) / n if n else math.nan,
        p50_ms=_nearest_rank(all_sorted, 50) if n else math.nan,
        p95_ms=_nearest_rank(all_sorted, 95) if n else math.nan,
        p99_ms=_nearest_rank(all_sorted, 99) if n else math.nan,
        mean_wait_ms=(sum(s.model_wait_sum[name] for name in model_names)
                      / n if n else math.nan),
        mean_queue_depth=s.mean_queue_depth(horizon),
        max_queue_depth=s.max_queue_depth,
        total_switches=s.total_switches,
        total_reprogram_time_ms=s.total_reprogram_time_ms,
        scheduler=s.scheduler,
        batching=s.batching,
        n_instances=s.n_instances,
        slo_ms=slo_ms,
        slo_attainment=attainment(all_sorted),
        per_model=per_model,
        instances=list(s.instances),
        availability=s.availability,
        total_failures=s.total_failures,
        total_retries=s.total_retries,
        degraded_count=degraded_count,
        p99_degraded_ms=p99_degraded,
        watch=watch,
    )


def _nearest_rank(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def _serve_summary(result: SimulationResult) -> ServeSummary:
    """A full serve result in the accumulated form :func:`summarize`
    reads: one pass over the records in rid order, one over the
    queue-depth samples."""
    recs = result.records
    s = ServeSummary(
        total_requests=len(recs),
        makespan_ms=result.makespan_ms,
        n_instances=result.n_instances,
        scheduler=result.scheduler,
        batching=result.batching,
        instances=list(result.instances),
        availability=result.availability,
        total_failures=result.total_failures,
        total_retries=result.total_retries,
    )
    m_lats, m_wait, m_sq = s.model_lats, s.model_wait_sum, s.model_batch_sq
    for r in recs:
        model = r.model
        if model not in m_lats:
            m_lats[model] = []
            m_wait[model] = 0.0
            m_sq[model] = 0
        t0 = r.t_arrival_ms
        m_lats[model].append(r.t_complete_ms - t0)
        m_wait[model] += r.t_dispatch_ms - t0
        m_sq[model] += r.batch_size
    if result.availability is not None:
        s.touched_lats = [r.latency_ms for r in recs
                          if r.degraded or r.retries]
        s.degraded_count = sum(1 for r in recs if r.degraded)
    sample = s._sample
    for point in result.queue_samples:
        sample(point)
    return s


@dataclass(frozen=True)
class GenerationServingReport:
    """Token-level metrics of one continuous-batching simulation.

    TTFT (time to first token) and TPOT (time per output token) are the
    generation SLO pair; **goodput** is the tokens/s produced by
    requests that met *both* SLOs — the capacity a generation service
    can actually sell.
    """

    total_requests: int
    total_tokens: int
    horizon_ms: float
    throughput_rps: float
    tokens_per_s: float
    utilization: float
    mean_ttft_ms: float
    p50_ttft_ms: float
    p95_ttft_ms: float
    p99_ttft_ms: float
    mean_tpot_ms: float
    p99_tpot_ms: float
    mean_latency_ms: float
    p99_latency_ms: float
    mean_wait_ms: float
    mean_queue_depth: float
    total_switches: int
    total_reprogram_time_ms: float
    scheduler: str
    n_instances: int
    slots: int
    ttft_slo_ms: Optional[float] = None
    tpot_slo_ms: Optional[float] = None
    slo_attainment: Optional[float] = None
    goodput_tokens_per_s: Optional[float] = None
    instances: List["object"] = field(default_factory=list)
    # Scenario-layer metrics (omitted from reports when inactive).
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0
    total_preemptions: int = 0
    #: :meth:`repro.obs.Watchdog.summary` of the attached watchdog
    #: (None unless the run was watched; reports omit it then).
    watch: Optional[dict] = None

    def as_dict(self) -> dict:
        """JSON-friendly flattening (NaN → null for strict parsers)."""
        def num(v):
            return (None if isinstance(v, float) and math.isnan(v) else v)

        out = {
            "total_requests": self.total_requests,
            "total_tokens": self.total_tokens,
            "horizon_ms": self.horizon_ms,
            "throughput_rps": num(self.throughput_rps),
            "tokens_per_s": num(self.tokens_per_s),
            "utilization": self.utilization,
            "ttft_ms": {"mean": num(self.mean_ttft_ms),
                        "p50": num(self.p50_ttft_ms),
                        "p95": num(self.p95_ttft_ms),
                        "p99": num(self.p99_ttft_ms)},
            "tpot_ms": {"mean": num(self.mean_tpot_ms),
                        "p99": num(self.p99_tpot_ms)},
            "latency_ms": {"mean": num(self.mean_latency_ms),
                           "p99": num(self.p99_latency_ms)},
            "mean_wait_ms": num(self.mean_wait_ms),
            "queue_depth_mean": self.mean_queue_depth,
            "reprogramming": {"switches": self.total_switches,
                              "time_ms": self.total_reprogram_time_ms},
            "scheduler": self.scheduler,
            "instances": self.n_instances,
            "slots": self.slots,
            "per_instance": [
                {"index": i.index, "requests": i.requests,
                 "steps": i.steps, "prefills": i.prefills,
                 "tokens": i.tokens, "busy_ms": i.busy_ms,
                 "switches": i.switch_count,
                 "switch_ms": i.reprogram_time_ms}
                for i in self.instances
            ],
        }
        if self.ttft_slo_ms is not None or self.tpot_slo_ms is not None:
            out["slo"] = {"ttft_ms": self.ttft_slo_ms,
                          "tpot_ms": self.tpot_slo_ms,
                          "attainment": num(self.slo_attainment),
                          "goodput_tokens_per_s":
                              num(self.goodput_tokens_per_s)}
        if self.availability is not None:
            out["failures"] = {"availability": self.availability,
                               "count": self.total_failures,
                               "retries": self.total_retries}
        if self.total_preemptions:
            out["preemptions"] = self.total_preemptions
        if self.watch is not None:
            out["watch"] = self.watch
        return out


def summarize_generation(
    result: Union[GenerationSimulationResult, GenerationSummary],
    ttft_slo_ms: Optional[float] = None,
    tpot_slo_ms: Optional[float] = None,
    watch: Optional[dict] = None,
) -> GenerationServingReport:
    """Reduce a generation simulation to its TTFT/TPOT/goodput metrics.

    :class:`~repro.sim.summary.GenerationSummary` is the one form this
    reducer reads: a ``detail="summary"`` run returns it, and a full
    :class:`GenerationSimulationResult` is converted into it first.
    Both detail levels therefore produce the same report — percentile
    fields bit-identical (exact multisets), means equal to the last
    ulp (the engine folds sums in completion order, the conversion in
    rid order).  Goodput walks the parallel per-request columns
    (``ttfts``, ``req_tpots``, ``out_tokens``).

    ``watch`` is the :meth:`repro.obs.Watchdog.summary` dict of a
    watchdog that observed this run (see :func:`summarize`).
    """
    s = (result if isinstance(result, GenerationSummary)
         else _generation_summary(result))
    horizon = s.makespan_ms
    horizon_s = horizon / 1e3 if horizon > 0 else math.nan
    n = s.total_requests

    slo_active = ttft_slo_ms is not None or tpot_slo_ms is not None
    good_count = 0
    good_tokens = 0
    if slo_active and n:
        for ttft, tpot, out in zip(s.ttfts, s.req_tpots, s.out_tokens):
            if ttft_slo_ms is not None and ttft > ttft_slo_ms:
                continue
            if (tpot_slo_ms is not None and out > 1
                    and tpot > tpot_slo_ms):
                continue
            good_count += 1
            good_tokens += out

    busy = sum(i.busy_ms for i in s.instances)
    mean = lambda xs: sum(xs) / len(xs) if xs else math.nan  # noqa: E731
    return GenerationServingReport(
        total_requests=n,
        total_tokens=s.total_tokens,
        horizon_ms=horizon,
        throughput_rps=n / horizon_s if n else 0.0,
        tokens_per_s=s.total_tokens / horizon_s if n else 0.0,
        utilization=(busy / (s.n_instances * horizon)
                     if horizon > 0 else 0.0),
        mean_ttft_ms=mean(s.ttfts),
        p50_ttft_ms=_pct(s.ttfts, 50),
        p95_ttft_ms=_pct(s.ttfts, 95),
        p99_ttft_ms=_pct(s.ttfts, 99),
        mean_tpot_ms=mean(s.tpots),
        p99_tpot_ms=_pct(s.tpots, 99),
        mean_latency_ms=mean(s.lats),
        p99_latency_ms=_pct(s.lats, 99),
        mean_wait_ms=s.wait_sum / n if n else math.nan,
        mean_queue_depth=s.mean_queue_depth(horizon),
        total_switches=s.total_switches,
        total_reprogram_time_ms=s.total_reprogram_time_ms,
        scheduler=s.scheduler,
        n_instances=s.n_instances,
        slots=s.slots,
        ttft_slo_ms=ttft_slo_ms,
        tpot_slo_ms=tpot_slo_ms,
        slo_attainment=(good_count / n if slo_active and n else None),
        goodput_tokens_per_s=(good_tokens / horizon_s
                              if slo_active and n else None),
        instances=list(s.instances),
        availability=s.availability,
        total_failures=s.total_failures,
        total_retries=s.total_retries,
        total_preemptions=s.total_preemptions,
        watch=watch,
    )


def _generation_summary(
        result: GenerationSimulationResult) -> GenerationSummary:
    """A full generation result in the accumulated form
    :func:`summarize_generation` reads: one pass over the records in
    rid order, one over the queue-depth samples."""
    s = GenerationSummary(
        total_requests=len(result.records),
        total_tokens=result.total_tokens,
        makespan_ms=result.makespan_ms,
        n_instances=result.n_instances,
        slots=result.slots,
        scheduler=result.scheduler,
        instances=list(result.instances),
        availability=result.availability,
        total_failures=result.total_failures,
        total_retries=result.total_retries,
        total_preemptions=result.total_preemptions,
    )
    for r in result.records:
        out = r.output_tokens
        tpot = r.tpot_ms
        s.ttfts.append(r.ttft_ms)
        s.lats.append(r.latency_ms)
        s.wait_sum += r.wait_ms
        s.out_tokens.append(out)
        s.req_tpots.append(tpot)
        if out > 1:
            s.tpots.append(tpot)
    sample = s._sample
    for point in result.queue_samples:
        sample(point)
    return s


@dataclass(frozen=True)
class CapacityPlan:
    """Outcome of :func:`plan_capacity`."""

    instances: int
    #: Simulated report at ``instances`` (None for analytic-only plans,
    #: i.e. ``confirm=False`` — the estimate then lives in ``analytic``).
    report: Optional[ServingReport]
    target_p99_ms: float
    target_qps: Optional[float]
    #: Fleet sizes probed by confirming simulations: {n: achieved
    #: p99_ms} (empty for analytic-only plans).
    probes: Dict[int, float] = field(default_factory=dict)
    #: The closed-form proposal the search started from (None in
    #: ``mode="probe"``, the seed probe-from-1 search).
    analytic: Optional["FleetProposal"] = None

    @property
    def meets_slo(self) -> bool:
        if self.report is not None:
            return self.report.p99_ms <= self.target_p99_ms
        return self.analytic.estimate.p99_ms <= self.target_p99_ms


def plan_capacity(
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
    mode: str = "analytic",
    confirm: bool = True,
    probe_detail: str = "summary",
    shards: int = 1,
    shard_jobs: Optional[int] = None,
) -> CapacityPlan:
    """Minimum fleet size meeting the p99 SLO (and target throughput).

    Analytic-first (``mode="analytic"``, the default): the closed-form
    model of :mod:`repro.analytic` proposes a fleet size, a confirming
    simulation checks it, and a gallop + binary search around the
    proposal pins the minimum (queueing delay is monotone
    non-increasing in fleet size for these policies).  A good proposal
    costs 2-3 simulated probes instead of the ~2·log2(n) the seed
    search spends probing up from one instance — and the final answer
    is identical, because the same simulator issues the verdict either
    way.  ``mode="probe"`` keeps the seed search (exponential probing
    from 1, then binary search); ``confirm=False`` skips simulation
    entirely and returns the analytic proposal (``report=None``,
    estimate in ``plan.analytic``).

    Confirming probes run at ``probe_detail`` (``"summary"`` by
    default: exact for every statistic the planner reads, without
    materializing per-request records) and can be sharded across
    worker processes (``shards``/``shard_jobs``, summary detail only —
    see :meth:`ClusterSimulator.run_sharded`).

    Raises ``RuntimeError`` if even ``max_instances`` fails.

    ``failures`` (a :class:`~repro.sim.failures.FailurePlan`) plans
    capacity under fault injection — each instance's fault history is
    seeded per index, so probe fleets share fault draws and the search
    stays monotone in practice.
    """
    if target_p99_ms <= 0:
        raise ValueError("target_p99_ms must be positive")
    if not requests:
        raise ValueError("cannot plan capacity for an empty workload")
    if max_instances < 1:
        raise ValueError(
            "cannot plan capacity over an empty fleet: max_instances "
            "must be >= 1")
    if mode not in ("analytic", "probe"):
        raise ValueError(f"unknown plan mode {mode!r}; "
                         "available: ['analytic', 'probe']")
    if probe_detail not in ("summary", "full"):
        raise ValueError(f"unknown probe detail {probe_detail!r}; "
                         "available: ['full', 'summary']")
    if not confirm and mode != "analytic":
        raise ValueError("confirm=False requires mode='analytic' "
                         "(an unconfirmed plan IS the analytic proposal)")
    if shards != 1 and probe_detail != "summary":
        raise ValueError("sharded probes require probe_detail='summary' "
                         "(per-request records cannot be sharded)")

    proposal = None
    if mode == "analytic":
        # Lazy: repro.analytic builds on the serving layer's service-
        # time model, so importing it at module scope would be a cycle.
        from ..analytic.capacity import propose_fleet

        proposal = propose_fleet(
            accel, requests, target_p99_ms, target_qps,
            batching=batching, models=models,
            reprogram_latency_ms=reprogram_latency_ms,
            max_instances=max_instances, failures=failures)
        if not confirm:
            return CapacityPlan(
                instances=proposal.instances,
                report=None,
                target_p99_ms=target_p99_ms,
                target_qps=target_qps,
                analytic=proposal,
            )

    probes: Dict[int, float] = {}
    reports: Dict[int, ServingReport] = {}
    verdicts: Dict[int, bool] = {}

    def meets(n: int) -> bool:
        if n in verdicts:
            return verdicts[n]
        # Every shard cell needs at least one instance, so probes below
        # the shard count degrade gracefully to one cell per instance.
        eff_shards = min(shards, n)
        result = simulate(accel, requests, n, scheduler=scheduler,
                          batching=batching, models=models,
                          reprogram_latency_ms=reprogram_latency_ms,
                          failures=failures, detail=probe_detail,
                          shards=eff_shards,
                          shard_jobs=shard_jobs if eff_shards > 1 else None)
        report = summarize(result, slo_ms=target_p99_ms)
        probes[n] = report.p99_ms
        reports[n] = report
        ok = report.p99_ms <= target_p99_ms
        if target_qps is not None:
            ok = ok and report.throughput_rps >= 0.95 * target_qps
        verdicts[n] = ok
        return ok

    def _infeasible_msg() -> str:
        # Name the criterion that actually failed: with a throughput
        # target, every probe may meet the latency SLO yet still fall
        # short of 0.95 * target_qps.
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
        if not parts:  # each criterion met somewhere, never jointly
            parts.append(f"p99 <= {target_p99_ms} ms and "
                         f"throughput >= {0.95 * target_qps:.1f} req/s "
                         f"on the same probe")
        return (f"no fleet of <= {max_instances} instances meets "
                + " and ".join(parts))

    if mode == "probe":
        lo, hi = 0, 1  # lo: largest known-infeasible size
        while not meets(hi):
            lo = hi
            if hi >= max_instances:
                raise RuntimeError(_infeasible_msg())
            hi = min(2 * hi, max_instances)
    elif meets(proposal.instances):
        # Gallop down from the proposal with doubling steps until a
        # fleet misses (or the floor), establishing the bracket.
        hi, lo, step = proposal.instances, 0, 1
        while hi - step >= 1:
            cand = hi - step
            if meets(cand):
                hi = cand
                step *= 2
            else:
                lo = cand
                break
    else:
        # The analytic proposal was optimistic: gallop up until a
        # fleet meets (or max_instances proves infeasible).
        lo, step = proposal.instances, 1
        while True:
            if lo >= max_instances:
                raise RuntimeError(_infeasible_msg())
            cand = min(lo + step, max_instances)
            if meets(cand):
                hi = cand
                break
            lo = cand
            step *= 2
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
        analytic=proposal,
    )
