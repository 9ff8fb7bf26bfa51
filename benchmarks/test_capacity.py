"""Bench: analytic-first capacity planning vs the seed probe search.

The seed ``plan_capacity`` probed fleet sizes from 1 with exponential
doubling, every probe a full-detail run of the seed's event loop.  That
search and loop are kept in ``tests/support``, which pins the
baseline: a faster kernel no longer speeds it up.  The
analytic rewiring proposes a fleet with closed-form M/M/c + fluid
estimates and confirms with a couple of summary-detail simulations
bracketing the proposal.  Both searches must land on the *same* plan
(asserted before any number is recorded), so
``plan_capacity_speedup_x`` is the planner's gain over the seed —
gated >= 5x here and by the CI bench-trend job.

The scenario is capacity-planning scale (~250k requests over a 20 s
horizon): the regime the analytic-first path exists for, where every
avoided probe is seconds of event-loop time.
"""

import gc
import time

from repro import ProTEA, SynthParams
from repro.serving import (
    ModelMix,
    PoissonArrivals,
    fixed_size,
    plan_capacity,
)
from tests.support import seed_plan_capacity

TARGET_P99_MS = 12.0


def _timed_once(fn):
    """One GC-quiet wall-clock measurement (the seed search runs for
    tens of seconds, so best-of racing would triple the bench)."""
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, result


def test_bench_plan_capacity_analytic_first(record_perf):
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(
        12_600, ModelMix({"model2-lhc-trigger": 1.0}),
        seed=7).generate(20_000.0)
    assert len(requests) > 200_000
    qps = len(requests) / 20.0
    kw = dict(target_p99_ms=TARGET_P99_MS, target_qps=qps,
              scheduler="round-robin", batching=fixed_size(8))

    # Warm the service-time memos so neither timed search pays
    # first-call synthesis costs.
    plan_capacity(accel, requests[:2_000], target_p99_ms=TARGET_P99_MS,
                  scheduler="round-robin", batching=fixed_size(8))

    t_seed, seed_plan = _timed_once(
        lambda: seed_plan_capacity(accel, requests, probe="legacy", **kw))
    t_fast, fast_plan = _timed_once(
        lambda: plan_capacity(accel, requests, **kw))

    # Identity first: the speedup only counts if the plans agree.
    assert fast_plan.instances == seed_plan.instances
    assert fast_plan.report.p99_ms == seed_plan.report.p99_ms
    assert fast_plan.meets_slo and seed_plan.meets_slo
    assert len(fast_plan.probes) < len(seed_plan.probes)

    speedup = t_seed / t_fast
    record_perf("capacity", "plan_capacity_speedup_x", speedup, "x",
                context={"requests": len(requests),
                         "instances": fast_plan.instances,
                         "probes_seed": len(seed_plan.probes),
                         "probes_analytic": len(fast_plan.probes)})
    record_perf("capacity", "plan_capacity_seed_s", t_seed, "s")
    record_perf("capacity", "plan_capacity_analytic_s", t_fast, "s")
    assert speedup >= 5.0, (
        f"analytic-first planning must hold >= 5x over the seed "
        f"probe-from-1 search, got {speedup:.2f}x "
        f"({t_seed:.2f} s -> {t_fast:.2f} s)")
