"""Bench: observability must be free when disabled, cheap when on.

PR 6 threaded observer/profiler hooks through the kernel and engine
drain loops.  With nothing attached, the engines execute the exact
pre-hook code path, so the hooks must cost nothing — this bench holds
that contract against the committed perf history.

The detector is legacy-normalized: the serving benchmark scenario runs
through both the untouched legacy loop and the kernel engine
(interleaved best-of timing), and the kernel's speedup is compared
against the median of the historical ``serving_kernel_speedup``
records in ``BENCH_results.json``.  The legacy loop predates the hooks
and was not modified, so dividing by it cancels machine speed, and

    obs_overhead_x = median(historical speedup) / current speedup

is the bare path's slowdown relative to the pre-hook kernel — asserted
<= 1.05x.  A second bench records what a fully instrumented run
(TraceRecorder + MetricsSampler + KernelProfiler) costs relative to a
bare one; that ratio is informational, since observability is opt-in,
but the instrumented results must stay byte-identical.

PR 7 added the SLO watchdog (another observer).  Its gate is

    watch_overhead_x = t(watchdog attached) / t(trace+metrics+profiler)

on a generation failure scenario — the watchdog must not cost more
than the reference instrumented stack users already accept (asserted
<= 1.05x).  Normalizing by another *attached* run on the same machine
cancels machine speed and the shared hook-dispatch cost, which a raw
attached-vs-bare ratio (recorded in the context as
``watch_vs_bare_x``, informational) cannot: per-event Python dispatch
alone puts that ratio far above any useful gate.
"""

import json
import statistics
from pathlib import Path

from repro import FailurePlan, ProTEA, SynthParams
from repro.obs import (
    AnomalyDetector,
    KernelProfiler,
    MetricsSampler,
    TraceRecorder,
    Watchdog,
    compose,
)
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from tests.support import run_legacy_cluster

from test_sim_kernel import _race

RESULTS_PATH = Path(__file__).parent / "output" / "BENCH_results.json"

#: The serving benchmark scenario (same as test_sim_kernel, so the
#: historical speedup records are comparable).
MIX = ModelMix({
    "model2-lhc-trigger": 4.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})


def _scenario():
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(900, MIX, seed=0).generate(11_500)
    sim = ClusterSimulator(accel, 8, scheduler="model-affinity",
                           batching=fixed_size(4),
                           reprogram_latency_ms=5.0)
    sim.run(requests)  # warm the service-time memos
    return sim, requests


def _historical_speedups():
    """Committed ``serving_kernel_speedup`` history (pre-hook runs)."""
    if not RESULTS_PATH.exists():
        return []
    try:
        history = json.loads(RESULTS_PATH.read_text())
    except (ValueError, OSError):
        return []
    return [r["value"] for r in history
            if isinstance(r, dict)
            and r.get("suite") == "sim"
            and r.get("metric") == "serving_kernel_speedup"]


def test_bench_disabled_path_overhead(record_perf):
    sim, requests = _scenario()

    t_legacy, legacy, t_kernel, kernel = _race(
        lambda: run_legacy_cluster(sim, requests),
        lambda: sim.run(requests))
    assert legacy.trace == kernel.trace
    assert legacy.records == kernel.records

    current = t_legacy / t_kernel
    prior = _historical_speedups()
    # A fresh checkout with no history falls back to the kernel bench's
    # own >= 2x floor as the reference (conservative: the recorded
    # medians sit well above it, so the fallback only loosens).
    baseline = statistics.median(prior) if prior else 2.0
    overhead = baseline / current

    record_perf("obs", "obs_overhead_x", overhead, "x",
                context={"baseline_speedup": baseline,
                         "baseline_runs": len(prior),
                         "current_speedup": current})
    assert overhead <= 1.05, (
        f"disabled-observability kernel is {overhead:.3f}x the pre-hook "
        f"kernel (legacy-normalized: speedup {current:.2f}x vs "
        f"historical median {baseline:.2f}x over {len(prior)} runs) — "
        "the observer/profiler hooks must be free when detached")


def test_bench_enabled_path_cost(record_perf):
    sim, requests = _scenario()

    def observed_run():
        tracer = TraceRecorder()
        sampler = MetricsSampler(grid_ms=10.0)
        profiler = KernelProfiler()
        result = sim.run(requests, observer=compose(tracer, sampler),
                         profiler=profiler)
        return result, tracer, sampler, profiler

    t_bare, bare, t_obs, (obs, tracer, sampler, profiler) = _race(
        lambda: sim.run(requests), observed_run, rounds=5)

    # Instrumentation watched a byte-identical simulation...
    assert bare.trace == obs.trace
    assert bare.records == obs.records
    # ...and actually saw it: spans recorded, counters conserved,
    # every popped event profiled.
    assert len(tracer.events) > len(requests)  # arrive instants + spans
    counters = sampler.registry.as_dict()["counters"]
    assert counters["arrivals"] == len(requests)
    assert counters["completions"] == len(requests)
    assert profiler.total_events > 0

    ratio = t_obs / t_bare
    record_perf("obs", "obs_enabled_overhead_x", ratio, "x",
                context={"observers": "trace+metrics+profiler",
                         "requests": len(requests)})
    # Informational, not a perf gate — but a runaway ratio means an
    # observer grew per-event work far beyond bookkeeping.
    assert ratio < 25.0, (
        f"fully instrumented run costs {ratio:.1f}x a bare one")


def test_bench_watchdog_overhead(record_perf):
    """The SLO watchdog must cost no more than the trace+metrics+
    profiler stack it rides alongside (<= 1.05x, gated)."""
    accel = ProTEA.synthesize(SynthParams())
    mix = ModelMix({"model2-lhc-trigger": 2.0, "model1-peng-isqed21": 1.0})
    arrivals = PoissonArrivals(400, mix, seed=3).generate(4_000)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, mean_extra=12.0), seed=5,
        max_total=accel.synth.max_seq_len)
    sim = GenerationClusterSimulator(
        accel, 4, scheduler="least-loaded",
        failures=FailurePlan(mtbf_ms=900.0, mttr_ms=40.0, seed=11))
    sim.run(requests)  # warm the service-time memos

    def watched_run():
        watchdog = Watchdog(slo_ms=30.0, target=0.9, fast_window_ms=50.0,
                            slow_window_ms=200.0, burn_threshold=1.5,
                            detector=AnomalyDetector(min_samples=16,
                                                     debounce=2))
        return sim.run(requests, observer=watchdog), watchdog

    def instrumented_run():
        tracer = TraceRecorder()
        sampler = MetricsSampler(grid_ms=10.0)
        return sim.run(requests, observer=compose(tracer, sampler),
                       profiler=KernelProfiler())

    t_obs, instrumented, t_watch, (watched, watchdog) = _race(
        instrumented_run, watched_run, rounds=5)
    t_bare, bare, _, _ = _race(lambda: sim.run(requests), watched_run,
                               rounds=3)

    # The watchdog watched a byte-identical simulation...
    assert watched.records == bare.records == instrumented.records
    assert watched.trace == bare.trace
    # ...and actually armed: completions counted, rules evaluated.
    assert watchdog.completions == len(requests)
    assert watchdog.rules()

    overhead = t_watch / t_obs
    record_perf("obs", "watch_overhead_x", overhead, "x",
                context={"reference": "trace+metrics+profiler",
                         "watch_vs_bare_x": t_watch / t_bare,
                         "requests": len(requests),
                         "completions": watchdog.completions,
                         "alerts": len(watchdog.alerts())})
    assert overhead <= 1.05, (
        f"watchdog-attached run costs {overhead:.3f}x the reference "
        "instrumented run (trace+metrics+profiler) — the watchdog's "
        "per-completion bookkeeping must stay within the established "
        "observer cost envelope")
