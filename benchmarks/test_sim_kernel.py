"""Bench: unified-kernel engine vs the legacy closure loops.

Runs the serving benchmark scenario (10k mixed-model requests over 8
instances, model-affinity dispatch, fixed-4 batching, 5 ms reprogram
penalty) through both engines of the *same* ``ClusterSimulator`` and
records the wall-clock speedup in ``BENCH_results.json``.  The two
engines are bit-identical on this scenario (asserted here and pinned
by the trace-identity goldens), so the speedup is pure overhead
reduction — the kernel must stay >= 2x or the bench fails.

Also records the generation engine's speedup (informational: the
continuous-batching loop is lighter, so the win is smaller), and the
million-request scale benchmark ``serving_1M_requests``: merged
arrivals + batched completions + summary detail against the seed
kernel (the legacy loop), gated at >= 10x
(``sim_kernel_scale_x``, enforced again by the CI bench-trend job).
"""

import gc
import math
import time

from repro import ProTEA, SynthParams
from repro.serving import (
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    fixed_size,
    summarize,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator

MIX = ModelMix({
    "model2-lhc-trigger": 4.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})


def _race(fn_a, fn_b, rounds=7):
    """Interleaved best-of timing for two equivalent functions.

    Alternating A/B within each round decorrelates slow drift (CPU
    frequency, cache pressure from earlier benches) from the ratio;
    GC is paused around each timed call so collection pauses don't
    land on one side of the comparison.
    """
    best_a = best_b = float("inf")
    result_a = result_b = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(rounds):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            result_a = fn_a()
            best_a = min(best_a, time.perf_counter() - t0)
            gc.enable()
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            result_b = fn_b()
            best_b = min(best_b, time.perf_counter() - t0)
            gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    return best_a, result_a, best_b, result_b


def test_bench_kernel_vs_legacy_serving(record_perf):
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(900, MIX, seed=0).generate(11_500)
    assert len(requests) > 9_000
    sim = ClusterSimulator(accel, 8, scheduler="model-affinity",
                           batching=fixed_size(4),
                           reprogram_latency_ms=5.0)
    sim.run(requests)  # warm the service-time memos for both engines

    t_legacy, legacy, t_kernel, kernel = _race(
        lambda: sim.run_legacy(requests), lambda: sim.run(requests))

    # Identical simulations — the comparison is apples to apples.
    assert legacy.trace == kernel.trace
    assert legacy.records == kernel.records
    assert legacy.instances == kernel.instances

    speedup = t_legacy / t_kernel
    record_perf("sim", "serving_kernel_speedup", speedup, "x")
    record_perf("sim", "serving_legacy_run", t_legacy, "s")
    record_perf("sim", "serving_kernel_run", t_kernel, "s")
    assert speedup >= 2.0, (
        f"kernel engine must be >= 2x the legacy loop, got "
        f"{speedup:.2f}x ({t_legacy * 1e3:.1f} ms -> "
        f"{t_kernel * 1e3:.1f} ms)")


def test_bench_kernel_vs_legacy_generation(record_perf):
    accel = ProTEA.synthesize(SynthParams())
    arrivals = PoissonArrivals(40, MIX, seed=1).generate(4_000)
    requests = attach_generation_lengths(
        arrivals, LengthSampler("fixed", 16), LengthSampler("fixed", 24),
        max_total=accel.synth.max_seq_len)
    assert len(requests) > 100
    sim = GenerationClusterSimulator(accel, 2, slots=8,
                                     scheduler="least-loaded")
    sim.run(requests)  # warm the prefill/decode memos

    t_legacy, legacy, t_kernel, kernel = _race(
        lambda: sim.run_legacy(requests), lambda: sim.run(requests))
    assert legacy.trace == kernel.trace
    assert legacy.records == kernel.records

    speedup = t_legacy / t_kernel
    record_perf("sim", "generation_kernel_speedup", speedup, "x")
    assert speedup >= 1.0, (
        f"generation kernel regressed below the legacy loop: "
        f"{speedup:.2f}x")


def _timed_once(fn):
    """One GC-quiet wall-clock measurement (the runs are seconds-long,
    so best-of racing would triple an already heavy bench)."""
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


def test_bench_serving_1M_requests(record_perf):
    """The web-scale row: ~1M requests through one serving fleet.

    Seed kernel = the preserved legacy loop (full per-request records,
    binary heap, every arrival an event).  Scaled kernel = merged
    arrivals, batched completions, and summary detail.  Both reduce
    through :func:`summarize`, and the reports must agree (percentiles
    exactly, means to the ulp) before any number is recorded — the 10x
    is a refactor, not an approximation.
    """
    accel = ProTEA.synthesize(SynthParams())
    requests = PoissonArrivals(
        12_600, ModelMix({"model2-lhc-trigger": 1.0}),
        seed=7).generate(80_000)
    assert len(requests) > 1_000_000
    sim = ClusterSimulator(accel, 8, scheduler="round-robin",
                           batching=fixed_size(8))
    # Warm the service-time memos on a prefix so neither timed run
    # pays first-call synthesis costs.
    sim.run(requests[:2_000], detail="summary")
    sim.run_legacy(requests[:2_000])

    t_seed, legacy = _timed_once(lambda: sim.run_legacy(requests))
    t_fast, summary = _timed_once(
        lambda: sim.run(requests, detail="summary"))

    rep_seed = summarize(legacy)
    rep_fast = summarize(summary)
    assert rep_fast.total_requests == len(requests)
    assert rep_fast.total_requests == rep_seed.total_requests
    assert rep_fast.p50_ms == rep_seed.p50_ms
    assert rep_fast.p99_ms == rep_seed.p99_ms
    assert rep_fast.horizon_ms == rep_seed.horizon_ms
    assert math.isclose(rep_fast.mean_latency_ms,
                        rep_seed.mean_latency_ms, rel_tol=1e-12)

    scale = t_seed / t_fast
    record_perf("sim", "sim_kernel_scale_x", scale, "x",
                context={"requests": len(requests)})
    record_perf("sim", "serving_1M_seed_s", t_seed, "s")
    record_perf("sim", "serving_1M_requests_s", t_fast, "s")
    assert scale >= 10.0, (
        f"scale refactor must hold >= 10x over the seed kernel at 1M "
        f"requests, got {scale:.2f}x ({t_seed:.2f} s -> {t_fast:.2f} s)")
