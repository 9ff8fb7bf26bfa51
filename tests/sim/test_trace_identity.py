"""Trace-identity goldens: kernel engines == legacy loops, byte for byte.

Six seeded scenarios (Poisson/bursty/diurnal x serve/generate) run
through both the preserved legacy closure loops
(:mod:`tests.support.legacy`) and the unified-kernel engines
(``run``).  Each scenario's rendered report must be byte-identical
between the two engines *and* equal to the committed golden under
``tests/goldens/`` — so neither engine can drift, and a diff in either
shows up as a readable report diff.

Each scenario also runs a third time with the full observability stack
attached (trace recorder + metrics sampler + SLO watchdog + kernel
profiler): the observed run must be byte-identical to the bare kernel
run, pinning the ``repro.obs`` contract that observation never
perturbs.

Regenerate after an intentional behavior change with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/sim/test_trace_identity.py
"""

import os
from pathlib import Path

import pytest

from repro.obs import (
    KernelProfiler,
    MetricsSampler,
    TraceRecorder,
    Watchdog,
    compose,
)
from repro.serving import (
    BurstyArrivals,
    DiurnalArrivals,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
    render_generation_report,
    render_serving_report,
    summarize,
    summarize_generation,
    timeout,
)
from repro.serving.cluster import ClusterSimulator
from repro.serving.generation import GenerationClusterSimulator
from tests.support import run_legacy_cluster, run_legacy_generation

GOLDENS = Path(__file__).parent.parent / "goldens"

MIX = ModelMix({
    "model2-lhc-trigger": 3.0,
    "model1-peng-isqed21": 2.0,
    "model3-efa-trans": 1.0,
})

#: scenario name -> arrival-process factory (fixed seeds: these define
#: the goldens).
SCENARIOS = {
    "poisson": lambda: PoissonArrivals(500, MIX, seed=101),
    "bursty": lambda: BurstyArrivals(400, MIX, seed=202,
                                     burst_factor=5.0, dwell_ms=80.0),
    "diurnal": lambda: DiurnalArrivals(600, MIX, seed=303,
                                       period_ms=600.0),
}
GEN_SCENARIOS = {
    "poisson": lambda: PoissonArrivals(30, MIX, seed=404),
    "bursty": lambda: BurstyArrivals(25, MIX, seed=505, dwell_ms=120.0),
    "diurnal": lambda: DiurnalArrivals(40, MIX, seed=606,
                                       period_ms=500.0),
}


def _check_golden(name: str, rendered: str) -> None:
    path = GOLDENS / name
    if os.environ.get("REPRO_REGEN_GOLDENS"):
        path.parent.mkdir(exist_ok=True)
        path.write_text(rendered)
    assert path.exists(), (
        f"golden {name} missing — run with REPRO_REGEN_GOLDENS=1 to "
        "create it, then commit the file")
    assert rendered == path.read_text(), (
        f"rendered report diverged from golden {name}; if the change "
        "is intentional, regenerate with REPRO_REGEN_GOLDENS=1")


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_serve_trace_identity(default_accel, scenario):
    """serve: legacy and kernel reports are byte-identical + golden."""
    requests = SCENARIOS[scenario]().generate(600.0)
    assert requests, "scenario generated an empty workload"
    sim = ClusterSimulator(
        default_accel, 3, scheduler="model-affinity",
        batching=timeout(4, 2.0), reprogram_latency_ms=5.0)
    legacy = run_legacy_cluster(sim, requests)
    kernel = sim.run(requests)
    assert legacy.trace == kernel.trace
    assert legacy.records == kernel.records
    assert legacy.queue_samples == kernel.queue_samples
    assert legacy.instances == kernel.instances
    tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=25.0)
    watchdog = Watchdog(slo_ms=50.0)
    observed = sim.run(requests, observer=compose(tracer, sampler, watchdog),
                       profiler=KernelProfiler())
    assert observed.trace == kernel.trace
    assert observed.records == kernel.records
    assert observed.queue_samples == kernel.queue_samples
    assert observed.instances == kernel.instances
    assert tracer.events and sampler.registry.series
    assert watchdog.completions == len(observed.records)
    title = f"Golden: serve/{scenario}"
    rep_legacy = render_serving_report(summarize(legacy, slo_ms=50.0),
                                       title=title)
    rep_kernel = render_serving_report(summarize(kernel, slo_ms=50.0),
                                       title=title)
    rep_observed = render_serving_report(summarize(observed, slo_ms=50.0),
                                         title=title)
    assert rep_legacy == rep_kernel
    assert rep_observed == rep_kernel
    _check_golden(f"serve_{scenario}.txt", rep_kernel + "\n")


@pytest.mark.parametrize("scenario", sorted(GEN_SCENARIOS))
def test_generate_trace_identity(default_accel, scenario):
    """generate: legacy and kernel reports byte-identical + golden."""
    arrivals = GEN_SCENARIOS[scenario]().generate(500.0)
    assert arrivals, "scenario generated an empty workload"
    requests = attach_generation_lengths(
        arrivals,
        LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, 48, mean_extra=10.0),
        seed=77, max_total=default_accel.synth.max_seq_len)
    sim = GenerationClusterSimulator(
        default_accel, 2, slots=4, scheduler="least-loaded",
        reprogram_latency_ms=3.0)
    legacy = run_legacy_generation(sim, requests)
    kernel = sim.run(requests)
    assert legacy.trace == kernel.trace
    assert legacy.records == kernel.records
    assert legacy.queue_samples == kernel.queue_samples
    assert legacy.instances == kernel.instances
    tracer, sampler = TraceRecorder(), MetricsSampler(grid_ms=25.0)
    watchdog = Watchdog(slo_ms=40.0)
    observed = sim.run(requests, observer=compose(tracer, sampler, watchdog),
                       profiler=KernelProfiler())
    assert observed.trace == kernel.trace
    assert observed.records == kernel.records
    assert observed.queue_samples == kernel.queue_samples
    assert observed.instances == kernel.instances
    assert tracer.events and sampler.registry.series
    assert watchdog.completions == len(observed.records)
    title = f"Golden: generate/{scenario}"
    rep_legacy = render_generation_report(
        summarize_generation(legacy, ttft_slo_ms=40.0, tpot_slo_ms=2.0),
        title=title)
    rep_kernel = render_generation_report(
        summarize_generation(kernel, ttft_slo_ms=40.0, tpot_slo_ms=2.0),
        title=title)
    rep_observed = render_generation_report(
        summarize_generation(observed, ttft_slo_ms=40.0, tpot_slo_ms=2.0),
        title=title)
    assert rep_legacy == rep_kernel
    assert rep_observed == rep_kernel
    _check_golden(f"generate_{scenario}.txt", rep_kernel + "\n")


def test_goldens_directory_complete():
    """Exactly the six scenario goldens are committed (no strays)."""
    expected = {f"serve_{s}.txt" for s in SCENARIOS}
    expected |= {f"generate_{s}.txt" for s in GEN_SCENARIOS}
    present = {p.name for p in GOLDENS.glob("*.txt")}
    assert present == expected, (
        f"goldens drifted: missing {sorted(expected - present)}, "
        f"stray {sorted(present - expected)}")
