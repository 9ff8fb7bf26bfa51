"""``detail="summary"`` equivalence against the full-record path.

The summary drains in :mod:`repro.sim.serve` and
:mod:`repro.sim.generate` replay the exact event sequence of the full
path while accumulating only what the SLO reports read.  These tests
pin the contract: every percentile field of the reduced report is
**bit-identical** to the full path's (the engines keep the exact
latency multisets), mean fields agree to the last ulp (float
accumulation follows completion order instead of record order), and
instance stats match exactly.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import KernelProfiler, MetricsSampler, TraceRecorder, compose
from repro.serving import (
    BatchingPolicy,
    ClusterSimulator,
    GenerationClusterSimulator,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    TraceReplay,
    attach_generation_lengths,
    fixed_size,
    simulate,
    simulate_generation,
    summarize,
    summarize_generation,
    timeout,
)
from repro.sim.failures import FailurePlan
from repro.sim.fleet import FleetSpec, InstanceSpec
from repro.sim.summary import GenerationSummary, ServeSummary

MIX = ModelMix({"model2-lhc-trigger": 3.0, "model1-peng-isqed21": 2.0,
                "model3-efa-trans": 1.0})
MIX1 = ModelMix("model2-lhc-trigger")

#: Report fields where the summary path may differ in the last ulp
#: (sums folded in completion order, not rid order).
_ULP_FIELDS = frozenset({
    "mean_latency_ms", "mean_wait_ms", "mean_ttft_ms", "mean_tpot_ms",
    "throughput_rps", "tokens_per_s", "utilization", "mean_queue_depth",
    "goodput_tokens_per_s", "p99_degraded_ms", "availability",
    "mean_batch_size",
})


def _assert_field(name, a, b):
    if name in _ULP_FIELDS and isinstance(a, float) and isinstance(b, float):
        if math.isnan(a):
            assert math.isnan(b), name
        else:
            assert b == pytest.approx(a, rel=1e-12), name
    elif isinstance(a, float) and math.isnan(a):
        # Empty runs report NaN percentiles at both detail levels.
        assert isinstance(b, float) and math.isnan(b), name
    else:
        assert a == b, f"report field {name!r}: full={a!r} summary={b!r}"


def assert_reports_match(full, summary):
    """Field-by-field report equality (ulp tolerance on mean fields)."""
    assert type(full) is type(summary)
    for f in full.__dataclass_fields__:
        a, b = getattr(full, f), getattr(summary, f)
        if f == "per_model":
            assert a.keys() == b.keys()
            for name in a:
                for mf in a[name].__dataclass_fields__:
                    _assert_field(mf, getattr(a[name], mf),
                                  getattr(b[name], mf))
        else:
            _assert_field(f, a, b)


def _requests(qps=400, seed=11, duration=800):
    return PoissonArrivals(qps, MIX, seed=seed).generate(duration)


def _gen_requests(accel, qps=30, seed=404, duration=500.0, lseed=77):
    arrivals = PoissonArrivals(qps, MIX, seed=seed).generate(duration)
    return attach_generation_lengths(
        arrivals,
        LengthSampler("uniform", 8, 24),
        LengthSampler("geometric", 4, 48, mean_extra=10.0),
        seed=lseed, max_total=accel.synth.max_seq_len)


class _CappedTimeout(BatchingPolicy):
    """A custom ``decide``: dispatch at most 2, ignoring the timeout."""

    def decide(self, prefix_len, head_wait_ms):
        return min(prefix_len, 2)


class TestServeSummary:
    @pytest.mark.parametrize("scheduler", ["round-robin", "least-loaded",
                                           "model-affinity"])
    @pytest.mark.parametrize("batching,jitter", [
        (fixed_size(4), 0.0),
        (timeout(4, 2.0), 0.0),
        (timeout(8, 2.0), 0.5),
    ], ids=["fixed-4", "timeout-4", "timeout-8-jitter"])
    def test_fast_drain_matches_full(self, default_accel, scheduler,
                                     batching, jitter):
        """Stock batching (deadline checks included) takes the inlined
        drain on a 3-model mix with switch penalties."""
        reqs = _requests()
        sim = ClusterSimulator(default_accel, 3, scheduler=scheduler,
                               batching=batching, reprogram_latency_ms=2.0,
                               check_jitter_ms=jitter)
        full = summarize(sim.run(reqs), slo_ms=20.0)
        s = sim.run(reqs, detail="summary")
        assert isinstance(s, ServeSummary)
        assert_reports_match(full, summarize(s, slo_ms=20.0))

    @pytest.mark.parametrize("scheduler", ["round-robin", "least-loaded",
                                           "model-affinity"])
    def test_fast_drain_equal_time_ties(self, default_accel, scheduler):
        """Arrivals on a 0.25 ms grid land exactly on 2 ms deadlines, so
        check-vs-arrival ordering at equal timestamps is exercised."""
        rng = random.Random(5)
        models = MIX.names
        reqs = TraceReplay([(0.25 * k, rng.choice(models))
                            for k in range(1200)]).generate()
        sim = ClusterSimulator(default_accel, 3, scheduler=scheduler,
                               batching=timeout(4, 2.0),
                               reprogram_latency_ms=2.0)
        full = summarize(sim.run(reqs), slo_ms=20.0)
        assert_reports_match(
            full, summarize(sim.run(reqs, detail="summary"), slo_ms=20.0))

    def test_generic_drain_matches_full(self, default_accel):
        """A custom ``decide`` keeps the closure drain."""
        reqs = _requests(qps=300, seed=7)
        sim = ClusterSimulator(default_accel, 3, scheduler="model-affinity",
                               batching=_CappedTimeout(
                                   name="capped", max_batch=4,
                                   timeout_ms=2.0),
                               reprogram_latency_ms=5.0)
        full = summarize(sim.run(reqs))
        assert_reports_match(full, summarize(sim.run(reqs, detail="summary")))

    def test_failure_run_matches_full(self, default_accel):
        """Degraded/touched accounting survives the summary reduction."""
        reqs = _requests(qps=250, seed=13, duration=2000)
        plan = FailurePlan(mtbf_ms=700.0, mttr_ms=90.0, seed=5)
        sim = ClusterSimulator(default_accel, 3, scheduler="least-loaded",
                               batching=fixed_size(4), failures=plan)
        full = summarize(sim.run(reqs))
        summ = summarize(sim.run(reqs, detail="summary"))
        assert full.total_retries == summ.total_retries
        assert full.degraded_count == summ.degraded_count
        assert_reports_match(full, summ)

    def test_observer_does_not_perturb_summary(self, default_accel):
        """An attached observer sees events but cannot change floats."""
        reqs = _requests(qps=200, seed=3, duration=400)
        sim = ClusterSimulator(default_accel, 2, scheduler="round-robin",
                               batching=timeout(4, 2.0))
        bare = sim.run(reqs, detail="summary")
        recorder = TraceRecorder()
        obs = compose(recorder, MetricsSampler(grid_ms=25.0))
        observed = sim.run(reqs, observer=obs, detail="summary")
        assert summarize(bare) == summarize(observed)
        assert recorder.events  # the observer actually saw the run

    def test_unknown_detail_rejected(self, default_accel):
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="unknown detail"):
            sim.run(_requests(duration=50), detail="records")

    def test_profiler_requires_full_detail(self, default_accel):
        sim = ClusterSimulator(default_accel, 2)
        with pytest.raises(ValueError, match="detail='full'"):
            sim.run(_requests(duration=50), profiler=KernelProfiler(),
                    detail="summary")

    def test_simulate_facade_passes_detail(self, default_accel):
        s = simulate(default_accel, _requests(duration=100), 2,
                     detail="summary")
        assert isinstance(s, ServeSummary)


class TestGenerationSummary:
    def test_summary_matches_full(self, default_accel):
        reqs = _gen_requests(default_accel)
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0)
        full = summarize_generation(sim.run(reqs), ttft_slo_ms=40.0,
                                    tpot_slo_ms=8.0)
        s = sim.run(reqs, detail="summary")
        assert isinstance(s, GenerationSummary)
        assert_reports_match(
            full, summarize_generation(s, ttft_slo_ms=40.0, tpot_slo_ms=8.0))

    def test_failure_run_matches_full(self, default_accel):
        reqs = _gen_requests(default_accel, qps=35, seed=909,
                             duration=2000.0, lseed=78)
        plan = FailurePlan(mtbf_ms=900.0, mttr_ms=120.0, seed=5)
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0, failures=plan)
        full = summarize_generation(sim.run(reqs))
        summ = summarize_generation(sim.run(reqs, detail="summary"))
        assert full.total_retries == summ.total_retries
        assert full.availability is not None
        assert_reports_match(full, summ)

    def test_priority_preemption_matches_full(self, default_accel):
        rng = random.Random(3)
        reqs = [dataclasses.replace(r, priority=rng.choice([0, 0, 1, 2]))
                for r in _gen_requests(default_accel, qps=35, seed=910,
                                       duration=1500.0, lseed=79)]
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=3.0, preemption=True)
        full = summarize_generation(sim.run(reqs))
        summ = summarize_generation(sim.run(reqs, detail="summary"))
        assert full.total_preemptions == summ.total_preemptions
        assert_reports_match(full, summ)

    def test_unknown_detail_rejected(self, default_accel):
        sim = GenerationClusterSimulator(default_accel, 2, slots=4)
        with pytest.raises(ValueError, match="unknown detail"):
            sim.run(_gen_requests(default_accel, duration=50.0),
                    detail="records")

    def test_profiler_requires_full_detail(self, default_accel):
        sim = GenerationClusterSimulator(default_accel, 2, slots=4)
        with pytest.raises(ValueError, match="detail='full'"):
            sim.run(_gen_requests(default_accel, duration=50.0),
                    profiler=KernelProfiler(), detail="summary")

    def test_simulate_facade_passes_detail(self, default_accel):
        s = simulate_generation(
            default_accel, _gen_requests(default_accel, duration=100.0),
            2, slots=4, detail="summary")
        assert isinstance(s, GenerationSummary)
        report = summarize_generation(s)
        assert report.total_requests == s.total_requests


@st.composite
def _scenario(draw, generation=False):
    """A random stream, fleet, failure plan and observer choice.

    Streams hold 0-300 requests over one to three models, on a 0.25 ms
    grid half the time so arrivals tie with each other and with engine
    events.  Fleets mix speeds and capability sets; the first
    instance's set is widened when needed so every model stays
    servable.
    """
    names = MIX.names
    models = draw(st.lists(st.sampled_from(names), min_size=1,
                           max_size=3, unique=True))
    n = draw(st.integers(0, 300))
    rng = random.Random(draw(st.integers(0, 2**16)))
    gap_ms = draw(st.sampled_from((0.2, 1.0, 4.0) if not generation
                                  else (5.0, 20.0, 60.0)))
    grid = draw(st.booleans())
    events, t = [], 0.0
    for _ in range(n):
        t += rng.expovariate(1.0 / gap_ms)
        events.append((round(t * 4) / 4 if grid else t, rng.choice(models)))
    reqs = TraceReplay(events).generate()
    caps = draw(st.lists(
        st.tuples(st.sampled_from((0.5, 1.0, 2.0)),
                  st.none() | st.lists(st.sampled_from(names), min_size=1,
                                       max_size=2, unique=True)),
        min_size=1, max_size=4))
    served = {m for _, c in caps for m in (c or names)}
    if not set(models) <= served:
        caps[0] = (caps[0][0], None)
    fleet = FleetSpec(tuple(
        InstanceSpec(speed=speed, models=tuple(c) if c else None)
        for speed, c in caps))
    failures = draw(st.none() | st.builds(
        FailurePlan, mtbf_ms=st.sampled_from((30.0, 120.0, 500.0)),
        mttr_ms=st.sampled_from((0.0, 5.0, 40.0)),
        seed=st.integers(0, 99)))
    return reqs, fleet, failures, draw(st.booleans())


def _observed(run, observe, **kw):
    return run(observer=[].append, **kw) if observe else run(**kw)


class TestSummaryEqualsFullProperty:
    """summary == full over generated configurations, for both engines.

    Percentiles and counts must match exactly and means to 1e-12
    relative (:func:`assert_reports_match`).  The full side also has
    to conserve requests (one record per request) and be causal.
    """

    _BATCHING = {
        "none": lambda k, t: None,
        "fixed": lambda k, t: fixed_size(k),
        "timeout": lambda k, t: timeout(k, t),
        "custom": lambda k, t: _CappedTimeout(name="capped", max_batch=k,
                                              timeout_ms=t),
    }

    @settings(max_examples=80, deadline=None)
    @given(scenario=_scenario(),
           scheduler=st.sampled_from(("round-robin", "least-loaded",
                                      "model-affinity")),
           batching=st.sampled_from(sorted(_BATCHING)),
           max_batch=st.integers(1, 6),
           timeout_ms=st.sampled_from((0.5, 2.0)),
           jitter=st.sampled_from((0.0, 0.3, 1.0)))
    def test_serve(self, default_accel, scenario, scheduler, batching,
                   max_batch, timeout_ms, jitter):
        reqs, fleet, failures, observe = scenario
        sim = ClusterSimulator(
            default_accel, scheduler=scheduler, fleet=fleet,
            batching=self._BATCHING[batching](max_batch, timeout_ms),
            reprogram_latency_ms=1.0, check_jitter_ms=jitter,
            failures=failures)
        full = _observed(sim.run, observe, requests=reqs)
        assert sorted(r.rid for r in full.records) == sorted(
            r.rid for r in reqs)
        for r in full.records:
            assert (r.t_arrival_ms <= r.t_dispatch_ms
                    <= r.t_complete_ms)
        summ = _observed(sim.run, observe, requests=reqs, detail="summary")
        assert_reports_match(summarize(full, slo_ms=5.0),
                             summarize(summ, slo_ms=5.0))

    @settings(max_examples=30, deadline=None)
    @given(scenario=_scenario(generation=True),
           scheduler=st.sampled_from(("round-robin", "least-loaded",
                                      "model-affinity")),
           slots=st.integers(1, 4),
           priorities=st.none() | st.lists(st.integers(0, 2), min_size=1),
           length_seed=st.integers(0, 99))
    def test_generation(self, default_accel, scenario, scheduler, slots,
                        priorities, length_seed):
        arrivals, fleet, failures, observe = scenario
        reqs = attach_generation_lengths(
            arrivals, LengthSampler("uniform", 4, 16),
            LengthSampler("geometric", 1, 24, mean_extra=4.0),
            seed=length_seed, max_total=default_accel.synth.max_seq_len)
        if priorities is not None:
            reqs = [dataclasses.replace(
                r, priority=priorities[i % len(priorities)])
                for i, r in enumerate(reqs)]
        sim = GenerationClusterSimulator(
            default_accel, slots=slots, scheduler=scheduler, fleet=fleet,
            reprogram_latency_ms=1.0, failures=failures)
        full = _observed(sim.run, observe, requests=reqs)
        assert sorted(r.rid for r in full.records) == sorted(
            r.rid for r in reqs)
        for r in full.records:
            assert (r.t_arrival_ms <= r.t_admit_ms <= r.t_first_token_ms
                    <= r.t_complete_ms)
        summ = _observed(sim.run, observe, requests=reqs, detail="summary")
        kw = {"ttft_slo_ms": 30.0, "tpot_slo_ms": 3.0}
        assert_reports_match(summarize_generation(full, **kw),
                             summarize_generation(summ, **kw))
