"""Every engine step is priced exactly as the service model prices it.

The generation engine binds each model's decode price table once
(:meth:`~repro.serving.generation.GenerationServiceModel.
decode_pricing`) instead of calling
:meth:`~repro.serving.generation.GenerationServiceModel.decode_step_ms`
per step.  These tests replay a full-detail trace, rebuild each step's
switch penalty, prefill lengths and decode cache lengths from the
events alone, and require every ``("step", ..., duration)`` to equal
the service model's own price bit for bit (compared with
``float.hex``).  The scenarios cover what the single-model goldens do
not: per-instance speeds, model switches and preemption resumes.
"""

import dataclasses
import random

import pytest

from repro.serving import (
    GenerationClusterSimulator,
    LengthSampler,
    ModelMix,
    PoissonArrivals,
    attach_generation_lengths,
)
from repro.sim.failures import FailurePlan
from repro.sim.fleet import FleetSpec, InstanceSpec

TWO_MODELS = ModelMix({"model2-lhc-trigger": 2.0, "model3-efa-trans": 1.0})


def _requests(accel, mix, qps, duration_ms, seed):
    arrivals = PoissonArrivals(qps, mix, seed=seed).generate(duration_ms)
    return attach_generation_lengths(
        arrivals, LengthSampler("uniform", 4, 24),
        LengthSampler("geometric", 2, 32, mean_extra=8.0),
        seed=seed, max_total=accel.synth.max_seq_len)


def _replay_step_prices(sim, result):
    """Check every step's duration against the service model.

    Returns how many steps were checked, switched models, re-prefilled
    a resume, ran on an instance with speed != 1, and decoded three or
    more sequences (where the order of the float sum can matter).
    """
    service = sim.service
    specs = sim.fleet.specs
    active = {i: [] for i in range(len(specs))}    # [rid, cached] in order
    in_flight = {i: [] for i in range(len(specs))}  # the step's decoders
    prefills = {i: [] for i in range(len(specs))}
    resident = dict.fromkeys(range(len(specs)))
    seen = dict.fromkeys(("steps", "switches", "resumes", "scaled", "wide"),
                         0)
    for event in result.trace:
        kind = event[0]
        if kind == "arrive" or kind == "recover":
            continue
        inst = event[2]
        if kind == "fail":
            active[inst], in_flight[inst], prefills[inst] = [], [], []
            resident[inst] = None
            continue
        # Any other event on an instance happens at or after the end of
        # its previous step: that step's decoders gained one token.
        for seq in in_flight[inst]:
            seq[1] += 1
        in_flight[inst] = []
        if kind in ("finish", "preempt"):
            rid = event[3]
            active[inst] = [s for s in active[inst] if s[0] != rid]
        elif kind == "admit":
            active[inst].append([event[3], event[4]])
            prefills[inst].append(event[4])
        elif kind == "resume":
            active[inst].append([event[3], event[4]])
            prefills[inst].append(event[4])
            seen["resumes"] += 1
        else:
            assert kind == "step", event
            _, _, _, model, n_admitted, n_decoding, duration = event
            spec = specs[inst]
            admitted = prefills[inst]
            decoding = active[inst][:len(active[inst]) - len(admitted)]
            assert (n_admitted, n_decoding) == (len(admitted),
                                                len(decoding))
            expected = 0.0
            if resident[inst] != model:
                resident[inst] = model
                expected = (spec.reprogram_latency_ms
                            if spec.reprogram_latency_ms is not None
                            else sim.reprogram_latency_ms)
                seen["switches"] += 1
            for tokens in admitted:
                expected += service.prefill_ms(model, tokens) / spec.speed
            if decoding:
                expected += service.decode_step_ms(
                    model, [cached + 1 for _, cached in decoding]
                ) / spec.speed
            assert duration.hex() == expected.hex(), event
            prefills[inst] = []
            in_flight[inst] = decoding
            seen["steps"] += 1
            seen["scaled"] += spec.speed != 1.0
            seen["wide"] += len(decoding) >= 3
    return seen


class TestStepPricingIdentity:
    def test_heterogeneous_fleet(self, default_accel):
        fleet = FleetSpec((InstanceSpec(speed=0.5),
                           InstanceSpec(speed=1.0, slots=2),
                           InstanceSpec(speed=1.75,
                                        reprogram_latency_ms=0.7)))
        sim = GenerationClusterSimulator(
            default_accel, fleet=fleet, slots=4, scheduler="least-loaded",
            reprogram_latency_ms=1.5)
        result = sim.run(_requests(default_accel, TWO_MODELS, qps=300,
                                   duration_ms=800.0, seed=21))
        seen = _replay_step_prices(sim, result)
        assert seen["steps"] == sum(i.steps for i in result.instances)
        assert seen["scaled"] > 0 and seen["wide"] > 0

    def test_two_model_mix_switches(self, default_accel):
        sim = GenerationClusterSimulator(
            default_accel, 2, slots=6, scheduler="round-robin",
            reprogram_latency_ms=2.5)
        result = sim.run(_requests(default_accel, TWO_MODELS, qps=200,
                                   duration_ms=800.0, seed=22))
        seen = _replay_step_prices(sim, result)
        assert seen["steps"] == sum(i.steps for i in result.instances)
        assert seen["switches"] == sum(i.switch_count
                                       for i in result.instances) > 2
        assert seen["wide"] > 0

    @pytest.mark.parametrize("failures", [
        None, FailurePlan(mtbf_ms=400.0, mttr_ms=40.0, seed=3)],
        ids=["preemption", "preemption-and-failures"])
    def test_preemption_resumes(self, default_accel, failures):
        rng = random.Random(7)
        reqs = [dataclasses.replace(r, priority=rng.choice((0, 0, 0, 1, 2)))
                for r in _requests(default_accel, TWO_MODELS, qps=300,
                                   duration_ms=800.0, seed=23)]
        fleet = FleetSpec((InstanceSpec(speed=1.0),
                           InstanceSpec(speed=0.8)))
        sim = GenerationClusterSimulator(
            default_accel, fleet=fleet, slots=4,
            scheduler="model-affinity", reprogram_latency_ms=1.0,
            failures=failures, preemption=True)
        result = sim.run(reqs)
        seen = _replay_step_prices(sim, result)
        assert seen["steps"] == sum(i.steps for i in result.instances)
        assert result.total_preemptions > 0 and seen["resumes"] > 0
        assert seen["wide"] > 0
        if failures is not None:
            assert result.total_failures > 0
