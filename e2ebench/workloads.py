"""The four benchmark workloads, each one closed-loop caller of ``repro``.

Every workload runs the same public calls as one CLI command (noted per
function), one after another, from a seed.  Each call into a layer sits
in a span named after that layer's module; under ``spans.NULL`` the
spans cost nothing and record nothing.  A workload returns its outputs
(and the inputs the checks need); checking them is done elsewhere,
outside the timed region.

The simulated traffic inside each workload is open loop: it comes from
the program's own arrival processes, fixed by the seed.
"""

from __future__ import annotations

import shutil
from pathlib import Path
from typing import Any, Dict

from repro import (EvalCache, ModelMix, PipelinePartitioner, PoissonArrivals,
                   evaluate_point, explore, get_model, plan_capacity,
                   simulate_cluster, simulate_generation, standard_space,
                   summarize, summarize_generation)
from repro.dse import get_objectives
from repro.experiments import table1
from repro.nn import MODEL_ZOO
from repro.serving import (BurstyArrivals, LengthSampler,
                           attach_generation_lengths, attach_priorities,
                           get_batching, render_capacity_plan,
                           render_generation_report, render_serving_report)

# --- serve_steady: `repro serve --qps 9000 --instances 8 --duration-ms 30000`
SERVE_QPS, SERVE_MS, SERVE_INSTANCES = 9000.0, 30_000.0, 8

# --- plan_bursty: `repro serve --plan --scenario bursty --qps 6000
#     --model model2-lhc-trigger:3 --model model1-peng-isqed21:0.02
#     --batch timeout --reprogram-ms 1 --slo-ms 5 --duration-ms 20000`
PLAN_QPS, PLAN_MS, PLAN_SLO_MS, PLAN_REPROGRAM_MS = 6000.0, 20_000.0, 5.0, 1.0
PLAN_MIX = {"model2-lhc-trigger": 3.0, "model1-peng-isqed21": 0.02}

# --- generate_priority: `repro generate --qps 300 --duration-ms 60000
#     --prompt-tokens 8:64 --output-tokens geo:8:24 --priority 0.2
#     --ttft-slo-ms 50 --tpot-slo-ms 5`
GEN_QPS, GEN_MS, GEN_INSTANCES, GEN_SLOTS = 300.0, 60_000.0, 2, 8
GEN_PROMPT, GEN_OUTPUT, GEN_PRIORITY = "8:64", "geo:8:24", 0.2
GEN_TTFT_SLO_MS, GEN_TPOT_SLO_MS = 50.0, 5.0

# --- design_sweep: `repro table1`, `repro partition MODEL -k K`, and
#     `repro dse --prescreen --jobs 2 --resume` over the grid below.
DSE_MODELS = ("bert-variant", "model2-lhc-trigger", "model3-efa-trans")
DSE_TILES_MHA = (4, 8, 12, 16, 24, 48)
DSE_TILES_FFN = (2, 3, 6)
DSE_FORMATS = ("fix8", "fix16")
DSE_DEVICES = (1, 2)
DSE_FLEETS = (1, 2, 4)
#: The four default objectives plus the generation and failure ones.
DSE_OBJECTIVES = ("latency_ms", "throughput_inf_s", "p99_ms", "power_w",
                  "ttft_p99_ms", "tokens_per_s",
                  "availability", "p99_degraded_ms")
DSE_JOBS = 2
PARTITION_DEVICES = (2, 4)


def serve_steady(seed: int, accel, tr, work_dir: Path,
                 profile: bool) -> Dict[str, Any]:
    with tr.span("serving.workload"):
        requests = PoissonArrivals(SERVE_QPS, ModelMix("model2-lhc-trigger"),
                                   seed=seed).generate(SERVE_MS)
    with tr.span("sim.serve"):
        result = simulate_cluster(accel, requests, SERVE_INSTANCES,
                                  scheduler="least-loaded",
                                  batching=get_batching("none", 8, 2.0))
    with tr.span("serving.slo"):
        report = summarize(result)
    with tr.span("serving.report"):
        text = render_serving_report(
            report, title=f"Serving: poisson @ {SERVE_QPS:g} qps, "
                          f"{SERVE_INSTANCES} instance(s), least-loaded")
    return {"requests": requests, "result": result, "report": report,
            "text": text}


def plan_inputs(seed: int):
    """The bursty request stream and the planner's keyword arguments."""
    requests = BurstyArrivals(PLAN_QPS, ModelMix(PLAN_MIX),
                              seed=seed).generate(PLAN_MS)
    kwargs = {"target_p99_ms": PLAN_SLO_MS,
              # Gate on the realized offered load, as `serve --plan` does.
              "target_qps": len(requests) / PLAN_MS * 1e3,
              "batching": get_batching("timeout", 8, 2.0),
              "reprogram_latency_ms": PLAN_REPROGRAM_MS}
    return requests, kwargs


def plan_bursty(seed: int, accel, tr, work_dir: Path,
                profile: bool) -> Dict[str, Any]:
    with tr.span("serving.workload"):
        requests, kwargs = plan_inputs(seed)
    with tr.span("serving.slo.plan_capacity"):
        plan = plan_capacity(accel, requests, scheduler="least-loaded",
                             **kwargs)
    with tr.span("serving.report"):
        text = render_capacity_plan(plan)
    return {"requests": requests, "plan_kwargs": kwargs, "plan": plan,
            "text": text}


def generate_priority(seed: int, accel, tr, work_dir: Path,
                      profile: bool) -> Dict[str, Any]:
    with tr.span("serving.workload"):
        arrivals = PoissonArrivals(GEN_QPS, ModelMix("model2-lhc-trigger"),
                                   seed=seed).generate(GEN_MS)
        requests = attach_generation_lengths(
            arrivals, LengthSampler.parse(GEN_PROMPT),
            LengthSampler.parse(GEN_OUTPUT), seed=seed,
            max_total=accel.synth.max_seq_len)
        requests = attach_priorities(requests, GEN_PRIORITY, seed=seed)
    with tr.span("sim.generate"):
        result = simulate_generation(accel, requests, GEN_INSTANCES,
                                     slots=GEN_SLOTS,
                                     scheduler="least-loaded")
    with tr.span("serving.slo"):
        report = summarize_generation(result, ttft_slo_ms=GEN_TTFT_SLO_MS,
                                      tpot_slo_ms=GEN_TPOT_SLO_MS)
    with tr.span("serving.report"):
        text = render_generation_report(
            report, title=f"Generation: poisson @ {GEN_QPS:g} qps, "
                          f"{GEN_INSTANCES} instance(s) x {GEN_SLOTS} "
                          "slot(s), least-loaded")
    return {"requests": requests, "result": result, "report": report,
            "text": text}


def dse_space():
    return standard_space(models=DSE_MODELS, tiles_mha=DSE_TILES_MHA,
                          tiles_ffn=DSE_TILES_FFN, formats=DSE_FORMATS,
                          devices=DSE_DEVICES, fleets=DSE_FLEETS)


def dse_objectives():
    return get_objectives(DSE_OBJECTIVES)


def dse_settings(seed: int) -> Dict[str, Any]:
    """`repro dse` defaults, with only the selected objectives' sims."""
    return {"qps": 200.0, "duration_ms": 300.0, "seed": seed,
            "link": "aurora", "gen_objectives": True,
            "fail_objectives": True, "watch_objectives": False}


def design_sweep(seed: int, accel, tr, work_dir: Path,
                 profile: bool) -> Dict[str, Any]:
    with tr.span("experiments.table1"):
        table = table1.run()
        table_text = table1.render(table)
    plans = {}
    with tr.span("parallel"):
        partitioner = PipelinePartitioner(accel)
        for name in MODEL_ZOO:
            cfg = get_model(name)
            for k in PARTITION_DEVICES:
                # Each pipeline stage owns at least one layer.
                if cfg.num_layers >= k:
                    plans[(name, k)] = partitioner.best_plan(cfg, k)
    space = dse_space()
    sweep = {"objectives": dse_objectives(), "strategy": "prescreen",
             "strategy_options": {"inner": "grid", "seed": seed},
             "settings": dse_settings(seed), "jobs": DSE_JOBS,
             "profile": profile}
    cache_dir = work_dir / "dse_cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    with tr.span("dse.cold"):
        cold = explore(space, evaluate_point, cache=EvalCache(cache_dir),
                       **sweep)
    with tr.span("dse.warm"):
        warm = explore(space, evaluate_point, cache=EvalCache(cache_dir),
                       **sweep)
    return {"table": table, "table_text": table_text, "plans": plans,
            "cold": cold, "warm": warm}


WORKLOADS = {
    "serve_steady": serve_steady,
    "plan_bursty": plan_bursty,
    "generate_priority": generate_priority,
    "design_sweep": design_sweep,
}
