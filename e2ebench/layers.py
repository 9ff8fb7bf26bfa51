"""Per-layer metrics of one traced iteration, and model-quality facts.

Layer times are read from the benchmark's own spans (named after the
``repro`` module each call enters) and, for the DSE, from the
``DseProfile`` that ``explore(..., profile=True)`` returns.  A layer a
workload does not call reports 0.

Two numbers are measured beside the timed region rather than inside it,
because the timed workload reaches them only through another call:

* ``analytic.*`` — ``propose_fleet`` called directly on the planner's
  inputs (``plan_capacity`` makes the same call inside
  ``plan.search_s``);
* ``core.latency_report_us`` — ``ProTEA.latency_report`` over the nine
  Table I configurations (Table I and the DSE call it internally).
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping

from repro.analytic import propose_fleet
from repro.experiments import table1
from repro.nn.model_zoo import table1_tests

import checks
from names import CHILD_LAYER


def latency_report_us(accel, min_s: float = 0.05) -> float:
    """Mean host time of one ``latency_report`` over Table I's configs."""
    configs = list(table1_tests().values())
    calls, start = 0, time.perf_counter()
    while True:
        for cfg in configs:
            accel.latency_report(cfg)
        calls += len(configs)
        elapsed = time.perf_counter() - start
        if elapsed >= min_s:
            return elapsed / calls * 1e6


def facts(workload: str, seed: int, out: Mapping[str, Any]) -> Dict[str, float]:
    """Model-quality numbers: Table I error and prescreen frontier recall.

    Only ``design_sweep`` runs a prescreened sweep; the other workloads
    drop no frontier point and report a recall of 1.
    """
    table = out["table"] if workload == "design_sweep" else table1.run()
    row = {"paper_latency_err_pct": checks.paper_latency_err_pct(table),
           "frontier_recall": 1.0, "frontier_size": 0,
           "frontier_dropped": 0}
    if workload == "design_sweep":
        row.update(checks.frontier_audit(seed, out))
    return row


def per_layer(workload: str, out: Mapping[str, Any], tr,
              accel) -> Dict[str, float]:
    m = dict.fromkeys(CHILD_LAYER, 0.0)

    def took(name: str) -> float:
        span = tr.first(name)
        return span.duration_s if span else 0.0

    def grew(name: str) -> float:
        span = tr.first(name)
        return span.rss_end_mb - span.rss_start_mb if span else 0.0

    m["core.latency_report_us"] = latency_report_us(accel)
    m["report.render_s"] = took("serving.report")
    if "requests" in out:
        n = len(out["requests"])
        m["workload.build_s"] = took("serving.workload")
        m["workload.requests"] = n
        m["workload.us_per_request"] = m["workload.build_s"] / n * 1e6
        m["workload.rss_mb"] = grew("serving.workload")
    if workload in ("serve_steady", "generate_priority"):
        m["slo.reduce_s"] = took("serving.slo")
    if workload == "serve_steady":
        m["serve.drain_s"] = took("sim.serve")
        m["serve.us_per_request"] = (m["serve.drain_s"]
                                     / len(out["requests"]) * 1e6)
        m["serve.rss_mb"] = grew("sim.serve")
    elif workload == "generate_priority":
        m["generate.drain_s"] = took("sim.generate")
        m["generate.us_per_token"] = (m["generate.drain_s"]
                                      / out["report"].total_tokens * 1e6)
        m["generate.rss_mb"] = grew("sim.generate")
        m["generate.kb_per_sequence"] = (m["generate.rss_mb"] * 1024
                                         / len(out["requests"]))
    elif workload == "plan_bursty":
        plan = out["plan"]
        m["plan.search_s"] = took("serving.slo.plan_capacity")
        m["plan.probes"] = len(plan.probes)
        m["plan.s_per_probe"] = m["plan.search_s"] / len(plan.probes)
        start = time.perf_counter()
        proposal = propose_fleet(accel, out["requests"], **out["plan_kwargs"])
        m["analytic.propose_s"] = time.perf_counter() - start
        est = proposal.estimate
        m["analytic.proposal_gap"] = abs(proposal.instances - plan.instances)
        # The planner probes the proposal first, so its simulated p99 is
        # in the probe log.
        simulated = plan.probes[proposal.instances]
        m["analytic.p99_in_bracket"] = float(
            est.p99_lo_ms <= simulated <= est.p99_hi_ms)
        m["analytic.p99_bracket_x"] = est.p99_hi_ms / est.p99_lo_ms
    elif workload == "design_sweep":
        cold, warm = out["cold"], out["warm"]
        m["experiments.table1_s"] = took("experiments.table1")
        m["partition.best_plan_s"] = took("parallel")
        m["dse.cold_s"] = took("dse.cold")
        m["dse.warm_s"] = took("dse.warm")
        m["dse.points"] = cold.prescreen["proposed"]
        m["dse.evaluations"] = cold.n_evaluated
        m["dse.prescreen_kept_frac"] = (cold.prescreen["forwarded"]
                                        / cold.prescreen["proposed"])
        prof = cold.profile
        m["dse.eval_s"] = prof.eval_wall_s
        m["dse.dispatch_s"] = prof.dispatch_wall_s
        m["dse.worker_idle_s"] = sum(w["idle_s"]
                                     for w in prof.workers().values())
        m["dse.cache_hits"] = cold.cache_hits + warm.cache_hits
        m["dse.cache_misses"] = cold.cache_misses + warm.cache_misses
    return m
