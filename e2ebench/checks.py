"""Output checks for the benchmark workloads, run outside the timed region.

Two kinds of check:

* **reference** — at the default seed, outputs are compared with the
  recorded ``reference.json``: counts, percentiles and every other
  integer or string exactly, the remaining floats (means, sums, rates)
  within ``MEAN_RTOL`` relative;
* **invariants** — on any seed: every request completed (none of these
  workloads injects failures, so none may be dropped), causality,
  utilization in [0, 1], the planned fleet meets the SLO while one
  fewer misses it, and frontier points are mutually non-dominated.

``check`` never raises on a mismatch: it returns the list of diffs, and
the caller counts the iteration as a failed operation.

The helpers at the bottom compute the model-quality numbers the
benchmark reports: Table I's error against the paper, and the recall of
the prescreened frontier against a brute-force reference sweep.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Dict, List, Mapping, Sequence

from repro import evaluate_point, explore, simulate_cluster, summarize
from repro.dse import point_id
from repro.experiments.table1 import PAPER_TABLE1

import workloads as W

DEFAULT_SEED = 0
MEAN_RTOL = 1e-9
_PERCENTILE = re.compile(r"^(p\d+|max)(_|$)")


def _plain(value: Any) -> Any:
    """JSON round trip: tuples become lists, int dict keys strings."""
    return json.loads(json.dumps(value))


def diff(actual: Any, expected: Any, path: str = "") -> List[str]:
    """Differences between two JSON-like trees, under the tolerance rule."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in actual:
                out.append(f"{sub}: missing (expected {expected[key]!r})")
            elif key not in expected:
                out.append(f"{sub}: unexpected {actual[key]!r}")
            else:
                out.extend(diff(actual[key], expected[key], sub))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(actual) != len(expected):
            return [f"{path}: length {len(actual)}, expected {len(expected)}"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out.extend(diff(a, e, f"{path}[{i}]"))
        return out
    leaf = path.rsplit(".", 1)[-1]
    if (isinstance(expected, float) and isinstance(actual, float)
            and not _PERCENTILE.match(leaf)):
        if math.isclose(actual, expected, rel_tol=MEAN_RTOL, abs_tol=0.0):
            return []
    elif actual == expected and type(actual) is type(expected):
        return []
    return [f"{path}: got {actual!r}, expected {expected!r}"]


# ---------------------------------------------------------------------------
# What each workload is compared on at the default seed.

def reference_view(workload: str, out: Mapping[str, Any]) -> Any:
    if workload in ("serve_steady", "generate_priority"):
        return _plain(out["report"].as_dict())
    if workload == "plan_bursty":
        plan = out["plan"]
        return _plain({"instances": plan.instances,
                       "probes": {str(n): p99
                                  for n, p99 in plan.probes.items()}})
    frontier = sorted(out["cold"].frontier, key=lambda r: point_id(r.point))
    return _plain({"frontier": [r.point for r in frontier]})


# ---------------------------------------------------------------------------
# Invariants, any seed.

def _served(requests, result, report) -> List[str]:
    errors = []
    got = {r.rid for r in result.records}
    if len(result.records) != len(requests) or got != {
            r.rid for r in requests}:
        errors.append(f"completed {len(result.records)} of {len(requests)} "
                      "requests with none dropped")
    if report.total_requests != len(requests):
        errors.append(f"report counts {report.total_requests} requests, "
                      f"workload has {len(requests)}")
    for rec in result.records:
        start = getattr(rec, "t_dispatch_ms", None)
        if start is None:
            start = rec.t_admit_ms
        if not rec.t_arrival_ms <= start <= rec.t_complete_ms:
            errors.append(f"request {rec.rid} breaks causality: arrival "
                          f"{rec.t_arrival_ms}, start {start}, "
                          f"complete {rec.t_complete_ms}")
            break
    utils = [report.utilization] + [
        i.busy_ms / report.horizon_ms for i in report.instances]
    if not all(0.0 <= u <= 1.0 for u in utils):
        errors.append(f"utilization outside [0, 1]: {utils}")
    return errors


def _plan(out: Mapping[str, Any], accel) -> List[str]:
    plan, kwargs = out["plan"], out["plan_kwargs"]
    target, qps = kwargs["target_p99_ms"], kwargs["target_qps"]
    errors = []
    if plan.report.p99_ms > target or plan.report.throughput_rps < 0.95 * qps:
        errors.append(f"planned fleet {plan.instances} misses the SLO: "
                      f"p99 {plan.report.p99_ms} ms, "
                      f"{plan.report.throughput_rps} req/s")
    fewer = plan.instances - 1
    if fewer >= 1:
        # Re-simulate one fewer instance directly, not from the planner's
        # own probe log, so the check does not trust what it checks.
        report = summarize(simulate_cluster(
            accel, out["requests"], fewer, scheduler="least-loaded",
            batching=kwargs["batching"],
            reprogram_latency_ms=kwargs["reprogram_latency_ms"],
            detail="summary"), slo_ms=target)
        if report.p99_ms <= target and report.throughput_rps >= 0.95 * qps:
            errors.append(f"{fewer} instances also meet the SLO "
                          f"(p99 {report.p99_ms} ms): the plan is not minimal")
    return errors


def _dominates(a: Mapping[str, float], b: Mapping[str, float],
               objectives) -> bool:
    better = False
    for o in objectives:
        x, y = a[o.name], b[o.name]
        if o.goal == "max":
            x, y = -x, -y
        if x > y:
            return False
        better = better or x < y
    return better


def non_dominated(frontier: Sequence[Mapping[str, float]],
                  objectives) -> List[str]:
    for i, a in enumerate(frontier):
        for j, b in enumerate(frontier):
            if i != j and _dominates(a, b, objectives):
                return [f"frontier point {i} dominates frontier point {j}"]
    return []


def _design(out: Mapping[str, Any]) -> List[str]:
    cold, warm = out["cold"], out["warm"]
    errors = non_dominated([r.objectives for r in cold.frontier],
                           cold.objectives)
    if len(out["table"].rows) != len(PAPER_TABLE1):
        errors.append(f"Table I has {len(out['table'].rows)} rows, "
                      f"expected {len(PAPER_TABLE1)}")
    if warm.n_evaluated != 0:
        errors.append(f"warm resume re-evaluated {warm.n_evaluated} points")
    key = [(point_id(r.point), r.objectives) for r in cold.frontier]
    if [(point_id(r.point), r.objectives) for r in warm.frontier] != key:
        errors.append("warm resume frontier differs from the cold one")
    for (name, k), plan in out["plans"].items():
        if plan.n_devices != k:
            errors.append(f"partition of {name} on {k} devices "
                          f"uses {plan.n_devices}")
    return errors


def check(workload: str, seed: int, out: Mapping[str, Any], accel,
          reference: Mapping[str, Any]) -> List[str]:
    """Every failed check of one workload iteration, as readable diffs."""
    if workload in ("serve_steady", "generate_priority"):
        errors = _served(out["requests"], out["result"], out["report"])
    elif workload == "plan_bursty":
        errors = _plan(out, accel)
    else:
        errors = _design(out)
    if seed == DEFAULT_SEED:
        if workload not in reference:
            errors.append(f"no recorded reference for {workload}")
        else:
            errors.extend(diff(reference_view(workload, out),
                               reference[workload]))
    return errors


# ---------------------------------------------------------------------------
# Model-quality facts.

def paper_latency_err_pct(table) -> float:
    """Mean |model - paper| / paper over Table I's latency rows, in %."""
    model, paper = (table.headers.index(h) for h in ("latency_ms", "paper_ms"))
    errs = [abs(row[model] - row[paper]) / row[paper] for row in table.rows]
    return 100.0 * sum(errs) / len(errs)


def brute_frontier(seed: int) -> set:
    """Point ids of the true frontier: same grid, no prescreen, no cache."""
    brute = explore(W.dse_space(), evaluate_point,
                    objectives=W.dse_objectives(), strategy="grid",
                    settings=W.dse_settings(seed), jobs=W.DSE_JOBS)
    return {point_id(r.point) for r in brute.frontier}


def frontier_audit(seed: int, out: Mapping[str, Any]) -> Dict[str, float]:
    """Recall of the prescreened frontier against brute force."""
    truth = brute_frontier(seed)
    found = {point_id(r.point) for r in out["cold"].frontier}
    return {"frontier_size": len(truth),
            "frontier_dropped": len(truth - found),
            "frontier_recall": len(truth & found) / len(truth)}
