"""Workload and metric names with their units: what ``run.py`` prints.

``BENCHMARK.json`` lists the same names; ``test_e2ebench.py`` checks
that the two agree.
"""

WORKLOADS = ("serve_steady", "plan_bursty", "generate_priority",
             "design_sweep")

#: ``--trace 0``: what a user of each command sees.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "frontier_recall": "ratio",
    "paper_latency_err_pct": "%",
}

#: ``--trace 1``: reported by each traced child (``layers.per_layer``).
CHILD_LAYER = {
    "core.latency_report_us": "us",
    "experiments.table1_s": "s",
    "workload.build_s": "s",
    "workload.requests": "count",
    "workload.us_per_request": "us",
    "workload.rss_mb": "MiB",
    "serve.drain_s": "s",
    "serve.us_per_request": "us",
    "serve.rss_mb": "MiB",
    "slo.reduce_s": "s",
    "report.render_s": "s",
    "plan.search_s": "s",
    "plan.probes": "count",
    "plan.s_per_probe": "s",
    "analytic.propose_s": "s",
    "analytic.proposal_gap": "count",
    "analytic.p99_in_bracket": "bool",
    "analytic.p99_bracket_x": "x",
    "generate.drain_s": "s",
    "generate.us_per_token": "us",
    "generate.rss_mb": "MiB",
    "generate.kb_per_sequence": "KiB",
    "partition.best_plan_s": "s",
    "dse.cold_s": "s",
    "dse.warm_s": "s",
    "dse.points": "count",
    "dse.evaluations": "count",
    "dse.prescreen_kept_frac": "ratio",
    "dse.eval_s": "s",
    "dse.dispatch_s": "s",
    "dse.worker_idle_s": "s",
    "dse.cache_hits": "count",
    "dse.cache_misses": "count",
}

#: ``--trace 1``: computed by ``run.py`` across the iterations.
RUN_LAYER = {
    "dse.frontier_size": "count",
    "dse.frontier_dropped": "count",
    "core.import_s": "s",
    "core.synthesize_s": "s",
    "trace.overhead_x": "x",
    "trace.unattributed_s": "s",
    "trace.layer_sum_err_pct": "%",
}

PER_LAYER = {**CHILD_LAYER, **RUN_LAYER}
