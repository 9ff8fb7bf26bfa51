"""One workload iteration in a fresh interpreter; prints one JSON line.

Run by ``run.py`` with ``PYTHONPATH`` pointing at the package sources:

    python3 e2ebench/child.py --workload serve_steady --seed 0 --traced 0

Order of work, so that each number covers what it names:

1. set-up: ``import repro`` (``import_s``), then the first
   ``default_accelerator()`` (``synthesize_s``);
2. the timed workload (``wall_s``), traced or not;
3. the process's peak RSS so far (``peak_rss_mb``), before any check;
4. the output checks, untimed, and a digest of the checked outputs so
   that ``run.py`` can hold every iteration of a run to the first;
5. with ``--audit``, the model-quality facts, untimed (for
   ``design_sweep`` this includes the brute-force reference sweep).

``--setup-only`` stops after step 1.  ``--record`` writes this
iteration's outputs into ``reference.json`` as the new reference for
its workload (only at the default seed) instead of checking them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--traced", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, default=HERE / "out" / "work")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--audit", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the package import)
    t1 = time.perf_counter()
    from repro.experiments.common import default_accelerator
    accel = default_accelerator()
    t2 = time.perf_counter()
    row = {"import_s": t1 - t0, "synthesize_s": t2 - t1}
    if args.setup_only:
        print(json.dumps(row))
        return 0

    import checks
    import layers
    import spans
    import workloads

    fn = workloads.WORKLOADS[args.workload]
    args.work_dir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.traced else spans.NULL
    start = time.perf_counter()
    with tracer.span(args.workload):
        out = fn(args.seed, accel, tracer, args.work_dir, bool(args.traced))
    row["wall_s"] = time.perf_counter() - start
    row["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)

    if args.record:
        if args.seed != checks.DEFAULT_SEED:
            sys.exit("--record writes the default-seed reference only")
        ref = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        ref[args.workload] = checks.reference_view(args.workload, out)
        REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True)
                             + "\n")
        errors = []
    else:
        try:
            errors = checks.check(args.workload, args.seed, out, accel,
                                  json.loads(REFERENCE.read_text()))
        except Exception:  # noqa: BLE001 - a crashing check is a failure
            errors = [traceback.format_exc()]
    row["errors"] = errors
    row["digest"] = hashlib.sha256(json.dumps(
        checks.reference_view(args.workload, out),
        sort_keys=True).encode()).hexdigest()
    if args.audit:
        row["facts"] = layers.facts(args.workload, args.seed, out)
    if args.traced:
        row["layers"] = layers.per_layer(args.workload, out, tracer, accel)
        row["self_s"] = tracer.layer_self_s()
        row["tree"] = tracer.tree()
        row["chrome"] = tracer.chrome_trace(args.workload)["traceEvents"]
    print(json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
