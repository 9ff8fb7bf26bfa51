"""End-to-end benchmark of the ``repro`` serve, plan, generate and design runs.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload serve_steady --seed 0 --seconds 20 \\
        --trace 0

Each workload iteration runs in a fresh interpreter (``child.py``), one
after another, until ``--seconds`` have passed and at least
``MIN_ITERATIONS`` have run.  Every iteration's outputs are checked; an
iteration whose checks fail, or whose process fails, counts as a failed
operation.  Timings are medians over the iterations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced iterations and prints the per-layer metrics; it also
writes ``out/<workload>-seed<N>.trace.json`` (Chrome trace; open it in
Perfetto) and ``out/<workload>-seed<N>.spans.txt`` (span trees and the
per-layer self-time table with its ``unattributed`` row).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from names import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = OUT / f"work-{os.getpid()}"

MIN_ITERATIONS = 3        # untraced iterations with --trace 0
MIN_TRACE_PAIRS = 3       # untraced + traced pairs with --trace 1
MIN_SETUPS = 5            # set-up samples behind the setup_s median
RUN_DEADLINE_S = 170.0    # every child is stopped by then
LAYER_SUM_TOLERANCE = 0.05


T0 = time.perf_counter()


def child(workload: str, seed: int, traced: bool = False,
          setup_only: bool = False, audit: bool = False) -> Optional[dict]:
    """Run one fresh interpreter; its JSON row, or None if it failed.

    The child runs in its own process group, so that a child stopped at
    the deadline takes its DSE pool workers with it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--traced", str(int(traced)),
           "--work-dir", str(WORK)]
    if setup_only:
        cmd.append("--setup-only")
    if audit:
        cmd.append("--audit")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(
            timeout=max(1.0, RUN_DEADLINE_S - (time.perf_counter() - T0)))
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # the group ended meanwhile
            pass
        proc.communicate()
        print(f"[{workload}] iteration stopped at the {RUN_DEADLINE_S:.0f} s "
              "deadline", file=sys.stderr)
        return None
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"[{workload}] iteration exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def median(rows: List[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def layer_report(workload: str, seed: int, plain: List[dict],
                 traced: List[dict]) -> Dict[str, float]:
    """Per-layer medians, plus the trace files and the layer-sum check."""
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    wall_plain = median(plain, "wall_s")
    wall_traced = median(traced, "wall_s")
    per_layer = {name: statistics.median(r["self_s"][name] for r in traced)
                 for name in traced[0]["self_s"]}
    unattributed = per_layer.pop("unattributed")
    # Each traced iteration runs next to an untraced one; comparing
    # within those pairs cancels the host's slow drifts in speed.
    pairs = list(zip(plain, traced))
    ratio = statistics.median(
        sum(v for k, v in t["self_s"].items() if k != "unattributed")
        / p["wall_s"] for p, t in pairs)
    err = abs(ratio - 1.0)
    metrics["trace.overhead_x"] = statistics.median(
        t["wall_s"] / p["wall_s"] for p, t in pairs)
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.layer_sum_err_pct"] = 100.0 * err

    verdict = ("ok" if err <= LAYER_SUM_TOLERANCE else "OVER TOLERANCE")
    lines = [f"{workload} seed {seed}: {len(traced)} traced, {len(plain)} "
             f"untraced iteration(s)",
             f"{'layer':<32} {'self s':>10} {'share':>7}"]
    for name, secs in sorted(per_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"{name:<32} {secs:>10.4f} {secs / wall_traced:>7.1%}")
    lines.append(f"{'unattributed':<32} {unattributed:>10.4f} "
                 f"{unattributed / wall_traced:>7.1%}")
    lines.append(f"layer sum / untraced wall_s ({wall_plain:.4f} s), median "
                 f"over {len(pairs)} adjacent pairs: {ratio:.4f} "
                 f"(tolerance {100 * LAYER_SUM_TOLERANCE:.0f}%) {verdict}")
    lines.append(f"trace overhead {metrics['trace.overhead_x']:.4f}x")
    summary = "\n".join(lines)
    print(summary, file=sys.stderr)

    events = []
    for tid, row in enumerate(traced, start=1):
        for ev in row["chrome"]:
            events.append(dict(ev, tid=tid))
    stem = OUT / f"{workload}-seed{seed}"
    (stem.with_suffix(".trace.json")).write_text(json.dumps(
        {"traceEvents": events, "displayTimeUnit": "ms"}))
    trees = "\n\n".join(r["tree"] for r in traced)
    (stem.with_suffix(".spans.txt")).write_text(
        f"{summary}\n\n{trees}\n")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    # Warm-up: the first interpreter in a checkout compiles bytecode,
    # which users pay once, not on every run.
    child(args.workload, args.seed, setup_only=True)

    plain: List[dict] = []
    traced: List[dict] = []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # Untraced and traced iterations alternate as P T T P P T ..., so
        # each pair is adjacent and each side runs first equally often.
        want_traced = (bool(args.trace)
                       and (len(plain) + len(traced)) % 4 in (1, 2))
        row = child(args.workload, args.seed, traced=want_traced,
                    audit=not plain)
        attempted += 1
        if row is None:
            failed += 1
        else:
            if row["errors"]:
                failed += 1
                print(f"[{args.workload} seed {args.seed}] output check "
                      "failed:\n  " + "\n  ".join(row["errors"]),
                      file=sys.stderr)
            (traced if want_traced else plain).append(row)
        if time.perf_counter() - T0 > RUN_DEADLINE_S:
            break
        if time.perf_counter() - start < args.seconds:
            continue
        if args.trace:
            if min(len(plain), len(traced)) >= MIN_TRACE_PAIRS:
                break
        elif len(plain) >= MIN_ITERATIONS:
            break
        if attempted >= 4 * MIN_ITERATIONS:  # iterations keep failing
            break
    shutil.rmtree(WORK, ignore_errors=True)
    if not plain or (args.trace and not traced):
        print(f"[{args.workload}] no iteration completed", file=sys.stderr)
        return 1
    # Same seed, same outputs: hold every iteration to the first, whose
    # outputs the audit scored.
    first = plain[0]
    for row in plain[1:] + traced:
        if row["digest"] != first["digest"] and not row["errors"]:
            failed += 1
            print(f"[{args.workload} seed {args.seed}] outputs differ "
                  "from the first iteration's", file=sys.stderr)
    facts = first["facts"]

    setups = plain + traced
    for _ in range(MIN_SETUPS - len(setups)):
        if time.perf_counter() - T0 > RUN_DEADLINE_S:
            break
        row = child(args.workload, args.seed, setup_only=True)
        if row is not None:
            setups.append(row)

    if args.trace:
        metrics = layer_report(args.workload, args.seed, plain, traced)
        metrics["core.import_s"] = median(setups, "import_s")
        metrics["core.synthesize_s"] = median(setups, "synthesize_s")
        metrics["dse.frontier_size"] = facts["frontier_size"]
        metrics["dse.frontier_dropped"] = facts["frontier_dropped"]
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(r["import_s"] + r["synthesize_s"]
                                         for r in setups),
            "wall_s": median(plain, "wall_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            "frontier_recall": facts["frontier_recall"],
            "paper_latency_err_pct": facts["paper_latency_err_pct"],
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
