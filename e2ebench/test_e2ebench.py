"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest e2ebench -q

They check that the output checks catch small perturbations of the
recorded reference, that the names the benchmark prints match
``BENCHMARK.json``, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import names  # noqa: E402
from repro.dse import Objective  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_reference_matches_itself():
    for workload in names.WORKLOADS:
        assert checks.diff(REFERENCE[workload], REFERENCE[workload]) == []


def test_removed_frontier_point_fails():
    expected = REFERENCE["design_sweep"]
    actual = copy.deepcopy(expected)
    del actual["frontier"][len(actual["frontier"]) // 2]
    assert checks.diff(actual, expected)


def test_moved_frontier_point_fails():
    expected = REFERENCE["design_sweep"]
    actual = copy.deepcopy(expected)
    actual["frontier"][0]["tiles_mha"] += 1
    assert checks.diff(actual, expected)


def test_p99_one_ulp_off_fails():
    for workload, path in (("serve_steady", ("latency_ms", "p99")),
                           ("generate_priority", ("ttft_ms", "p99"))):
        expected = REFERENCE[workload]
        actual = copy.deepcopy(expected)
        leaf = actual
        for key in path[:-1]:
            leaf = leaf[key]
        leaf[path[-1]] = math.nextafter(leaf[path[-1]], math.inf)
        assert checks.diff(actual, expected) == [
            f"{'.'.join(path)}: got {leaf[path[-1]]!r}, "
            f"expected {expected[path[0]][path[1]]!r}"]


def test_mean_within_tolerance_passes_and_beyond_fails():
    expected = REFERENCE["serve_steady"]
    actual = copy.deepcopy(expected)
    mean = expected["latency_ms"]["mean"]
    actual["latency_ms"]["mean"] = math.nextafter(mean, math.inf)
    assert checks.diff(actual, expected) == []
    actual["latency_ms"]["mean"] = mean * (1 + 1e-8)
    assert checks.diff(actual, expected)


def test_count_off_by_one_fails():
    expected = REFERENCE["serve_steady"]
    actual = copy.deepcopy(expected)
    actual["total_requests"] += 1
    assert checks.diff(actual, expected)


def test_plan_answer_and_probe_set_checked():
    expected = REFERENCE["plan_bursty"]
    assert expected["instances"] == 22
    actual = copy.deepcopy(expected)
    actual["instances"] = 21
    assert checks.diff(actual, expected)
    actual = copy.deepcopy(expected)
    actual["probes"]["99"] = 1.0
    assert checks.diff(actual, expected)


def test_dominated_frontier_point_detected():
    objectives = (Objective("latency_ms", "min"),
                  Objective("throughput_inf_s", "max"))
    front = [{"latency_ms": 1.0, "throughput_inf_s": 5.0},
             {"latency_ms": 2.0, "throughput_inf_s": 9.0}]
    assert checks.non_dominated(front, objectives) == []
    front.append({"latency_ms": 2.0, "throughput_inf_s": 4.0})
    assert checks.non_dominated(front, objectives)


def test_names_match_benchmark_json():
    assert tuple(w["name"] for w in SPEC["workloads"]) == names.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == names.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == names.PER_LAYER
    assert SPEC["paths"] == [HERE.name]
    assert SPEC["command"] == ["python3", f"{HERE.name}/run.py"]


def test_refuses_to_run_without_package(tmp_path):
    bench = tmp_path / HERE.name
    bench.mkdir()
    for src in HERE.glob("*.py"):
        shutil.copy(src, bench / src.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload",
         names.WORKLOADS[0], "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
