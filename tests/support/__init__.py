"""Reference implementations the tests and benchmarks compare against.

Nothing here ships in ``repro``: these are the seed's own engines,
frozen so the shipped code can be held to them.

* :mod:`.legacy` — the pre-kernel serve and generation event loops,
  the oracle of the trace-identity goldens and the baseline of the
  kernel benchmarks;
* :mod:`.seed_search` — the probe-from-1 capacity search, the oracle
  of the analytic-first ``plan_capacity`` and the baseline of its
  benchmark.

Import it as ``tests.support`` from the repository root (``python -m
pytest`` puts the root on ``sys.path``).
"""

from .legacy import run_legacy_cluster, run_legacy_generation
from .seed_search import PROBES, seed_plan_capacity

__all__ = ["run_legacy_cluster", "run_legacy_generation", "PROBES",
           "seed_plan_capacity"]
