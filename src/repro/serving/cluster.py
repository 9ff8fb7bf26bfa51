"""Discrete-event simulation of a multi-instance serving cluster.

The cluster is N synthesized-identical ProTEA instances behind a
dispatcher.  Time advances through a binary heap of events:

* ``arrival``  — a request enters; the scheduler picks an instance and
  the request joins that instance's FIFO.
* ``free``     — an instance finished a batch; it immediately tries to
  form the next one.
* ``check``    — a dynamic-batching deadline fired; the instance
  re-evaluates whether to dispatch a partial batch.

Dispatching a batch charges the reprogramming penalty (via each
instance's :class:`~repro.core.runtime.RuntimeSession`) whenever the
batch's model differs from the workload resident on that instance, then
the batched service time from :class:`.batching.ServiceTimeModel`.
Heap ties break on (event priority, insertion sequence), so a run is a
pure function of (workload, topology, policies) — the acceptance
property behind trace-identical replays.

Since the unified kernel landed, :meth:`ClusterSimulator.run` executes
on :class:`repro.sim.serve.ServeEngine` — bit-identical to the legacy
closure loop on seeded scenarios (pinned by the goldens under
``tests/goldens/``) and measurably faster, plus the scenario layer the
old loop could not express: heterogeneous fleets
(:class:`~repro.sim.fleet.FleetSpec`) and failure/recovery injection
(:class:`~repro.sim.failures.FailurePlan`).  The legacy loop no longer
ships: it lives in the test support (``tests/support/legacy.py``) as
the oracle the goldens and the kernel benchmarks compare against.

``simulate(..., observer=...)`` attaches any read-only consumer of the
engine's event stream — a :class:`repro.obs.TraceRecorder`,
:class:`repro.obs.MetricsSampler`, or streaming SLO
:class:`repro.obs.Watchdog` (burn-rate alerting over per-request
latency, derived online from the same events); compose several with
:func:`repro.obs.compose`.  Attached or not, the run's trace and
records are byte-identical.
"""

from __future__ import annotations

from collections.abc import Sequence as _SequenceABC
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import attrgetter, itemgetter
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

import numpy as np

from ..core.accelerator import ProTEA
from ..nn.model_zoo import MODEL_ZOO, TransformerConfig
from ..sim.failures import FailurePlan
from ..sim.fleet import FleetSpec
from .batching import BatchingPolicy, ServiceTimeModel, no_batching
from .scheduler import Scheduler, get_scheduler
from .workload import Request

__all__ = ["RequestRecord", "RequestRecords", "InstanceStats",
           "SimulationResult", "ClusterSimulator", "simulate"]

@dataclass(frozen=True)
class RequestRecord:
    """Per-request outcome of one simulation."""

    rid: int
    model: str
    instance: int
    batch_size: int
    t_arrival_ms: float
    t_dispatch_ms: float
    t_complete_ms: float
    #: Dispatches lost to instance failures before this one completed.
    retries: int = 0
    #: Arrived while at least one instance was down (failure runs).
    degraded: bool = False

    @property
    def wait_ms(self) -> float:
        return self.t_dispatch_ms - self.t_arrival_ms

    @property
    def service_ms(self) -> float:
        return self.t_complete_ms - self.t_dispatch_ms

    @property
    def latency_ms(self) -> float:
        return self.t_complete_ms - self.t_arrival_ms


_BY_RID = attrgetter("rid")
_BY_T = attrgetter("t_ms")


class _RecordColumns(NamedTuple):
    """Per-request record fields as parallel numpy columns: the form
    :func:`~repro.serving.slo.summarize` reduces a full result from."""

    t_arrival: np.ndarray
    t_dispatch: np.ndarray
    t_done: np.ndarray
    #: model name → its code in ``model``.
    models: Dict[str, int]
    model: np.ndarray
    size: np.ndarray
    retries: np.ndarray
    degraded: np.ndarray


def _record_columns(records: Sequence[RequestRecord]) -> _RecordColumns:
    """Columns of ``records``, in their order.

    A :class:`RequestRecords` view reads them from its batch log
    without building records; any other sequence (the legacy loop's
    list, hand-built lists) from the records' attributes.
    """
    if isinstance(records, RequestRecords):
        return records._columns()
    n = len(records)

    def column(attr: str, dtype) -> np.ndarray:
        return np.fromiter(map(attrgetter(attr), records), dtype, n)

    models: Dict[str, int] = {}
    return _RecordColumns(
        t_arrival=column("t_arrival_ms", np.float64),
        t_dispatch=column("t_dispatch_ms", np.float64),
        t_done=column("t_complete_ms", np.float64),
        models=models,
        model=np.fromiter(map(models.setdefault,
                              map(attrgetter("model"), records), count()),
                          np.int64, n),
        size=column("batch_size", np.int64),
        retries=column("retries", np.int64),
        degraded=column("degraded", np.bool_),
    )


class RequestRecords(_SequenceABC):
    """The rid-ordered records of a full-detail run, built on demand.

    Holds the engine's log of completed batches — ``(model, instance,
    size, t_dispatch, t_done, batch)`` in completion order — plus the
    run's ``rid → retries`` and ``rid → degraded`` maps.  ``len()``
    reads the log; the first index or iteration builds one
    :class:`RequestRecord` per request, stable-sorted by rid (equal
    rids keep completion order), and caches the list.
    :func:`~repro.serving.slo.summarize` reduces the log directly and
    never builds them.

    Read-only: no ``append`` and no in-place ``sort``.  ``==`` holds
    against any sequence with the same records, in both directions.
    """

    __slots__ = ("_done", "_retries", "_degraded", "_len", "_records")

    def __init__(self, done: List[tuple], retries: Mapping[int, int],
                 degraded: Mapping[int, bool]):
        self._done = done
        self._retries = retries
        self._degraded = degraded
        self._len = sum(map(itemgetter(2), done))
        self._records: Optional[List[RequestRecord]] = None

    def _list(self) -> List[RequestRecord]:
        records = self._records
        if records is None:
            retries, degraded = self._retries, self._degraded
            records = [
                RequestRecord(
                    rid=req.rid, model=model, instance=idx, batch_size=size,
                    t_arrival_ms=req.t_ms, t_dispatch_ms=t_disp,
                    t_complete_ms=t_done,
                    retries=retries.get(req.rid, 0),
                    degraded=degraded.get(req.rid, False),
                )
                for model, idx, size, t_disp, t_done, batch in self._done
                for req in batch
            ]
            records.sort(key=_BY_RID)
            self._records = records
        return records

    def _columns(self) -> _RecordColumns:
        """The records' fields as rid-ordered columns, read from the
        log without building a record."""
        done = self._done
        n, n_batches = self._len, len(done)
        reqs = list(chain.from_iterable(map(itemgetter(5), done)))
        rids = np.fromiter(map(_BY_RID, reqs), np.int64, n)
        # Stable, so equal rids keep completion order, as in _list().
        order = np.argsort(rids, kind="stable")

        def batch_column(values, dtype) -> np.ndarray:
            return np.fromiter(values, dtype, n_batches)

        sizes = batch_column(map(itemgetter(2), done), np.int64)

        def per_request(column: np.ndarray) -> np.ndarray:
            return np.repeat(column, sizes)[order]

        def by_rid(mapping: Mapping, default, dtype) -> np.ndarray:
            if not mapping:
                return np.full(n, default, dtype)
            return np.fromiter(map(mapping.get, rids[order].tolist(),
                                   repeat(default)), dtype, n)

        models: Dict[str, int] = {}
        codes = batch_column(
            map(models.setdefault, map(itemgetter(0), done), count()),
            np.int64)
        return _RecordColumns(
            t_arrival=np.fromiter(map(_BY_T, reqs), np.float64, n)[order],
            t_dispatch=per_request(
                batch_column(map(itemgetter(3), done), np.float64)),
            t_done=per_request(
                batch_column(map(itemgetter(4), done), np.float64)),
            models=models,
            model=per_request(codes),
            size=per_request(sizes),
            retries=by_rid(self._retries, 0, np.int64),
            degraded=by_rid(self._degraded, False, np.bool_),
        )

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        return self._list()[index]

    def __iter__(self):
        return iter(self._list())

    def __eq__(self, other) -> bool:
        if not isinstance(other, _SequenceABC):
            return NotImplemented
        if len(self) != len(other):
            return False
        return self._list() == (other if isinstance(other, list)
                                else list(other))

    def __repr__(self) -> str:
        return f"<RequestRecords: {self._len} records>"


@dataclass(frozen=True)
class InstanceStats:
    """End-of-run accounting for one instance."""

    index: int
    requests: int
    batches: int
    busy_ms: float
    reprogram_count: int
    switch_count: int
    reprogram_time_ms: float
    #: Faults injected into this instance (failure runs only).
    failures: int = 0
    #: Total time this instance spent down (failure runs only).
    downtime_ms: float = 0.0


@dataclass
class SimulationResult:
    """Everything a run produced: records, trace, per-instance stats."""

    #: One record per completed request, in rid order.  Kernel runs
    #: return a read-only :class:`RequestRecords` view that builds them
    #: on first access.
    records: Sequence[RequestRecord]
    instances: List[InstanceStats]
    n_instances: int
    makespan_ms: float
    #: ``(t_ms, total queued requests)`` after every queue mutation.
    queue_samples: List[Tuple[float, int]]
    #: Flat event log: ("arrive"|"dispatch"|"free", t_ms, ...) tuples
    #: (failure runs add "fail"/"recover").
    trace: List[tuple]
    scheduler: str = ""
    batching: str = ""
    #: Fleet-time fraction up (None unless failures were injected).
    availability: Optional[float] = None
    total_failures: int = 0
    total_retries: int = 0

    @property
    def total_requests(self) -> int:
        return len(self.records)

    @property
    def total_reprogram_time_ms(self) -> float:
        return sum(i.reprogram_time_ms for i in self.instances)

    @property
    def total_switches(self) -> int:
        return sum(i.switch_count for i in self.instances)


class ClusterSimulator:
    """Event-driven simulator over N instances of one synthesized design."""

    def __init__(
        self,
        accel: ProTEA,
        n_instances: Optional[int] = None,
        scheduler: Union[str, Scheduler] = "least-loaded",
        batching: Optional[BatchingPolicy] = None,
        models: Optional[Mapping[str, TransformerConfig]] = None,
        reprogram_latency_ms: float = 0.0,
        check_jitter_ms: float = 0.0,
        fleet: Optional[FleetSpec] = None,
        failures: Optional[FailurePlan] = None,
    ):
        if fleet is None:
            if n_instances is None:
                raise ValueError("need n_instances or a FleetSpec")
            if n_instances < 1:
                raise ValueError("need at least one instance")
            fleet = FleetSpec.uniform(n_instances)
        elif n_instances is not None and n_instances != fleet.n:
            raise ValueError(
                f"n_instances={n_instances} contradicts the {fleet.n}-"
                "instance FleetSpec (pass one or the other)")
        if reprogram_latency_ms < 0:
            raise ValueError("reprogram_latency_ms must be >= 0")
        if check_jitter_ms < 0:
            raise ValueError("check_jitter_ms must be >= 0")
        self.accel = accel
        self.fleet = fleet
        self.failures = failures
        self.n_instances = fleet.n
        # Keep the spec, not an instance: stateful schedulers (round-
        # robin's cursor) must start fresh every run() or replays of
        # the same workload would diverge.
        self._scheduler_spec = scheduler
        if isinstance(scheduler, str):
            get_scheduler(scheduler)  # validate the name eagerly
        self.batching = batching or no_batching()
        self.service = ServiceTimeModel(accel, models or MODEL_ZOO)
        self.reprogram_latency_ms = reprogram_latency_ms
        #: Fires batching-deadline checks this much *early*.  A check is
        #: a pure wakeup — ``try_dispatch`` re-derives everything from
        #: queue state, and an early check that finds the head under-age
        #: re-arms at the true deadline — so any jitter value must
        #: produce an identical dispatch trace.  Exposed precisely so
        #: tests can prove that (the stale-check no-op property).
        self.check_jitter_ms = check_jitter_ms

    def _scheduler(self) -> Scheduler:
        """A fresh scheduler per run (stateful cursors must reset)."""
        spec = self._scheduler_spec
        return get_scheduler(spec) if isinstance(spec, str) else spec

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request], observer=None,
            profiler=None, detail: str = "full", shards: int = 1,
            shard_jobs: Optional[int] = None):
        """Simulate the full stream on the unified kernel.

        Bit-identical to the legacy closure loop on homogeneous,
        no-failure scenarios (the trace-identity goldens hold the two
        engines to byte-equal rendered reports) and the only path that
        understands heterogeneous fleets and failure injection.

        ``observer``/``profiler`` are forwarded to the engine's
        observability hooks (see :mod:`repro.obs`); observers are
        read-only, so the result is byte-identical with or without
        them.

        ``detail="summary"`` returns a
        :class:`~repro.sim.summary.ServeSummary` instead of a
        :class:`SimulationResult` — no per-request records, traces, or
        depth samples, just the accumulators
        :func:`~repro.serving.slo.summarize` needs (percentiles exact,
        means to the ulp).  The web-scale path.

        ``shards > 1`` partitions the fleet into independent cells (see
        :mod:`repro.sim.shard`) and merges their summaries; it implies
        ``detail="summary"`` and, with ``shard_jobs >= 2``, runs cells
        in worker processes.  ``shards=1`` is always the ordinary
        single-loop run — byte-identical to not passing ``shards`` at
        all.
        """
        if shards != 1:
            from ..sim.shard import run_sharded

            if detail != "summary":
                raise ValueError(
                    "sharded runs are summary-detail only: per-request "
                    "records across cells would defeat the fast path — "
                    "pass detail='summary' (or shards=1)")
            if profiler is not None:
                raise ValueError(
                    "KernelProfiler cannot span shard cells — profile "
                    "a shards=1 run")
            return run_sharded(self, requests, mode="serve",
                               shards=shards, jobs=shard_jobs,
                               observer=observer)
        from ..sim.serve import ServeEngine

        engine = ServeEngine(
            self.accel,
            fleet=self.fleet,
            scheduler=self._scheduler(),
            batching=self.batching,
            models=self.service.models,
            reprogram_latency_ms=self.reprogram_latency_ms,
            check_jitter_ms=self.check_jitter_ms,
            failures=self.failures,
        )
        if observer is not None:
            engine.attach_observer(observer)
        if profiler is not None:
            engine.attach_profiler(profiler)
        return engine.run(requests, detail=detail)

    # ------------------------------------------------------------------
    def _shard_cell(self, fleet: FleetSpec, instance_base: int,
                    requests: Sequence[Request],
                    failure_horizon_ms: float, rng_seed,
                    observer=None):
        """Run one shard cell (summary detail, global instance ids).

        Called by :func:`repro.sim.shard.run_sharded` — in-process on
        the serial path, inside a pool worker on the parallel one.
        """
        from ..sim.serve import ServeEngine

        engine = ServeEngine(
            self.accel,
            fleet=fleet,
            scheduler=self._scheduler(),
            batching=self.batching,
            models=self.service.models,
            reprogram_latency_ms=self.reprogram_latency_ms,
            check_jitter_ms=self.check_jitter_ms,
            failures=self.failures,
            instance_base=instance_base,
            failure_horizon_ms=failure_horizon_ms,
            rng_seed=rng_seed,
        )
        if observer is not None:
            engine.attach_observer(observer)
        return engine.run(requests, detail="summary")


def simulate(
    accel: ProTEA,
    requests: Sequence[Request],
    n_instances: Optional[int] = None,
    scheduler: Union[str, Scheduler] = "least-loaded",
    batching: Optional[BatchingPolicy] = None,
    models: Optional[Mapping[str, TransformerConfig]] = None,
    reprogram_latency_ms: float = 0.0,
    fleet: Optional[FleetSpec] = None,
    failures: Optional[FailurePlan] = None,
    observer=None,
    profiler=None,
    detail: str = "full",
    shards: int = 1,
    shard_jobs: Optional[int] = None,
):
    """One-call convenience wrapper around :class:`ClusterSimulator`."""
    sim = ClusterSimulator(
        accel, n_instances, scheduler=scheduler, batching=batching,
        models=models, reprogram_latency_ms=reprogram_latency_ms,
        fleet=fleet, failures=failures)
    return sim.run(requests, observer=observer, profiler=profiler,
                   detail=detail, shards=shards, shard_jobs=shard_jobs)
