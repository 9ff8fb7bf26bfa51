"""Kernel-backed request-level cluster engine.

This is :class:`~repro.serving.cluster.ClusterSimulator`'s execution
engine since the unified kernel landed: the same event discipline as
the legacy closure loop (free < arrival < check at equal timestamps,
insertion-order tie-breaks), re-hosted on :mod:`repro.sim.kernel` and
verified **bit-identical** on seeded scenarios by the trace-identity
goldens.  On top of the legacy semantics it adds what the old loop
could not express:

* heterogeneous fleets (:class:`~repro.sim.fleet.FleetSpec`) —
  per-instance speed, capability sets, switch-penalty overrides, and
  per-instance accelerator targets (a
  :class:`~repro.parallel.group.PipelineGroup` mixes with single-FPGA
  replicas in one fleet);
* failure/recovery injection (:class:`~repro.sim.failures.FailurePlan`)
  — an instance fault aborts its in-flight batch, requeues the lost
  and queued work through the dispatcher (marking retries), and
  accrues downtime until the repair completes;
* degraded-window marking — requests arriving while any instance is
  down are flagged, so the SLO layer can report the failure-mode tail
  (``p99_degraded_ms``) separately from the healthy tail.

Performance: the engine replaces the legacy loop's per-event
re-derivations with incremental bookkeeping — queue-depth samples come
from a running counter instead of an O(instances) sum, batch costs are
memoized per ``(model, batch size)``, switch accounting compares
resident-model names instead of re-programming the accelerator every
batch, and the built-in schedulers run as inlined scans.  The arrival
stream never enters the event queue at all: arrivals are stable-sorted
once and merged against the kernel's
:class:`~repro.sim.kernel.EventQueue` of engine events during the drain
(one heap push+pop per *batch*, not per request).  ``detail="summary"``
additionally skips all record, trace, and sample materialization (see
:mod:`repro.sim.summary`).
Same math, same floats, same order — just less work per event (the
serving benchmarks pin the speedups).

Observer contract: an attached observer sees every trace tuple —
``("arrive", t, rid, model, inst)`` (``inst == -1`` while parked),
``("dispatch", t, inst, model, size, switch_ms)``, ``("free", t,
inst)``, ``("fail", t, inst)``, ``("recover", t, inst)`` — plus the
observer-only ``("requeue", t, rid, inst)`` for displaced work, in
nondecreasing time order.  ``dispatch`` pops exactly a head prefix of
the instance's queue, so consumers like
:class:`repro.obs.alerts.Watchdog` recover batch membership (and thus
per-request latency, online) by mirroring the queues from
arrive/requeue.  Observers are read-only: the bare-run trace stays
byte-identical with any observer attached.
"""

from __future__ import annotations

from operator import attrgetter
from time import perf_counter
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..serving.batching import BatchingPolicy, ServiceTimeModel
from ..serving.scheduler import (LeastLoaded, ModelAffinity, RoundRobin,
                                 Scheduler)
from ..serving.workload import Request
from .failures import FailureInjector, FailurePlan
from .fleet import Dispatcher, FleetSpec, InstanceSpec
from .kernel import Simulation

__all__ = ["ServeEngine"]

_EPS = 1e-9
#: Stable-sort key for the merged arrival stream: equal-time arrivals
#: keep input order, which is exactly the heap's (priority, seq)
#: tie-break for a block of same-priority pushes.
_BY_T = attrgetter("t_ms")
# Event priorities at equal timestamps (identical to the legacy loop;
# faults are new and deliberately sort last so a fault at time t sees
# the state the legacy events left behind).
_P_FREE, _P_ARRIVAL, _P_CHECK, _P_FAULT = 0, 1, 2, 3


class _BatchCost:
    """Per-target memo of total batch service time (model, size) → ms."""

    __slots__ = ("svc", "_memo")

    def __init__(self, svc: ServiceTimeModel):
        self.svc = svc
        self._memo: Dict[Tuple[str, int], float] = {}

    def ms(self, model: str, size: int) -> float:
        key = (model, size)
        ms = self._memo.get(key)
        if ms is None:
            ms = self.svc.batch_service_ms(model, size)
            self._memo[key] = ms
        return ms


class _Inst:
    """Mutable per-instance engine state (scheduler-visible)."""

    __slots__ = (
        "idx", "spec", "speed", "reprogram_ms", "cost", "queue",
        "busy_until", "last_model", "resident", "pending_check", "down",
        "epoch", "in_flight", "deploys", "switch_count",
        "reprogram_time_ms", "batches", "requests", "busy_ms",
        "failures", "downtime_ms", "down_since",
    )

    def __init__(self, idx: int, spec: InstanceSpec, reprogram_ms: float,
                 cost: _BatchCost):
        from collections import deque

        self.idx = idx
        self.spec = spec
        self.speed = spec.speed
        self.reprogram_ms = (spec.reprogram_latency_ms
                             if spec.reprogram_latency_ms is not None
                             else reprogram_ms)
        self.cost = cost
        self.queue = deque()
        self.busy_until = 0.0
        self.last_model: Optional[str] = None
        self.resident: Optional[str] = None
        self.pending_check = False
        self.down = False
        #: Bumped on every abort; stale free events carry an old epoch.
        self.epoch = 0
        #: ``(model, size, t_dispatch, t_complete, batch)`` while busy.
        self.in_flight: Optional[tuple] = None
        self.deploys = 0
        self.switch_count = 0
        self.reprogram_time_ms = 0.0
        self.batches = 0
        self.requests = 0
        self.busy_ms = 0.0
        self.failures = 0
        self.downtime_ms = 0.0
        self.down_since = 0.0

    def backlog(self, now_ms: float) -> int:
        """Queued requests plus the one in service (Scheduler Protocol)."""
        return len(self.queue) + (1 if self.busy_until > now_ms + _EPS
                                  else 0)


class _ServeDispatcher(Dispatcher):
    """Capability/health-aware dispatch with inlined built-in policies."""

    def __init__(self, scheduler: Scheduler, instances: Sequence[_Inst]):
        super().__init__(scheduler, instances)
        # Exact-type checks: a subclass may override semantics, so only
        # the stock policies take the inlined path.
        self._round_robin = type(scheduler) is RoundRobin
        self._least_loaded = type(scheduler) is LeastLoaded
        self._affinity = type(scheduler) is ModelAffinity
        self._slack = scheduler.slack if self._affinity else 0

    def _pick_fast(self, candidates, request, now_ms):
        if self._round_robin:
            # Same cursor the scheduler object would advance, so mixing
            # this path with Scheduler.pick (restricted fleets) cannot
            # desync the rotation.
            scheduler = self.scheduler
            inst = candidates[scheduler._next % len(candidates)]
            scheduler._next += 1
            return inst
        edge = now_ms + _EPS
        if self._least_loaded:
            # The first idle, empty instance wins outright: nothing
            # earlier in the scan beat backlog 0, nothing later can.
            best = None
            best_b = 0
            for inst in candidates:
                b = len(inst.queue) + (1 if inst.busy_until > edge else 0)
                if best is None or b < best_b:
                    if not b:
                        return inst
                    best, best_b = inst, b
            return best
        if self._affinity:
            model = request.model
            best = sticky = None
            best_b = sticky_b = 0
            for inst in candidates:
                b = len(inst.queue) + (1 if inst.busy_until > edge else 0)
                if best is None or b < best_b:
                    best, best_b = inst, b
                if inst.last_model == model and (sticky is None
                                                 or b < sticky_b):
                    sticky, sticky_b = inst, b
            if sticky is not None and sticky_b <= best_b + self._slack:
                return sticky
            return best
        return self.scheduler.pick(candidates, request, now_ms)


class ServeEngine(Simulation):
    """One run of the request-level cluster simulation."""

    def __init__(
        self,
        accel,
        fleet: FleetSpec,
        scheduler: Scheduler,
        batching: BatchingPolicy,
        models: Mapping,
        reprogram_latency_ms: float = 0.0,
        check_jitter_ms: float = 0.0,
        failures: Optional[FailurePlan] = None,
        instance_base: int = 0,
        failure_horizon_ms: Optional[float] = None,
        rng_seed=0,
    ):
        # All engine randomness flows through FailureInjector's own
        # streams (seeded by the plan); the base Simulation rng carries
        # the cell namespace under sharding and is otherwise unused.
        super().__init__(seed=rng_seed)
        self.accel = accel
        self.fleet = fleet
        self.scheduler = scheduler
        self.batching = batching
        self.check_jitter_ms = check_jitter_ms
        self.failures = failures
        #: First global instance index (sharded cells offset their
        #: ``_Inst.idx`` so trace rows, records, stats, and — critically
        #: — ``failure/<idx>`` RNG streams key by *global* identity:
        #: an instance's fault history never depends on which cell it
        #: landed in).
        self.instance_base = instance_base
        #: Failure-injection horizon override.  A sharded cell sees only
        #: its own arrival slice, so its default horizon (last local
        #: arrival) would differ from the unsharded run's; the shard
        #: driver passes the global last-arrival time instead.
        self.failure_horizon_ms = failure_horizon_ms
        # One batch-cost memo per distinct pricing target: instances
        # without a target override share the cluster-wide model (and
        # its memo), a PipelineGroup instance prices through its own.
        shared = _BatchCost(ServiceTimeModel(accel, models))
        costs: Dict[int, _BatchCost] = {}
        self.instances: List[_Inst] = []
        for idx, spec in enumerate(fleet.specs):
            if spec.slots is not None:
                raise ValueError(
                    "InstanceSpec.slots is generate-mode only: the "
                    "request-level serve simulation has no sequence "
                    "slots (instance "
                    f"{idx} sets slots={spec.slots})")
            if spec.target is None:
                cost = shared
            else:
                cost = costs.get(id(spec.target))
                if cost is None:
                    cost = _BatchCost(ServiceTimeModel(spec.target, models))
                    costs[id(spec.target)] = cost
            self.instances.append(
                _Inst(instance_base + idx, spec, reprogram_latency_ms,
                      cost))
        self.dispatcher = _ServeDispatcher(scheduler, self.instances)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[Request], detail: str = "full"):
        """Simulate the stream to completion and return the result.

        ``detail="full"`` returns a
        :class:`~repro.serving.cluster.SimulationResult` with one
        record per request — the byte-identity surface the goldens pin.
        ``detail="summary"`` skips record/trace/sample materialization
        and returns a :class:`~repro.sim.summary.ServeSummary`
        accumulated on the fly: the web-scale path.  Percentiles from
        either detail level are bit-identical; summary means may differ
        in the last ulp (float accumulation order).

        Import note: the result dataclasses live in
        :mod:`repro.serving.cluster` (the public façade), imported
        lazily to keep the package graph acyclic.
        """
        if detail == "summary":
            return self._run_summary(requests)
        if detail != "full":
            raise ValueError(
                f"unknown detail level {detail!r}: use 'full' or "
                "'summary'")
        from ..serving.cluster import (InstanceStats, RequestRecord,
                                       SimulationResult)

        self._started = True
        queue = self.queue
        push = queue.push
        trace = self.trace
        # Observer wiring: with nothing attached, ``emit`` *is*
        # ``trace.append`` (the pre-hook fast path, unchanged); with an
        # observer, every trace tuple is forwarded after being logged.
        # ``note`` carries observer-only bookkeeping events (requeues)
        # that never enter the trace — trace bytes stay identical.
        note = self.observer
        if note is None:
            emit = trace.append
        else:
            def emit(event, _append=trace.append, _obs=note):
                _append(event)
                _obs(event)
        instances = self.instances
        dispatcher = self.dispatcher
        batching = self.batching
        max_batch = batching.max_batch
        timeout_ms = batching.timeout_ms
        # Stock policies inline their decide() logic; a subclass with
        # custom semantics keeps the call.
        decide = None if type(batching) is BatchingPolicy else batching.decide
        check_jitter = self.check_jitter_ms
        failing = self.failures is not None

        # Dispatch: the capability/health filter only matters when a
        # fleet is restricted or failures are live; otherwise bind the
        # policy scan directly (hot path).
        if failing or dispatcher.restricted:
            pick = dispatcher.pick
        else:
            def pick(request, now_ms,
                     _fast=dispatcher._pick_fast, _all=instances):
                return _fast(_all, request, now_ms)

        samples: List[Tuple[float, int]] = []
        queued_total = 0
        #: Completed batches: (model, idx, size, t_disp, t_done, batch).
        done: List[tuple] = []
        #: Requests parked while every capable instance is down.
        pending: List[Request] = []
        retries: Dict[int, int] = {}
        degraded: Dict[int, bool] = {}

        # Arrivals never enter the event queue: a stable sort by
        # timestamp IS their pop order (equal-time arrivals keep input
        # order, exactly the heap's same-priority seq tie-break), so
        # the drain below merges this pre-sorted stream against a
        # queue that only carries engine events.
        arrivals = sorted(requests, key=_BY_T)

        injector: Optional[FailureInjector] = None
        if failing:
            horizon = (self.failure_horizon_ms
                       if self.failure_horizon_ms is not None
                       else arrivals[-1].t_ms if arrivals else 0.0)
            injector = FailureInjector(self.failures, horizon)
            for inst in instances:
                t_fail = injector.next_failure_ms(inst.idx, 0.0)
                if t_fail is not None:
                    push(t_fail, _P_FAULT, ("fail", inst))

        sample_append = samples.append

        def try_dispatch(inst: _Inst, now: float) -> None:
            nonlocal queued_total
            if inst.down or inst.busy_until > now + _EPS or not inst.queue:
                return
            iq = inst.queue
            head = iq[0]
            model = head.model
            if max_batch == 1:
                prefix = 1
            else:
                prefix = 0
                for req in iq:
                    if prefix >= max_batch or req.model != model:
                        break
                    prefix += 1
            if decide is not None:
                size = decide(prefix, now - head.t_ms)
            elif prefix >= max_batch:
                size = max_batch
            elif timeout_ms is None:
                size = prefix
            elif now - head.t_ms + _EPS >= timeout_ms:
                size = prefix
            else:
                size = None
            if size is None:
                if not inst.pending_check:
                    assert timeout_ms is not None
                    deadline = head.t_ms + timeout_ms
                    # Optional early wakeup (jitter study); once inside
                    # the jitter window, arm the true deadline so the
                    # early check cannot respawn itself forever.
                    target = deadline - check_jitter
                    if target <= now + _EPS:
                        target = deadline
                    push(target if target > now else now, _P_CHECK,
                         ("check", inst))
                    inst.pending_check = True
                return
            batch = [iq.popleft() for _ in range(size)]
            queued_total -= size
            switched = inst.resident != model
            if switched:
                inst.cost.svc.config(model)  # validate before residency
                inst.resident = model
                inst.switch_count += 1
                inst.reprogram_time_ms += inst.reprogram_ms
                switch_ms = inst.reprogram_ms
            else:
                switch_ms = 0.0
            inst.deploys += 1
            total_ms = switch_ms + inst.cost.ms(model, size) / inst.speed
            complete = now + total_ms
            inst.busy_until = complete
            inst.busy_ms += total_ms
            inst.in_flight = (model, size, now, complete, batch)
            emit(("dispatch", now, inst.idx, model, size, switch_ms))
            push(complete, _P_FREE, ("free", inst, inst.epoch))
            sample_append((now, queued_total + len(pending)))

        def route(req: Request, now: float) -> None:
            """Queue ``req`` like a fresh arrival (requeue path).

            Emits an observer-only ``requeue`` event — never appended
            to the trace, so trace bytes match the legacy loop, but
            metrics observers see displaced work re-enter a queue.
            """
            nonlocal queued_total
            inst = pick(req, now)
            if inst is None:
                pending.append(req)
                if note is not None:
                    note(("requeue", now, req.rid, -1))
                return
            inst.queue.append(req)
            queued_total += 1
            inst.last_model = req.model
            if note is not None:
                note(("requeue", now, req.rid, inst.idx))
            try_dispatch(inst, now)

        def on_arrival(req: Request, now: float) -> None:
            nonlocal queued_total
            if failing and dispatcher.down_count:
                degraded[req.rid] = True
            inst = pick(req, now)
            if inst is None:
                pending.append(req)
                emit(("arrive", now, req.rid, req.model, -1))
                sample_append((now, queued_total + len(pending)))
                return
            inst.queue.append(req)
            queued_total += 1
            inst.last_model = req.model
            emit(("arrive", now, req.rid, req.model, inst.idx))
            sample_append((now, queued_total + len(pending)))
            try_dispatch(inst, now)

        def on_free(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            if payload[2] != inst.epoch:
                return  # batch aborted by a failure; event is stale
            model, size, t_disp, t_done, batch = inst.in_flight
            inst.in_flight = None
            inst.batches += 1
            inst.requests += size
            done.append((model, inst.idx, size, t_disp, t_done, batch))
            emit(("free", now, inst.idx))
            try_dispatch(inst, now)

        def on_check(payload: tuple, now: float) -> None:
            # Deadline checks may be stale: try_dispatch re-derives
            # busy state, queue head, and head age from scratch, so a
            # stale check either no-ops, re-arms for the current head,
            # or dispatches exactly what the policy would anyway.
            inst: _Inst = payload[1]
            inst.pending_check = False
            try_dispatch(inst, now)

        def on_fail(payload: tuple, now: float) -> None:
            nonlocal queued_total
            inst: _Inst = payload[1]
            inst.down = True
            inst.down_since = now
            inst.failures += 1
            dispatcher.down_count += 1
            emit(("fail", now, inst.idx))
            lost: List[Request] = []
            if inst.in_flight is not None and inst.busy_until > now + _EPS:
                # Abort the in-flight batch: refund the unserved tail of
                # the busy window and requeue the members as retries.
                inst.busy_ms -= inst.busy_until - now
                inst.busy_until = now
                inst.epoch += 1
                batch = inst.in_flight[4]
                inst.in_flight = None
                for req in batch:
                    retries[req.rid] = retries.get(req.rid, 0) + 1
                lost.extend(batch)
            inst.resident = None  # weights are lost with the instance
            queued = list(inst.queue)
            inst.queue.clear()
            queued_total -= len(queued)
            sample_append((now, queued_total + len(pending)))
            for req in lost:
                route(req, now)
            for req in queued:
                route(req, now)
            assert injector is not None
            push(now + injector.repair_duration_ms(inst.idx), _P_FAULT,
                 ("recover", inst))

        def on_recover(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            inst.down = False
            inst.downtime_ms += now - inst.down_since
            dispatcher.down_count -= 1
            emit(("recover", now, inst.idx))
            assert injector is not None
            t_fail = injector.next_failure_ms(inst.idx, now)
            if t_fail is not None:
                push(t_fail, _P_FAULT, ("fail", inst))
            if pending:
                parked, pending[:] = list(pending), []
                for req in parked:
                    route(req, now)

        # Merged drain: an engine event pops ahead of the next arrival
        # only when strictly earlier, or at the same timestamp with the
        # free priority — the single engine priority below arrivals.
        # Check (2) and fault (3) events at an arrival's timestamp sort
        # after every arrival at that time, exactly as in the heap.
        # The profiled variant is a separate loop so the bare path
        # never pays for the timing.
        clock = self.clock
        pop = queue.pop

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "free":
                on_free(payload, now)
            elif kind == "check":
                on_check(payload, now)
            elif kind == "fail":
                on_fail(payload, now)
            else:
                on_recover(payload, now)

        if self.profiler is not None:
            record = self.profiler.record
            for req in arrivals:
                ta = req.t_ms
                head = queue.head
                while head is not None and (
                        head[0] < ta
                        or (head[0] == ta and head[1] == _P_FREE)):
                    now, _prio, _seq, payload = pop()
                    clock.now_ms = now
                    t0 = perf_counter()
                    handle(payload, now)
                    record(payload[0], perf_counter() - t0)
                    head = queue.head
                clock.now_ms = ta
                t0 = perf_counter()
                on_arrival(req, ta)
                record("arrival", perf_counter() - t0)
            while queue:
                now, _prio, _seq, payload = pop()
                clock.now_ms = now
                t0 = perf_counter()
                handle(payload, now)
                record(payload[0], perf_counter() - t0)
        else:
            for req in arrivals:
                ta = req.t_ms
                head = queue.head
                while head is not None and (
                        head[0] < ta
                        or (head[0] == ta and head[1] == _P_FREE)):
                    now, _prio, _seq, payload = pop()
                    clock.now_ms = now
                    handle(payload, now)
                    head = queue.head
                clock.now_ms = ta
                on_arrival(req, ta)
            while queue:
                now, _prio, _seq, payload = pop()
                clock.now_ms = now  # monotone by pop order
                handle(payload, now)
        self._finish_observer()

        records = [
            RequestRecord(
                rid=req.rid, model=model, instance=idx, batch_size=size,
                t_arrival_ms=req.t_ms, t_dispatch_ms=t_disp,
                t_complete_ms=t_done,
                retries=retries.get(req.rid, 0),
                degraded=degraded.get(req.rid, False),
            )
            for model, idx, size, t_disp, t_done, batch in done
            for req in batch
        ]
        records.sort(key=lambda r: r.rid)
        makespan = max((r.t_complete_ms for r in records), default=0.0)
        availability: Optional[float] = None
        if failing:
            horizon = max(makespan, self.clock.now_ms)
            availability = (
                1.0 - sum(i.downtime_ms for i in instances)
                / (len(instances) * horizon) if horizon > 0 else 1.0)
        return SimulationResult(
            records=records,
            instances=[
                InstanceStats(
                    index=i.idx, requests=i.requests, batches=i.batches,
                    busy_ms=i.busy_ms, reprogram_count=i.deploys,
                    switch_count=i.switch_count,
                    reprogram_time_ms=i.reprogram_time_ms,
                    failures=i.failures, downtime_ms=i.downtime_ms,
                ) for i in instances
            ],
            n_instances=len(instances),
            makespan_ms=makespan,
            queue_samples=samples,
            trace=trace,
            scheduler=self.scheduler.name,
            batching=self.batching.name,
            availability=availability,
            total_failures=sum(i.failures for i in instances),
            total_retries=sum(retries.values()),
        )

    # ------------------------------------------------------------------
    def _run_summary(self, requests: Sequence[Request]):
        """The ``detail="summary"`` drain: accumulate, don't materialize.

        Same event order, same dispatch decisions, same floats per
        event as the full path — but no ``RequestRecord`` objects, no
        trace list, no queue-depth sample list.  Latency multisets are
        collected per model (percentiles stay exact); wait/batch-size
        sums and the queue-depth integral are folded in as events fire.
        An attached observer still sees every trace tuple (tuples are
        built only when someone is listening); profilers need the full
        drain and are rejected.
        """
        if self.profiler is not None:
            raise ValueError(
                "KernelProfiler requires detail='full': the summary "
                "drain has no per-event handler boundaries to time")
        self._started = True
        queue = self.queue
        push = queue.push
        note = self.observer
        observing = note is not None
        instances = self.instances
        dispatcher = self.dispatcher
        batching = self.batching
        max_batch = batching.max_batch
        timeout_ms = batching.timeout_ms
        decide = None if type(batching) is BatchingPolicy else batching.decide
        check_jitter = self.check_jitter_ms
        failing = self.failures is not None

        if failing or dispatcher.restricted:
            pick = dispatcher.pick
        else:
            def pick(request, now_ms,
                     _fast=dispatcher._pick_fast, _all=instances):
                return _fast(_all, request, now_ms)

        # Per-model accumulators (latency lists keep the exact multiset
        # for order statistics; sums replace the full path's record
        # scans).
        m_lats: Dict[str, List[float]] = {}
        m_wait: Dict[str, float] = {}
        m_sq: Dict[str, int] = {}
        # Queue-depth step integral, same add order as
        # slo._time_weighted_mean over the full sample list.
        area = 0.0
        prev_t = 0.0
        cur_depth = 0
        max_depth = 0
        makespan = 0.0
        total_done = 0
        degraded_done = 0
        queued_total = 0
        pending: List[Request] = []
        retries: Dict[int, int] = {}
        degraded: Dict[int, bool] = {}
        touched: Optional[List[float]] = [] if failing else None

        arrivals = sorted(requests, key=_BY_T)

        injector: Optional[FailureInjector] = None
        if failing:
            horizon = (self.failure_horizon_ms
                       if self.failure_horizon_ms is not None
                       else arrivals[-1].t_ms if arrivals else 0.0)
            injector = FailureInjector(self.failures, horizon)
            for inst in instances:
                t_fail = injector.next_failure_ms(inst.idx, 0.0)
                if t_fail is not None:
                    push(t_fail, _P_FAULT, ("fail", inst))

        if (not failing and not dispatcher.restricted and decide is None
                and not observing):
            # The web-scale drain: everything the per-event closures
            # below do, inlined into one loop.  The preconditions kill
            # whole event classes — no failures means no fault/recover
            # events, no stale epochs, and pick() never parks a request
            # (``pending`` stays empty).  The engine queue therefore
            # holds only completion (``_P_FREE``) and batching-deadline
            # (``_P_CHECK``) events: a free at an arrival's exact
            # timestamp pops first, a check after it — the heap's
            # priority order.
            rr = dispatcher._round_robin
            rr_next = 0
            n_inst = len(instances)
            pick_fast = dispatcher._pick_fast
            pop = queue.pop

            def dispatch(inst: _Inst, now: float) -> None:
                # try_dispatch with the idle/queue checks hoisted to
                # the call sites and the stock policy's decide() folded
                # in: size is the same-model head prefix, capped, or a
                # deadline check while a partial batch waits out its
                # timeout.
                nonlocal queued_total, area, prev_t, cur_depth
                iq = inst.queue
                head = iq[0]
                model = head.model
                if max_batch == 1:
                    size = 1
                else:
                    size = 0
                    for r in iq:
                        if size >= max_batch or r.model != model:
                            break
                        size += 1
                    if (size < max_batch and timeout_ms is not None
                            and now - head.t_ms + _EPS < timeout_ms):
                        if not inst.pending_check:
                            deadline = head.t_ms + timeout_ms
                            target = deadline - check_jitter
                            if target <= now + _EPS:
                                target = deadline
                            push(target if target > now else now, _P_CHECK,
                                 ("check", inst))
                            inst.pending_check = True
                        return
                batch = [iq.popleft() for _ in range(size)]
                queued_total -= size
                if inst.resident != model:
                    inst.cost.svc.config(model)  # validate, then reside
                    inst.resident = model
                    inst.switch_count += 1
                    inst.reprogram_time_ms += inst.reprogram_ms
                    switch_ms = inst.reprogram_ms
                else:
                    switch_ms = 0.0
                inst.deploys += 1
                total_ms = switch_ms + inst.cost.ms(model, size) / inst.speed
                complete = now + total_ms
                inst.busy_until = complete
                inst.busy_ms += total_ms
                inst.in_flight = (model, size, now, complete, batch)
                push(complete, _P_FREE, ("free", inst, inst.epoch))
                area += cur_depth * (now - prev_t)
                prev_t = now
                cur_depth = queued_total  # depth fell: max unchanged

            def engine_event(head: tuple) -> None:
                nonlocal makespan, total_done
                inst: _Inst = head[3][1]
                if head[1] != _P_FREE:
                    # Deadline check: may be stale, so re-derive idle
                    # state and queue from scratch like on_check does.
                    inst.pending_check = False
                    now = head[0]
                    if inst.queue and inst.busy_until <= now + _EPS:
                        dispatch(inst, now)
                    return
                model, size, t_disp, t_done, batch = inst.in_flight
                inst.in_flight = None
                inst.batches += 1
                inst.requests += size
                lats = m_lats.get(model)
                if lats is None:
                    lats = m_lats[model] = []
                    m_wait[model] = 0.0
                    m_sq[model] = 0
                append = lats.append
                wait = 0.0
                for r in batch:
                    t0 = r.t_ms
                    append(t_done - t0)
                    wait += t_disp - t0
                m_wait[model] += wait
                m_sq[model] += size * size
                total_done += size
                makespan = t_done  # free events pop in time order
                if inst.queue:
                    dispatch(inst, t_done)

            for req in arrivals:
                ta = req.t_ms
                head = queue.head
                while head is not None and (
                        head[0] < ta
                        or (head[0] == ta and head[1] == _P_FREE)):
                    pop()
                    engine_event(head)
                    head = queue.head
                if rr:
                    inst = instances[rr_next]
                    rr_next += 1
                    if rr_next == n_inst:
                        rr_next = 0
                else:
                    inst = pick_fast(instances, req, ta)
                inst.queue.append(req)
                queued_total += 1
                inst.last_model = req.model
                d = queued_total
                area += cur_depth * (ta - prev_t)
                prev_t = ta
                cur_depth = d
                if d > max_depth:
                    max_depth = d
                if inst.busy_until <= ta + _EPS:
                    dispatch(inst, ta)
            while queue:
                head = queue.head
                pop()
                engine_event(head)
            # Nothing in the fast drain reads the clock; leave it at
            # the last arrival or completion for the shared epilogue.
            self.clock.now_ms = max(
                makespan, arrivals[-1].t_ms if arrivals else 0.0)
            return self._build_summary(
                total_done, makespan, m_lats, m_wait, m_sq, area, prev_t,
                cur_depth, max_depth, retries, degraded_done, touched,
                failing)

        def sample(now: float, d: int) -> None:
            nonlocal area, prev_t, cur_depth, max_depth
            area += cur_depth * (now - prev_t)
            prev_t = now
            cur_depth = d
            if d > max_depth:
                max_depth = d

        def try_dispatch(inst: _Inst, now: float) -> None:
            nonlocal queued_total
            if inst.down or inst.busy_until > now + _EPS or not inst.queue:
                return
            iq = inst.queue
            head = iq[0]
            model = head.model
            if max_batch == 1:
                prefix = 1
            else:
                prefix = 0
                for req in iq:
                    if prefix >= max_batch or req.model != model:
                        break
                    prefix += 1
            if decide is not None:
                size = decide(prefix, now - head.t_ms)
            elif prefix >= max_batch:
                size = max_batch
            elif timeout_ms is None:
                size = prefix
            elif now - head.t_ms + _EPS >= timeout_ms:
                size = prefix
            else:
                size = None
            if size is None:
                if not inst.pending_check:
                    assert timeout_ms is not None
                    deadline = head.t_ms + timeout_ms
                    target = deadline - check_jitter
                    if target <= now + _EPS:
                        target = deadline
                    push(target if target > now else now, _P_CHECK,
                         ("check", inst))
                    inst.pending_check = True
                return
            batch = [iq.popleft() for _ in range(size)]
            queued_total -= size
            switched = inst.resident != model
            if switched:
                inst.cost.svc.config(model)  # validate before residency
                inst.resident = model
                inst.switch_count += 1
                inst.reprogram_time_ms += inst.reprogram_ms
                switch_ms = inst.reprogram_ms
            else:
                switch_ms = 0.0
            inst.deploys += 1
            total_ms = switch_ms + inst.cost.ms(model, size) / inst.speed
            complete = now + total_ms
            inst.busy_until = complete
            inst.busy_ms += total_ms
            inst.in_flight = (model, size, now, complete, batch)
            if observing:
                note(("dispatch", now, inst.idx, model, size, switch_ms))
            push(complete, _P_FREE, ("free", inst, inst.epoch))
            sample(now, queued_total + len(pending))

        def route(req: Request, now: float) -> None:
            nonlocal queued_total
            inst = pick(req, now)
            if inst is None:
                pending.append(req)
                if observing:
                    note(("requeue", now, req.rid, -1))
                return
            inst.queue.append(req)
            queued_total += 1
            inst.last_model = req.model
            if observing:
                note(("requeue", now, req.rid, inst.idx))
            try_dispatch(inst, now)

        def on_arrival(req: Request, now: float) -> None:
            nonlocal queued_total
            if failing and dispatcher.down_count:
                degraded[req.rid] = True
            inst = pick(req, now)
            if inst is None:
                pending.append(req)
                if observing:
                    note(("arrive", now, req.rid, req.model, -1))
                sample(now, queued_total + len(pending))
                return
            inst.queue.append(req)
            queued_total += 1
            inst.last_model = req.model
            if observing:
                note(("arrive", now, req.rid, req.model, inst.idx))
            sample(now, queued_total + len(pending))
            try_dispatch(inst, now)

        def on_free(payload: tuple, now: float) -> None:
            nonlocal makespan, total_done, degraded_done
            inst: _Inst = payload[1]
            if payload[2] != inst.epoch:
                return  # batch aborted by a failure; event is stale
            model, size, t_disp, t_done, batch = inst.in_flight
            inst.in_flight = None
            inst.batches += 1
            inst.requests += size
            if observing:
                note(("free", now, inst.idx))
            lats = m_lats.get(model)
            if lats is None:
                lats = m_lats[model] = []
                m_wait[model] = 0.0
                m_sq[model] = 0
            append = lats.append
            wait = 0.0
            if failing:
                for req in batch:
                    t0 = req.t_ms
                    lat = t_done - t0
                    append(lat)
                    wait += t_disp - t0
                    rid = req.rid
                    deg = degraded.get(rid, False)
                    if deg:
                        degraded_done += 1
                    if deg or retries.get(rid):
                        touched.append(lat)
            else:
                for req in batch:
                    t0 = req.t_ms
                    append(t_done - t0)
                    wait += t_disp - t0
            m_wait[model] += wait
            m_sq[model] += size * size
            total_done += size
            makespan = t_done  # free events pop in time order
            try_dispatch(inst, now)

        def on_check(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            inst.pending_check = False
            try_dispatch(inst, now)

        def on_fail(payload: tuple, now: float) -> None:
            nonlocal queued_total
            inst: _Inst = payload[1]
            inst.down = True
            inst.down_since = now
            inst.failures += 1
            dispatcher.down_count += 1
            if observing:
                note(("fail", now, inst.idx))
            lost: List[Request] = []
            if inst.in_flight is not None and inst.busy_until > now + _EPS:
                inst.busy_ms -= inst.busy_until - now
                inst.busy_until = now
                inst.epoch += 1
                batch = inst.in_flight[4]
                inst.in_flight = None
                for req in batch:
                    retries[req.rid] = retries.get(req.rid, 0) + 1
                lost.extend(batch)
            inst.resident = None  # weights are lost with the instance
            queued = list(inst.queue)
            inst.queue.clear()
            queued_total -= len(queued)
            sample(now, queued_total + len(pending))
            for req in lost:
                route(req, now)
            for req in queued:
                route(req, now)
            assert injector is not None
            push(now + injector.repair_duration_ms(inst.idx), _P_FAULT,
                 ("recover", inst))

        def on_recover(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            inst.down = False
            inst.downtime_ms += now - inst.down_since
            dispatcher.down_count -= 1
            if observing:
                note(("recover", now, inst.idx))
            assert injector is not None
            t_fail = injector.next_failure_ms(inst.idx, now)
            if t_fail is not None:
                push(t_fail, _P_FAULT, ("fail", inst))
            if pending:
                parked, pending[:] = list(pending), []
                for req in parked:
                    route(req, now)

        # Same merged drain as the full path (see run()).
        clock = self.clock
        pop = queue.pop

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "free":
                on_free(payload, now)
            elif kind == "check":
                on_check(payload, now)
            elif kind == "fail":
                on_fail(payload, now)
            else:
                on_recover(payload, now)

        for req in arrivals:
            ta = req.t_ms
            head = queue.head
            while head is not None and (
                    head[0] < ta
                    or (head[0] == ta and head[1] == _P_FREE)):
                now, _prio, _seq, payload = pop()
                clock.now_ms = now
                handle(payload, now)
                head = queue.head
            clock.now_ms = ta
            on_arrival(req, ta)
        while queue:
            now, _prio, _seq, payload = pop()
            clock.now_ms = now  # monotone by pop order
            handle(payload, now)
        self._finish_observer()
        return self._build_summary(
            total_done, makespan, m_lats, m_wait, m_sq, area, prev_t,
            cur_depth, max_depth, retries, degraded_done, touched, failing)

    def _build_summary(self, total_done, makespan, m_lats, m_wait, m_sq,
                       area, prev_t, cur_depth, max_depth, retries,
                       degraded_done, touched, failing):
        """Fold the drain accumulators into a :class:`ServeSummary`."""
        from ..serving.cluster import InstanceStats
        from .summary import ServeSummary

        instances = self.instances
        availability: Optional[float] = None
        if failing:
            horizon = max(makespan, self.clock.now_ms)
            availability = (
                1.0 - sum(i.downtime_ms for i in instances)
                / (len(instances) * horizon) if horizon > 0 else 1.0)
        return ServeSummary(
            total_requests=total_done,
            makespan_ms=makespan,
            n_instances=len(instances),
            scheduler=self.scheduler.name,
            batching=self.batching.name,
            model_lats=m_lats,
            model_wait_sum=m_wait,
            model_batch_sq=m_sq,
            instances=[
                InstanceStats(
                    index=i.idx, requests=i.requests, batches=i.batches,
                    busy_ms=i.busy_ms, reprogram_count=i.deploys,
                    switch_count=i.switch_count,
                    reprogram_time_ms=i.reprogram_time_ms,
                    failures=i.failures, downtime_ms=i.downtime_ms,
                ) for i in instances
            ],
            depth_area=area,
            depth_last_t=prev_t,
            depth_last=cur_depth,
            max_queue_depth=max_depth,
            availability=availability,
            total_failures=sum(i.failures for i in instances),
            total_retries=sum(retries.values()),
            degraded_count=degraded_done if failing else None,
            touched_lats=touched,
        )
