"""Kernel-backed continuous-batching generation engine.

The execution engine behind :class:`~repro.serving.generation.
GenerationClusterSimulator` since the unified kernel landed: identical
event discipline to the legacy loop (step completions before arrivals
at equal timestamps), re-hosted on :mod:`repro.sim.kernel` and held
bit-identical on seeded scenarios by the trace-identity goldens.  The
scenario layer the legacy loop could not express:

* **priority admission with preemption** — when any request carries a
  nonzero priority, admission picks waiting work by ``(priority desc,
  rid asc)`` instead of FIFO, and a strictly-higher-priority arrival
  may evict the lowest-priority in-flight sequence at a step boundary.
  The victim requeues as a *resume*: it keeps its emitted tokens, and
  on re-admission pays a re-prefill over its cached positions (the KV
  rebuild) before decoding on;
* **heterogeneous fleets** — per-instance speed scales the compute
  half of every step (weight streams and attention sweeps), switch
  penalties can be overridden per instance, and capability sets
  restrict dispatch;
* **failure injection** — a fault mid-step (including mid-prefill)
  aborts the step: sequences that had already emitted their first
  token requeue as resumes, ones still in prefill requeue as fresh
  requests, and both count a retry.  Queued work re-routes through the
  dispatcher; downtime accrues until repair.

Performance: events here are already batched per resource — one
``("step", inst, epoch)`` event advances *every* in-flight sequence of
an instance by one token (the decode sweep prices all slots in one
:meth:`~repro.serving.generation.GenerationServiceModel.decode_step_ms`
call), so the event queue holds at most one step event per instance,
never one per token.  The arrival stream never enters the event queue
either: arrivals are stable-sorted once and merged against the
kernel's :class:`~repro.sim.kernel.EventQueue` of step/fault events
during the drain.  ``detail="summary"`` additionally skips all record, trace,
and sample materialization (see :mod:`repro.sim.summary`).

Observer contract: attached observers receive every trace tuple —
``("arrive", t, rid, model, inst)``, ``("admit", t, inst, rid, prompt,
output)``, ``("resume", t, inst, rid, cached, remaining)``, ``("step",
t, inst, model, admitted, decoding, duration)``, ``("finish", t, inst,
rid)``, ``("preempt", t, inst, rid)``, ``("fail"/"recover", t, inst)``
— plus the observer-only ``("requeue", t, rid, inst)``.  Admits at
time ``t`` precede their step event, and that step's first tokens land
at ``t + duration``; ``preempt`` returns the victim to its instance's
queue *without* a requeue event; a ``fail`` before a step completes
aborts it (no first tokens were produced).  The
:class:`repro.obs.alerts.Watchdog` derives online TTFT from exactly
these rules.  Observers are read-only: the bare-run trace stays
byte-identical with any observer attached.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..serving.scheduler import LeastLoaded, ModelAffinity, Scheduler
from ..serving.workload import GenerationRequest
from .failures import FailureInjector, FailurePlan
from .fleet import Dispatcher, FleetSpec, InstanceSpec
from .kernel import Simulation

__all__ = ["GenerationEngine"]

_EPS = 1e-9
#: Stable-sort key for the merged arrival stream (see ServeEngine).
_BY_T = attrgetter("t_ms")
# Step completions land before new arrivals at equal timestamps (the
# legacy rule); faults sort last so they observe settled state.
_P_STEP, _P_ARRIVAL, _P_FAULT = 0, 1, 2


class _Seq:
    """One in-flight request's decoding state."""

    __slots__ = ("req", "cached", "remaining", "t_admit", "t_first")

    def __init__(self, req: GenerationRequest, t_admit: float,
                 t_first: float):
        self.req = req
        self.cached = req.prompt_tokens
        self.remaining = req.output_tokens - 1
        self.t_admit = t_admit
        self.t_first = t_first


class _Resume:
    """A preempted/failed-over sequence waiting to re-enter a slot.

    Quacks like a request for dispatch purposes (``model``,
    ``priority``, ``rid``) while carrying the decoding state to
    restore.  Re-admission re-prefills ``seq.cached`` positions — the
    evicted KV cache must be rebuilt — then decoding continues.
    """

    __slots__ = ("seq",)

    def __init__(self, seq: _Seq):
        self.seq = seq

    @property
    def model(self) -> str:
        return self.seq.req.model

    @property
    def rid(self) -> int:
        return self.seq.req.rid

    @property
    def priority(self) -> int:
        return self.seq.req.priority

    @property
    def t_ms(self) -> float:
        return self.seq.req.t_ms


class _Inst:
    """Mutable per-instance engine state (scheduler-visible)."""

    __slots__ = (
        "idx", "spec", "speed", "reprogram_ms", "slots", "queue", "active",
        "busy_until", "last_model", "resident", "down", "epoch",
        "step_done", "requests", "steps", "prefills", "tokens", "busy_ms",
        "switch_count", "reprogram_time_ms", "preemptions", "failures",
        "downtime_ms", "down_since",
    )

    def __init__(self, idx: int, spec: InstanceSpec, reprogram_ms: float,
                 slots: int):
        self.idx = idx
        self.spec = spec
        self.speed = spec.speed
        self.reprogram_ms = (spec.reprogram_latency_ms
                             if spec.reprogram_latency_ms is not None
                             else reprogram_ms)
        self.slots = spec.slots if spec.slots is not None else slots
        self.queue = deque()
        self.active: List[_Seq] = []
        self.busy_until = 0.0
        self.last_model: Optional[str] = None
        self.resident: Optional[str] = None
        self.down = False
        self.epoch = 0
        self.step_done: List[Tuple[_Seq, bool]] = []
        self.requests = 0
        self.steps = 0
        self.prefills = 0
        self.tokens = 0
        self.busy_ms = 0.0
        self.switch_count = 0
        self.reprogram_time_ms = 0.0
        self.preemptions = 0
        self.failures = 0
        self.downtime_ms = 0.0
        self.down_since = 0.0

    def backlog(self, now_ms: float) -> int:
        """Waiting plus in-flight sequences (Scheduler Protocol)."""
        return len(self.queue) + len(self.active)


class _GenDispatcher(Dispatcher):
    """Capability/health-aware dispatch with inlined built-in policies."""

    def __init__(self, scheduler: Scheduler, instances: Sequence[_Inst]):
        super().__init__(scheduler, instances)
        self._least_loaded = type(scheduler) is LeastLoaded
        self._affinity = type(scheduler) is ModelAffinity

    def _pick_fast(self, candidates, request, now_ms):
        if self._least_loaded:
            best = None
            best_b = 0
            for inst in candidates:
                b = len(inst.queue) + len(inst.active)
                if best is None or b < best_b:
                    best, best_b = inst, b
            return best
        if self._affinity:
            model = request.model
            best = sticky = None
            best_b = sticky_b = 0
            for inst in candidates:
                b = len(inst.queue) + len(inst.active)
                if best is None or b < best_b:
                    best, best_b = inst, b
                if inst.last_model == model and (sticky is None
                                                 or b < sticky_b):
                    sticky, sticky_b = inst, b
            if sticky is not None and sticky_b <= best_b + self.scheduler.slack:
                return sticky
            return best
        return self.scheduler.pick(candidates, request, now_ms)


class GenerationEngine(Simulation):
    """One run of the token-level continuous-batching simulation."""

    def __init__(
        self,
        service,  # GenerationServiceModel
        fleet: FleetSpec,
        slots: int,
        scheduler: Scheduler,
        reprogram_latency_ms: float = 0.0,
        failures: Optional[FailurePlan] = None,
        preemption: Optional[bool] = None,
        instance_base: int = 0,
        failure_horizon_ms: Optional[float] = None,
        rng_seed=0,
    ):
        # All engine randomness flows through FailureInjector's own
        # streams (seeded by the plan); the base Simulation rng carries
        # the cell namespace under sharding and is otherwise unused.
        super().__init__(seed=rng_seed)
        #: First global instance index and failure-horizon override —
        #: see :class:`repro.sim.serve.ServeEngine` for the sharding
        #: contract behind both.
        self.instance_base = instance_base
        self.failure_horizon_ms = failure_horizon_ms
        self.service = service
        self.fleet = fleet
        self.slots = slots
        self.scheduler = scheduler
        self.failures = failures
        #: None = auto: preempt iff any request carries a priority.
        self.preemption = preemption
        for spec in fleet.specs:
            if spec.target is not None:
                raise ValueError(
                    "per-instance targets are serve-mode only: the "
                    "generation engine prices every step through the "
                    "cluster accelerator's decode model")
        self.instances = [
            _Inst(instance_base + idx, spec, reprogram_latency_ms, slots)
            for idx, spec in enumerate(fleet.specs)
        ]
        self.dispatcher = _GenDispatcher(scheduler, self.instances)

    # ------------------------------------------------------------------
    def run(self, requests: Sequence[GenerationRequest],
            detail: str = "full"):
        """Simulate the stream to completion and return the result.

        ``detail="full"`` returns a :class:`~repro.serving.generation.
        GenerationSimulationResult` with one record per request — the
        byte-identity surface the goldens pin.  ``detail="summary"``
        skips record/trace/sample materialization and returns a
        :class:`~repro.sim.summary.GenerationSummary` accumulated on
        the fly; percentiles from either detail level are bit-identical
        (exact multisets), means may differ in the last ulp (float
        accumulation order follows completion order, not rid order).
        """
        if detail == "summary":
            return self._run_summary(requests)
        if detail != "full":
            raise ValueError(
                f"unknown detail level {detail!r}: use 'full' or "
                "'summary'")
        from ..serving.generation import (GenerationInstanceStats,
                                          GenerationRecord,
                                          GenerationSimulationResult)

        self._started = True
        queue = self.queue
        push = queue.push
        trace = self.trace
        # Observer wiring (same contract as ServeEngine.run): detached
        # runs bind ``emit`` straight to ``trace.append``; ``note``
        # carries observer-only requeue events that never enter the
        # trace, keeping trace bytes identical either way.
        note = self.observer
        if note is None:
            emit = trace.append
        else:
            def emit(event, _append=trace.append, _obs=note):
                _append(event)
                _obs(event)
        instances = self.instances
        dispatcher = self.dispatcher
        service = self.service
        prefill_ms = service.prefill_ms
        decode_step_ms = service.decode_step_ms
        priority_mode = (self.preemption if self.preemption is not None
                         else any(r.priority for r in requests))

        records: List[GenerationRecord] = []
        samples: List[Tuple[float, int]] = []
        pending: List[Union[GenerationRequest, _Resume]] = []
        retries: Dict[int, int] = {}
        preempt_counts: Dict[int, int] = {}
        degraded: Dict[int, bool] = {}
        failing = self.failures is not None

        # Arrivals never enter the event queue: a stable sort by
        # timestamp IS their pop order (equal-time arrivals keep input
        # order, exactly the heap's same-priority seq tie-break), so
        # the drain below merges this pre-sorted stream against a
        # queue that only carries step and fault events.
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

        def sample(now: float) -> None:
            samples.append(
                (now, sum(len(i.queue) + len(i.active) for i in instances)
                 + len(pending)))

        def take_next(inst: _Inst, resident: Optional[str]):
            """Pop the next admissible queue entry (None if head-blocked).

            FIFO in legacy mode; ``(priority desc, rid asc)`` when
            priorities are in play — the order the goldens pin.
            """
            iq = inst.queue
            if not iq:
                return None
            if not priority_mode:
                head = iq[0]
                if resident is not None and head.model != resident:
                    return None
                return iq.popleft()
            best_at = -1
            best_key = None
            for pos, entry in enumerate(iq):
                if resident is not None and entry.model != resident:
                    continue
                key = (-entry.priority, entry.rid)
                if best_key is None or key < best_key:
                    best_at, best_key = pos, key
            if best_at < 0:
                return None
            iq.rotate(-best_at)
            entry = iq.popleft()
            iq.rotate(best_at)
            return entry

        def preempt_for(inst: _Inst, now: float) -> None:
            """Evict low-priority actives for strictly-higher waiters.

            Only waiters of the resident model are eligible: in-flight
            sequences all share one weight set, so an eviction could
            never admit a different model anyway (mixed weights cannot
            be resident together).
            """
            iq = inst.queue
            while iq and inst.active and len(inst.active) >= inst.slots:
                resident = inst.active[0].req.model
                top = max((e.priority for e in iq if e.model == resident),
                          default=None)
                victim = min(
                    inst.active,
                    key=lambda s: (s.req.priority, s.cached, -s.req.rid))
                if top is None or top <= victim.req.priority:
                    return
                inst.active.remove(victim)
                inst.preemptions += 1
                preempt_counts[victim.req.rid] = (
                    preempt_counts.get(victim.req.rid, 0) + 1)
                emit(("preempt", now, inst.idx, victim.req.rid))
                iq.append(_Resume(victim))

        def start_step(inst: _Inst, now: float) -> None:
            """Admit at the boundary, then run one engine step."""
            if inst.down or inst.busy_until > now + _EPS:
                return
            if priority_mode:
                preempt_for(inst, now)
            admitted: List[Union[GenerationRequest, _Resume]] = []
            resident = inst.active[0].req.model if inst.active else None
            while len(inst.active) + len(admitted) < inst.slots:
                entry = take_next(inst, resident)
                if entry is None:
                    break
                admitted.append(entry)
                if resident is None:
                    resident = entry.model
            if not admitted and not inst.active:
                return
            model = resident
            switched = inst.resident != model
            if switched:
                service.config(model)  # validate before residency
                inst.resident = model
                inst.switch_count += 1
                inst.reprogram_time_ms += inst.reprogram_ms
                switch_ms = inst.reprogram_ms
            else:
                switch_ms = 0.0
            inst.last_model = model
            speed = inst.speed

            # Decode sweep covers sequences active *before* this step;
            # the newly admitted prefill inside it and join the next one.
            decoding = list(inst.active)
            duration = switch_ms
            for entry in admitted:
                if type(entry) is _Resume:
                    seq = entry.seq
                    duration += prefill_ms(model, seq.cached) / speed
                    inst.active.append(seq)
                    inst.prefills += 1
                    emit(("resume", now, inst.idx, seq.req.rid,
                          seq.cached, seq.remaining))
                else:
                    duration += prefill_ms(model, entry.prompt_tokens) / speed
                    seq = _Seq(entry, t_admit=now, t_first=now + duration)
                    inst.active.append(seq)
                    inst.prefills += 1
                    inst.requests += 1
                    inst.tokens += 1  # the prefill's first token
                    emit(("admit", now, inst.idx, entry.rid,
                          entry.prompt_tokens, entry.output_tokens))
            if decoding:
                duration += decode_step_ms(
                    model, [s.cached + 1 for s in decoding]) / speed
            end = now + duration
            inst.busy_until = end
            inst.busy_ms += duration
            inst.steps += 1
            inst.step_done = [(s, True) for s in decoding]
            inst.tokens += len(decoding)
            emit(("step", now, inst.idx, model, len(admitted),
                  len(decoding), duration))
            push(end, _P_STEP, ("step", inst, inst.epoch))
            sample(now)

        def finish_step(inst: _Inst, now: float) -> None:
            """Step boundary: emit tokens, vacate finished sequences."""
            for seq, decoded in inst.step_done:
                if decoded:
                    seq.cached += 1
                    seq.remaining -= 1
            inst.step_done = []
            still: List[_Seq] = []
            for seq in inst.active:
                if seq.remaining <= 0 and seq.t_first <= now + _EPS:
                    req = seq.req
                    complete = seq.t_first if req.output_tokens == 1 else now
                    records.append(GenerationRecord(
                        rid=req.rid, model=req.model, instance=inst.idx,
                        prompt_tokens=req.prompt_tokens,
                        output_tokens=req.output_tokens,
                        t_arrival_ms=req.t_ms, t_admit_ms=seq.t_admit,
                        t_first_token_ms=seq.t_first,
                        t_complete_ms=complete,
                        retries=retries.get(req.rid, 0),
                        preemptions=preempt_counts.get(req.rid, 0),
                        degraded=degraded.get(req.rid, False)))
                    emit(("finish", now, inst.idx, req.rid))
                else:
                    still.append(seq)
            inst.active = still
            sample(now)
            start_step(inst, now)

        def route(entry, now: float) -> None:
            """Queue a request/resume like a fresh arrival (requeue).

            Emits an observer-only ``requeue`` event — never appended
            to the trace — so metrics observers see displaced work
            re-enter a queue without perturbing the golden traces.
            """
            inst = dispatcher.pick(entry, now)
            if inst is None:
                pending.append(entry)
                if note is not None:
                    note(("requeue", now, entry.rid, -1))
                return
            inst.queue.append(entry)
            if inst.last_model is None:
                inst.last_model = entry.model
            if note is not None:
                note(("requeue", now, entry.rid, inst.idx))
            start_step(inst, now)

        def on_arrival(req: GenerationRequest, now: float) -> None:
            if failing and dispatcher.down_count:
                degraded[req.rid] = True
            inst = dispatcher.pick(req, now)
            if inst is None:
                pending.append(req)
                emit(("arrive", now, req.rid, req.model, -1))
                sample(now)
                return
            inst.queue.append(req)
            if inst.last_model is None:
                inst.last_model = req.model
            emit(("arrive", now, req.rid, req.model, inst.idx))
            sample(now)
            start_step(inst, now)

        def on_step(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            if payload[2] != inst.epoch:
                return  # step aborted by a failure; event is stale
            finish_step(inst, now)

        def on_fail(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            inst.down = True
            inst.down_since = now
            inst.failures += 1
            dispatcher.down_count += 1
            emit(("fail", now, inst.idx))
            displaced: List[Union[GenerationRequest, _Resume]] = []
            aborted_step = inst.busy_until > now + _EPS
            decoding_ids = set()
            if aborted_step:
                # Abort the step in flight (possibly mid-prefill):
                # refund the unserved tail and bump the epoch so the
                # scheduled step-completion event goes stale.  The
                # aborted sweep's decode tokens were counted at
                # start_step but never emitted — refund them too (they
                # will be re-counted where the sequences re-decode),
                # mirroring the busy_ms refund above.
                inst.busy_ms -= inst.busy_until - now
                inst.busy_until = now
                inst.epoch += 1
                inst.tokens -= sum(
                    1 for _, decoded in inst.step_done if decoded)
                decoding_ids = {id(s) for s, _ in inst.step_done}
            inst.step_done = []
            for seq in inst.active:
                retries[seq.req.rid] = retries.get(seq.req.rid, 0) + 1
                if seq.t_first <= now + _EPS:
                    # First token already delivered: resume decoding
                    # elsewhere after a KV re-prefill.  If the seq was
                    # a resume (re)admitted inside the aborted step —
                    # active but not part of its decode sweep — its
                    # re-prefill never completed: refund the count so
                    # the re-admission elsewhere doesn't double it.
                    if aborted_step and id(seq) not in decoding_ids:
                        inst.prefills -= 1
                    displaced.append(_Resume(seq))
                else:
                    # Still in prefill: nothing was delivered, so the
                    # request restarts from scratch.
                    inst.requests -= 1
                    inst.tokens -= 1  # the unemitted first token
                    inst.prefills -= 1
                    displaced.append(seq.req)
            inst.active = []
            inst.resident = None  # weights are lost with the instance
            queued = list(inst.queue)
            inst.queue.clear()
            sample(now)
            for entry in displaced:
                route(entry, now)
            for entry in queued:
                route(entry, now)
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
                for entry in parked:
                    route(entry, now)

        # Merged drain: an engine event pops ahead of the next arrival
        # only when strictly earlier, or at the same timestamp with the
        # step priority — the single engine priority below arrivals.
        # Fault events (2) at an arrival's timestamp sort after every
        # arrival at that time, exactly as in the heap.  The profiled
        # variant is a separate loop so the bare path never pays for
        # the timing.
        clock = self.clock
        pop = queue.pop

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "step":
                on_step(payload, now)
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
                        or (head[0] == ta and head[1] == _P_STEP)):
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
                        or (head[0] == ta and head[1] == _P_STEP)):
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

        makespan = max((r.t_complete_ms for r in records), default=0.0)
        records.sort(key=lambda r: r.rid)
        availability: Optional[float] = None
        if failing:
            horizon = max(makespan, self.clock.now_ms)
            availability = (
                1.0 - sum(i.downtime_ms for i in instances)
                / (len(instances) * horizon) if horizon > 0 else 1.0)
        return GenerationSimulationResult(
            records=records,
            instances=[
                GenerationInstanceStats(
                    index=i.idx, requests=i.requests, steps=i.steps,
                    prefills=i.prefills, tokens=i.tokens, busy_ms=i.busy_ms,
                    switch_count=i.switch_count,
                    reprogram_time_ms=i.reprogram_time_ms,
                    preemptions=i.preemptions, failures=i.failures,
                    downtime_ms=i.downtime_ms,
                ) for i in instances
            ],
            n_instances=len(instances),
            slots=self.slots,
            makespan_ms=makespan,
            queue_samples=samples,
            trace=trace,
            scheduler=self.scheduler.name,
            availability=availability,
            total_failures=sum(i.failures for i in instances),
            total_retries=sum(retries.values()),
            total_preemptions=sum(i.preemptions for i in instances),
        )

    # ------------------------------------------------------------------
    def _run_summary(self, requests: Sequence[GenerationRequest]):
        """The ``detail="summary"`` drain: accumulate, don't materialize.

        Same event order, same admission decisions, same floats per
        step as the full path — but no ``GenerationRecord`` objects, no
        trace list, no queue-depth sample list.  TTFT/TPOT/latency
        multisets are collected as sequences finish (percentiles stay
        exact); wait/token sums and the queue-depth integral are folded
        in as events fire.  An attached observer still sees every trace
        tuple (tuples are built only when someone is listening);
        profilers need the full drain and are rejected.
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
        service = self.service
        prefill_ms = service.prefill_ms
        decode_step_ms = service.decode_step_ms
        priority_mode = (self.preemption if self.preemption is not None
                         else any(r.priority for r in requests))
        failing = self.failures is not None

        # Per-request metric lists (exact multisets for the order
        # statistics) plus the sums the report needs.
        ttfts: List[float] = []
        tpots: List[float] = []
        lats: List[float] = []
        out_list: List[int] = []
        req_tpots: List[float] = []
        wait_sum = 0.0
        total_tokens = 0
        total_done = 0
        makespan = 0.0
        retries_total = 0
        # Queue-depth step integral, same add order as
        # slo._time_weighted_mean over the full sample list.
        area = 0.0
        prev_t = 0.0
        cur_depth = 0
        pending: List[Union[GenerationRequest, _Resume]] = []

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

        def sample(now: float) -> None:
            # Same value, same call sites as the full path's sample();
            # folded straight into the integral instead of listed.
            nonlocal area, prev_t, cur_depth
            area += cur_depth * (now - prev_t)
            prev_t = now
            cur_depth = (sum(len(i.queue) + len(i.active)
                             for i in instances) + len(pending))

        def take_next(inst: _Inst, resident: Optional[str]):
            iq = inst.queue
            if not iq:
                return None
            if not priority_mode:
                head = iq[0]
                if resident is not None and head.model != resident:
                    return None
                return iq.popleft()
            best_at = -1
            best_key = None
            for pos, entry in enumerate(iq):
                if resident is not None and entry.model != resident:
                    continue
                key = (-entry.priority, entry.rid)
                if best_key is None or key < best_key:
                    best_at, best_key = pos, key
            if best_at < 0:
                return None
            iq.rotate(-best_at)
            entry = iq.popleft()
            iq.rotate(best_at)
            return entry

        def preempt_for(inst: _Inst, now: float) -> None:
            iq = inst.queue
            while iq and inst.active and len(inst.active) >= inst.slots:
                resident = inst.active[0].req.model
                top = max((e.priority for e in iq if e.model == resident),
                          default=None)
                victim = min(
                    inst.active,
                    key=lambda s: (s.req.priority, s.cached, -s.req.rid))
                if top is None or top <= victim.req.priority:
                    return
                inst.active.remove(victim)
                inst.preemptions += 1
                if observing:
                    note(("preempt", now, inst.idx, victim.req.rid))
                iq.append(_Resume(victim))

        def start_step(inst: _Inst, now: float) -> None:
            if inst.down or inst.busy_until > now + _EPS:
                return
            if priority_mode:
                preempt_for(inst, now)
            admitted: List[Union[GenerationRequest, _Resume]] = []
            resident = inst.active[0].req.model if inst.active else None
            while len(inst.active) + len(admitted) < inst.slots:
                entry = take_next(inst, resident)
                if entry is None:
                    break
                admitted.append(entry)
                if resident is None:
                    resident = entry.model
            if not admitted and not inst.active:
                return
            model = resident
            if inst.resident != model:
                service.config(model)  # validate before residency
                inst.resident = model
                inst.switch_count += 1
                inst.reprogram_time_ms += inst.reprogram_ms
                duration = inst.reprogram_ms
            else:
                duration = 0.0
            inst.last_model = model
            speed = inst.speed

            decoding = list(inst.active)
            for entry in admitted:
                if type(entry) is _Resume:
                    seq = entry.seq
                    duration += prefill_ms(model, seq.cached) / speed
                    inst.active.append(seq)
                    inst.prefills += 1
                    if observing:
                        note(("resume", now, inst.idx, seq.req.rid,
                              seq.cached, seq.remaining))
                else:
                    duration += prefill_ms(model, entry.prompt_tokens) / speed
                    seq = _Seq(entry, t_admit=now, t_first=now + duration)
                    inst.active.append(seq)
                    inst.prefills += 1
                    inst.requests += 1
                    inst.tokens += 1  # the prefill's first token
                    if observing:
                        note(("admit", now, inst.idx, entry.rid,
                              entry.prompt_tokens, entry.output_tokens))
            if decoding:
                duration += decode_step_ms(
                    model, [s.cached + 1 for s in decoding]) / speed
            end = now + duration
            inst.busy_until = end
            inst.busy_ms += duration
            inst.steps += 1
            inst.step_done = [(s, True) for s in decoding]
            inst.tokens += len(decoding)
            if observing:
                note(("step", now, inst.idx, model, len(admitted),
                      len(decoding), duration))
            push(end, _P_STEP, ("step", inst, inst.epoch))
            sample(now)

        def finish_step(inst: _Inst, now: float) -> None:
            nonlocal wait_sum, total_tokens, total_done, makespan
            for seq, decoded in inst.step_done:
                if decoded:
                    seq.cached += 1
                    seq.remaining -= 1
            inst.step_done = []
            still: List[_Seq] = []
            for seq in inst.active:
                if seq.remaining <= 0 and seq.t_first <= now + _EPS:
                    req = seq.req
                    out = req.output_tokens
                    t_first = seq.t_first
                    complete = t_first if out == 1 else now
                    t0 = req.t_ms
                    ttfts.append(t_first - t0)
                    lats.append(complete - t0)
                    wait_sum += seq.t_admit - t0
                    out_list.append(out)
                    if out > 1:
                        tp = (complete - t_first) / (out - 1)
                        tpots.append(tp)
                        req_tpots.append(tp)
                    else:
                        req_tpots.append(0.0)
                    total_tokens += out
                    total_done += 1
                    if complete > makespan:
                        makespan = complete
                    if observing:
                        note(("finish", now, inst.idx, req.rid))
                else:
                    still.append(seq)
            inst.active = still
            sample(now)
            start_step(inst, now)

        def route(entry, now: float) -> None:
            inst = dispatcher.pick(entry, now)
            if inst is None:
                pending.append(entry)
                if observing:
                    note(("requeue", now, entry.rid, -1))
                return
            inst.queue.append(entry)
            if inst.last_model is None:
                inst.last_model = entry.model
            if observing:
                note(("requeue", now, entry.rid, inst.idx))
            start_step(inst, now)

        def on_arrival(req: GenerationRequest, now: float) -> None:
            inst = dispatcher.pick(req, now)
            if inst is None:
                pending.append(req)
                if observing:
                    note(("arrive", now, req.rid, req.model, -1))
                sample(now)
                return
            inst.queue.append(req)
            if inst.last_model is None:
                inst.last_model = req.model
            if observing:
                note(("arrive", now, req.rid, req.model, inst.idx))
            sample(now)
            start_step(inst, now)

        def on_fail(payload: tuple, now: float) -> None:
            nonlocal retries_total
            inst: _Inst = payload[1]
            inst.down = True
            inst.down_since = now
            inst.failures += 1
            dispatcher.down_count += 1
            if observing:
                note(("fail", now, inst.idx))
            displaced: List[Union[GenerationRequest, _Resume]] = []
            aborted_step = inst.busy_until > now + _EPS
            decoding_ids = set()
            if aborted_step:
                inst.busy_ms -= inst.busy_until - now
                inst.busy_until = now
                inst.epoch += 1
                inst.tokens -= sum(
                    1 for _, decoded in inst.step_done if decoded)
                decoding_ids = {id(s) for s, _ in inst.step_done}
            inst.step_done = []
            for seq in inst.active:
                retries_total += 1
                if seq.t_first <= now + _EPS:
                    if aborted_step and id(seq) not in decoding_ids:
                        inst.prefills -= 1
                    displaced.append(_Resume(seq))
                else:
                    inst.requests -= 1
                    inst.tokens -= 1  # the unemitted first token
                    inst.prefills -= 1
                    displaced.append(seq.req)
            inst.active = []
            inst.resident = None  # weights are lost with the instance
            queued = list(inst.queue)
            inst.queue.clear()
            sample(now)
            for entry in displaced:
                route(entry, now)
            for entry in queued:
                route(entry, now)
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
                for entry in parked:
                    route(entry, now)

        # Same merged drain as the full path (see run()).
        clock = self.clock
        pop = queue.pop

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "step":
                inst = payload[1]
                if payload[2] == inst.epoch:
                    finish_step(inst, now)
            elif kind == "fail":
                on_fail(payload, now)
            else:
                on_recover(payload, now)

        for req in arrivals:
            ta = req.t_ms
            head = queue.head
            while head is not None and (
                    head[0] < ta
                    or (head[0] == ta and head[1] == _P_STEP)):
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

        from ..serving.generation import GenerationInstanceStats
        from .summary import GenerationSummary

        availability: Optional[float] = None
        if failing:
            horizon = max(makespan, self.clock.now_ms)
            availability = (
                1.0 - sum(i.downtime_ms for i in instances)
                / (len(instances) * horizon) if horizon > 0 else 1.0)
        return GenerationSummary(
            total_requests=total_done,
            total_tokens=total_tokens,
            makespan_ms=makespan,
            n_instances=len(instances),
            slots=self.slots,
            scheduler=self.scheduler.name,
            ttfts=ttfts,
            tpots=tpots,
            lats=lats,
            wait_sum=wait_sum,
            out_tokens=out_list,
            req_tpots=req_tpots,
            instances=[
                GenerationInstanceStats(
                    index=i.idx, requests=i.requests, steps=i.steps,
                    prefills=i.prefills, tokens=i.tokens, busy_ms=i.busy_ms,
                    switch_count=i.switch_count,
                    reprogram_time_ms=i.reprogram_time_ms,
                    preemptions=i.preemptions, failures=i.failures,
                    downtime_ms=i.downtime_ms,
                ) for i in instances
            ],
            depth_area=area,
            depth_last_t=prev_t,
            depth_last=cur_depth,
            availability=availability,
            total_failures=sum(i.failures for i in instances),
            total_retries=retries_total,
            total_preemptions=sum(i.preemptions for i in instances),
        )
