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
during the drain.

One drain, chosen sinks: :meth:`GenerationEngine.run` holds one copy
of every handler and of the merge loop for both detail levels;
``detail="full"`` binds sinks that log the trace, the queue-depth
samples and one ``GenerationRecord`` per finished sequence, and
``detail="summary"`` binds sinks that fold the same events into a
:class:`~repro.sim.summary.GenerationSummary` (no record, trace or
sample materialization).

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
from dataclasses import replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..serving.scheduler import LeastLoaded, ModelAffinity, Scheduler
from ..serving.workload import GenerationRequest
from .failures import FailureInjector, FailurePlan
from .fleet import Dispatcher, FleetSpec, InstanceSpec
from .kernel import Simulation
from .summary import GenerationSummary

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

        One closure drain serves both detail levels; only its three
        sinks differ, and they are chosen once before the loop:

        * ``detail="full"`` returns a :class:`~repro.serving.generation.
          GenerationSimulationResult` with one record per request — the
          byte-identity surface the goldens pin.  ``emit`` appends to
          the trace (and feeds the observer), ``sample`` appends
          queue-depth samples, and every finished sequence becomes a
          ``GenerationRecord``.
        * ``detail="summary"`` returns a
          :class:`~repro.sim.summary.GenerationSummary` accumulated on
          the fly.  ``emit`` is the observer (or ``None``, so no tuple
          is built when nobody listens), ``sample`` folds the
          queue-depth integral, and finished sequences update the
          TTFT/TPOT/latency multisets and sums.

        Percentiles from either detail level are bit-identical (exact
        multisets); means may differ in the last ulp (float
        accumulation order follows completion order, not rid order).
        """
        if detail not in ("full", "summary"):
            raise ValueError(
                f"unknown detail level {detail!r}: use 'full' or "
                "'summary'")
        summary = detail == "summary"
        if summary and self.profiler is not None:
            raise ValueError(
                "KernelProfiler requires detail='full': profiles are "
                "taken on the full drain only")
        self._started = True
        queue = self.queue
        push = queue.push
        note = self.observer
        instances = self.instances
        dispatcher = self.dispatcher
        service = self.service
        prefill_ms = service.prefill_ms
        decode_step_ms = service.decode_step_ms
        priority_mode = (self.preemption if self.preemption is not None
                         else any(r.priority for r in requests))

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

        # The sinks.  ``note`` carries observer-only requeue events
        # that never enter the trace at either detail level.
        if summary:
            acc = GenerationSummary(0, 0, 0.0, len(instances), self.slots,
                                    self.scheduler.name)
            emit = note
            depth = acc._sample
            ttfts, tpots, lats = acc.ttfts, acc.tpots, acc.lats
            out_list, req_tpots = acc.out_tokens, acc.req_tpots

            def finished(seq: _Seq, idx: int, complete: float) -> None:
                req = seq.req
                out = req.output_tokens
                t_first = seq.t_first
                t0 = req.t_ms
                ttfts.append(t_first - t0)
                lats.append(complete - t0)
                acc.wait_sum += seq.t_admit - t0
                out_list.append(out)
                if out > 1:
                    tp = (complete - t_first) / (out - 1)
                    tpots.append(tp)
                    req_tpots.append(tp)
                else:
                    req_tpots.append(0.0)
                acc.total_tokens += out
                acc.total_requests += 1
                if complete > acc.makespan_ms:
                    acc.makespan_ms = complete
        else:
            from ..serving.generation import (GenerationRecord,
                                              GenerationSimulationResult)

            trace = self.trace
            records: List[GenerationRecord] = []
            samples: List[Tuple[float, int]] = []
            depth = samples.append
            # Detached runs bind ``emit`` straight to ``trace.append``;
            # an observer sees every trace tuple after it is logged.
            if note is None:
                emit = trace.append
            else:
                def emit(event, _append=trace.append, _obs=note):
                    _append(event)
                    _obs(event)

            def finished(seq: _Seq, idx: int, complete: float) -> None:
                req = seq.req
                rid = req.rid
                records.append(GenerationRecord(
                    rid=rid, model=req.model, instance=idx,
                    prompt_tokens=req.prompt_tokens,
                    output_tokens=req.output_tokens,
                    t_arrival_ms=req.t_ms, t_admit_ms=seq.t_admit,
                    t_first_token_ms=seq.t_first,
                    t_complete_ms=complete,
                    retries=retries.get(rid, 0),
                    preemptions=preempt_counts.get(rid, 0),
                    degraded=degraded.get(rid, False)))

        def sample(now: float) -> None:
            depth((now, sum(len(i.queue) + len(i.active) for i in instances)
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
                if emit is not None:
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
                    if emit is not None:
                        emit(("resume", now, inst.idx, seq.req.rid,
                              seq.cached, seq.remaining))
                else:
                    duration += prefill_ms(model, entry.prompt_tokens) / speed
                    seq = _Seq(entry, t_admit=now, t_first=now + duration)
                    inst.active.append(seq)
                    inst.prefills += 1
                    inst.requests += 1
                    inst.tokens += 1  # the prefill's first token
                    if emit is not None:
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
            if emit is not None:
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
                    finished(seq, inst.idx,
                             seq.t_first if seq.req.output_tokens == 1
                             else now)
                    if emit is not None:
                        emit(("finish", now, inst.idx, seq.req.rid))
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
                if emit is not None:
                    emit(("arrive", now, req.rid, req.model, -1))
                sample(now)
                return
            inst.queue.append(req)
            if inst.last_model is None:
                inst.last_model = req.model
            if emit is not None:
                emit(("arrive", now, req.rid, req.model, inst.idx))
            sample(now)
            start_step(inst, now)

        def on_fail(payload: tuple, now: float) -> None:
            inst: _Inst = payload[1]
            inst.down = True
            inst.down_since = now
            inst.failures += 1
            dispatcher.down_count += 1
            if emit is not None:
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
            if emit is not None:
                emit(("recover", now, inst.idx))
            assert injector is not None
            t_fail = injector.next_failure_ms(inst.idx, now)
            if t_fail is not None:
                push(t_fail, _P_FAULT, ("fail", inst))
            if pending:
                parked, pending[:] = list(pending), []
                for entry in parked:
                    route(entry, now)

        def handle(payload: tuple, now: float) -> None:
            kind = payload[0]
            if kind == "step":
                inst = payload[1]
                # A step aborted by a failure leaves a stale event.
                if payload[2] == inst.epoch:
                    finish_step(inst, now)
            elif kind == "fail":
                on_fail(payload, now)
            else:
                on_recover(payload, now)

        # Merged drain: an engine event pops ahead of the next arrival
        # only when strictly earlier, or at the same timestamp with the
        # step priority — the single engine priority below arrivals.
        # Fault events (2) at an arrival's timestamp sort after every
        # arrival at that time, exactly as in the heap.
        handle = self._profiled(handle)
        on_arrival = self._profiled(on_arrival, "arrival")
        clock = self.clock
        pop = queue.pop
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

        if summary:
            return replace(acc, **self._totals(acc.makespan_ms,
                                               sum(retries.values())))
        makespan = max((r.t_complete_ms for r in records), default=0.0)
        records.sort(key=lambda r: r.rid)
        return GenerationSimulationResult(
            records=records,
            n_instances=len(instances),
            slots=self.slots,
            makespan_ms=makespan,
            queue_samples=samples,
            trace=trace,
            scheduler=self.scheduler.name,
            **self._totals(makespan, sum(retries.values())),
        )

    def _totals(self, makespan: float, retries: int) -> dict:
        """Instance stats and fault totals, shared by both result forms."""
        from ..serving.generation import GenerationInstanceStats

        instances = self.instances
        availability: Optional[float] = None
        if self.failures is not None:
            horizon = max(makespan, self.clock.now_ms)
            availability = (
                1.0 - sum(i.downtime_ms for i in instances)
                / (len(instances) * horizon) if horizon > 0 else 1.0)
        return {
            "instances": [
                GenerationInstanceStats(
                    index=i.idx, requests=i.requests, steps=i.steps,
                    prefills=i.prefills, tokens=i.tokens, busy_ms=i.busy_ms,
                    switch_count=i.switch_count,
                    reprogram_time_ms=i.reprogram_time_ms,
                    preemptions=i.preemptions, failures=i.failures,
                    downtime_ms=i.downtime_ms,
                ) for i in instances
            ],
            "availability": availability,
            "total_failures": sum(i.failures for i in instances),
            "total_retries": retries,
            "total_preemptions": sum(i.preemptions for i in instances),
        }
