"""The event-driven simulation kernel every simulator runs on.

Before this module existed, :mod:`repro.serving.cluster` and
:mod:`repro.serving.generation` each hand-rolled their own heap loop,
so every new scenario (failures, heterogeneity, preemption) had to be
implemented twice and proven deterministic twice.  The kernel factors
the shared mechanics into one place:

* :class:`EventQueue` — a binary heap of ``(t_ms, priority, seq,
  payload)`` tuples.  Ties at equal timestamps break on ``(priority,
  insertion sequence)``, so a run is a *pure function* of its inputs —
  the property behind the trace-identity golden tests.  The engines
  merge their sorted arrival streams against the queue instead of
  pushing one event per arrival, so it only ever holds O(instances)
  engine events; at that size ``heapq``'s C push/pop costs less than
  any pure-Python bucketed queue.
* :class:`SimClock` — monotone simulated time in milliseconds.
* :class:`Simulation` — the driver: pops events in deterministic order
  and dispatches them to handlers registered per event kind.  Entities
  are plain mutable objects carried by reference inside payloads — no
  registry, no base class.

Determinism contract
--------------------
The kernel never reads wall-clock time or global RNG state.  All
randomness flows through :class:`~repro.sim.rng.RngStreams`, which
derives one independent ``random.Random`` per named component from the
root seed — adding a new consumer (e.g. failure injection) cannot
perturb the draws of an existing one.  Two runs with equal inputs
therefore produce byte-identical traces, records, and reports.

Observability hooks
-------------------
:meth:`Simulation.attach_observer` registers a read-only callable (for
example :class:`repro.obs.TraceRecorder` or
:class:`repro.obs.MetricsSampler`) that receives every trace tuple as
it is emitted; :meth:`Simulation.attach_profiler` registers a
:class:`repro.obs.KernelProfiler` that attributes wall time per event
kind.  Both are strictly optional: when nothing is attached the engines
run the exact pre-hook fast path, and because observers only *read*
event tuples, an instrumented run stays byte-identical to a bare one.
Hooks must be attached before the run starts — attaching mid-run would
make the observed stream a lie, so it raises ``RuntimeError``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from .rng import RngStreams

__all__ = ["Event", "EventQueue", "SimClock", "Simulation"]

#: One scheduled event: ``(t_ms, priority, seq, payload)``.  ``payload``
#: is a tuple whose first element names the event kind.
Event = Tuple[float, int, int, tuple]


class EventQueue:
    """Deterministic binary-heap event queue.

    Events at equal ``t_ms`` pop in ``(priority, seq)`` order; ``seq``
    comes from the shared insertion ``counter``, so two pushes at the
    same time and priority pop in push order.  That total order is what
    makes replays of a seeded scenario bit-identical.

    Hot-path contract: the :attr:`head` attribute always holds the
    next event tuple (``None`` when empty), so engines that merge an
    external sorted stream against the queue peek the frontier with
    one attribute load, and :meth:`pop` returns exactly ``head``.
    ``counter`` is the shared insertion sequence: the tuple layout
    ``(t, prio, next(queue.counter), payload)`` and that counter ARE
    the kernel's determinism guarantee.
    """

    __slots__ = ("heap", "counter", "head")

    def __init__(self) -> None:
        self.heap: List[Event] = []
        self.counter = count()
        #: The next event to pop (``None`` when empty).
        self.head: Optional[Event] = None

    def push(self, t_ms: float, priority: int, payload: tuple) -> None:
        """Schedule ``payload`` at ``t_ms`` (stable within a priority)."""
        heap = self.heap
        heappush(heap, (t_ms, priority, next(self.counter), payload))
        self.head = heap[0]

    def pop(self) -> Event:
        """Remove and return the next event in deterministic order."""
        heap = self.heap
        event = heappop(heap)
        self.head = heap[0] if heap else None
        return event

    def peek_ms(self) -> Optional[float]:
        """Timestamp of the next event (``None`` when empty)."""
        head = self.head
        return head[0] if head is not None else None

    def __len__(self) -> int:
        return len(self.heap)

    def __bool__(self) -> bool:
        return bool(self.heap)


class SimClock:
    """Monotone simulated time in milliseconds."""

    __slots__ = ("now_ms",)

    def __init__(self) -> None:
        self.now_ms = 0.0

    def advance(self, t_ms: float) -> float:
        """Move time forward (the kernel never rewinds the clock)."""
        if t_ms < self.now_ms:
            raise ValueError(
                f"clock cannot rewind: {t_ms} < {self.now_ms}")
        self.now_ms = t_ms
        return t_ms


class Simulation:
    """Deterministic event loop over a kernel event queue.

    Subclasses register one handler per event kind (the first element
    of every payload tuple) and call :meth:`run_events`.  The loop is
    deliberately minimal — pop, advance the clock, dispatch — because
    the hot simulators bind their own bookkeeping around it; what they
    share is the queue discipline, the clock, the trace buffer, and the
    per-component RNG streams.
    """

    def __init__(self, seed: int = 0) -> None:
        self.queue = EventQueue()
        self.clock = SimClock()
        self.rng = RngStreams(seed)
        #: Flat event log ``(kind, t_ms, ...)`` — the replayable trace.
        self.trace: List[tuple] = []
        self._handlers: Dict[str, Callable[[tuple, float], None]] = {}
        #: Optional read-only consumer of every emitted trace tuple.
        self.observer: Optional[Callable[[tuple], None]] = None
        #: Optional per-event-kind wall-time profiler.
        self.profiler = None
        self._started = False

    def on(self, kind: str,
           handler: Callable[[tuple, float], None]) -> None:
        """Register ``handler`` for payloads whose head is ``kind``."""
        self._handlers[kind] = handler

    def attach_observer(self, observer: Callable[[tuple], None]) -> None:
        """Attach a trace-tuple consumer (before the run starts).

        The observer is called with every tuple the engine emits — the
        ones appended to :attr:`trace` plus observer-only bookkeeping
        events such as ``("requeue", ...)`` — and, if it defines a
        ``finish(t_ms)`` method, that is called once the run drains.
        Attaching after the run has started raises ``RuntimeError``:
        the stream would be missing its prefix.
        """
        if self._started:
            raise RuntimeError(
                "cannot attach an observer mid-run: the event stream "
                "already started; attach before run()")
        self.observer = (observer if self.observer is None
                         else _compose2(self.observer, observer))

    def attach_profiler(self, profiler) -> None:
        """Attach a kernel hotspot profiler (before the run starts).

        ``profiler.record(kind, elapsed_s)`` is called for every
        dispatched event with the handler's wall time.  Mid-run
        attachment raises ``RuntimeError`` like observers do.
        """
        if self._started:
            raise RuntimeError(
                "cannot attach a profiler mid-run: events were already "
                "dispatched unprofiled; attach before run()")
        self.profiler = profiler

    def _finish_observer(self) -> None:
        """Flush an attached observer once simulated time stops."""
        if self.observer is not None:
            fin = getattr(self.observer, "finish", None)
            if fin is not None:
                fin(self.clock.now_ms)

    def schedule(self, t_ms: float, priority: int, payload: tuple) -> None:
        self.queue.push(t_ms, priority, payload)

    def _profiled(self, handler: Callable[[object, float], None],
                  kind: Optional[str] = None
                  ) -> Callable[[object, float], None]:
        """``handler`` timed into the attached profiler, if any.

        Without a profiler the handler comes back unchanged, so a bare
        run binds exactly the handler it would call anyway.  With one,
        every call's wall time is recorded under ``kind`` — or, when
        ``kind`` is None, under the kind of the payload handled.
        """
        if self.profiler is None:
            return handler
        record = self.profiler.record

        def timed(item, now: float) -> None:
            t0 = perf_counter()
            handler(item, now)
            record(item[0] if kind is None else kind, perf_counter() - t0)
        return timed

    def run_events(self) -> None:
        """Drain the queue, dispatching each event to its handler."""
        self._started = True
        queue = self.queue
        pop = queue.pop
        clock = self.clock
        handlers = {kind: self._profiled(handler, kind)
                    for kind, handler in self._handlers.items()}
        while queue:
            now, _prio, _seq, payload = pop()
            clock.now_ms = now  # monotone by pop order; skip the check
            handlers[payload[0]](payload, now)
        self._finish_observer()


def _compose2(first: Callable[[tuple], None],
              second: Callable[[tuple], None]) -> Callable[[tuple], None]:
    """Chain two observers (kept local to avoid importing repro.obs)."""
    def both(event: tuple) -> None:
        first(event)
        second(event)

    def finish(t_ms: float) -> None:
        for part in (first, second):
            fin = getattr(part, "finish", None)
            if fin is not None:
                fin(t_ms)

    both.finish = finish
    return both
