"""Unit tests for the kernel primitives: queue, clock, RNG streams."""

import random

import pytest

from repro.sim import EventQueue, RngStreams, SimClock, Simulation


class TestEventQueue:
    def test_orders_by_time_then_priority_then_insertion(self):
        q = EventQueue()
        q.push(2.0, 0, ("late",))
        q.push(1.0, 1, ("low-prio",))
        q.push(1.0, 0, ("first",))
        q.push(1.0, 0, ("second",))
        kinds = [q.pop()[3][0] for _ in range(len(q))]
        assert kinds == ["first", "second", "low-prio", "late"]

    def test_insertion_counter_is_shared_with_direct_heap_pushes(self):
        """The hot-path contract: heappush with next(counter) and
        push() interleave into one deterministic order."""
        import heapq

        q = EventQueue()
        q.push(1.0, 0, ("a",))
        heapq.heappush(q.heap, (1.0, 0, next(q.counter), ("b",)))
        q.push(1.0, 0, ("c",))
        kinds = [q.pop()[3][0] for _ in range(3)]
        assert kinds == ["a", "b", "c"]

    def test_peek_and_len(self):
        q = EventQueue()
        assert q.peek_ms() is None and not q
        q.push(3.5, 1, ("x",))
        assert q.peek_ms() == 3.5 and len(q) == 1 and bool(q)

    def test_head_tracks_min_and_pop_returns_head(self):
        q = EventQueue()
        assert q.head is None
        q.push(2.0, 0, ("b",))
        q.push(1.0, 0, ("a",))
        head = q.head
        assert head[0] == 1.0
        assert q.pop() is head
        assert q.head[0] == 2.0

    def test_drain_then_refill(self):
        q = EventQueue()
        q.push(3.0, 0, ("first",))
        assert q.pop()[3][0] == "first"
        assert q.head is None and q.peek_ms() is None
        q.push(1e6, 0, ("second",))
        assert q.peek_ms() == 1e6
        assert q.pop()[3][0] == "second"

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            EventQueue().pop()


class TestSimClock:
    def test_advances_monotonically(self):
        clock = SimClock()
        assert clock.now_ms == 0.0
        clock.advance(4.0)
        assert clock.now_ms == 4.0
        with pytest.raises(ValueError, match="rewind"):
            clock.advance(3.0)


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(7).stream("failure/0")
        b = RngStreams(7).stream("failure/0")
        assert [a.random() for _ in range(8)] == \
               [b.random() for _ in range(8)]

    def test_streams_are_independent(self):
        """Consuming one stream never perturbs another."""
        plain = RngStreams(7)
        noisy = RngStreams(7)
        _ = [noisy.stream("failure/1").random() for _ in range(100)]
        assert plain.stream("failure/0").random() == \
               noisy.stream("failure/0").random()

    def test_different_seeds_and_names_diverge(self):
        assert RngStreams(1).stream("a").random() != \
               RngStreams(2).stream("a").random()
        s = RngStreams(1)
        assert s.stream("a").random() != s.stream("b").random()

    def test_stream_is_cached_not_reset(self):
        s = RngStreams(0)
        first = s.stream("x").random()
        assert s.stream("x").random() != first  # continues, not restarts

    def test_platform_stable_derivation(self):
        """String seeding goes through SHA-512: pin one draw so a
        platform/Python change that broke stability is caught."""
        assert RngStreams(0).stream("probe").random() == \
               random.Random("0/probe").random()


class TestSimulation:
    def test_handler_dispatch_in_deterministic_order(self):
        sim = Simulation(seed=3)
        seen = []
        sim.on("tick", lambda payload, now: seen.append(("tick", now)))
        sim.on("tock", lambda payload, now: seen.append(("tock", now)))
        sim.schedule(2.0, 1, ("tock",))
        sim.schedule(1.0, 1, ("tick",))
        sim.schedule(2.0, 0, ("tick",))
        sim.run_events()
        assert seen == [("tick", 1.0), ("tick", 2.0), ("tock", 2.0)]
        assert sim.clock.now_ms == 2.0

    def test_handlers_may_schedule_followups(self):
        sim = Simulation()
        seen = []

        def chain(payload, now):
            seen.append(now)
            if now < 3.0:
                sim.schedule(now + 1.0, 0, ("chain",))

        sim.on("chain", chain)
        sim.schedule(1.0, 0, ("chain",))
        sim.run_events()
        assert seen == [1.0, 2.0, 3.0]
