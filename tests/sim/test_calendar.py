"""Pop-order tests for the simulation's event calendar (``EventQueue``).

The six trace-identity goldens pin engine output byte-for-byte, so the
queue's pop order is part of the determinism contract: events pop by
``(t_ms, priority, insertion sequence)``.  The property tests here
drive randomized push/pop streams through the queue and compare every
pop, and the ``head`` frontier, with a plain reference model, covering:

* equal timestamps with equal priorities (must pop in push order);
* priority breaking timestamp ties;
* interleaved push/pop, including draining to empty and refilling;
* near, same-tick and far-future timestamps in one stream.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import EventQueue


def _check_against_model(ops):
    """Feed a push/pop op stream to the queue; after every op, compare
    the pops, ``head`` and length with a reference list of pending
    ``(t_ms, priority, seq)`` keys."""
    q = EventQueue()
    pending = []
    seq = 0
    for op in ops:
        if op[0] == "push":
            _, t, prio = op
            q.push(t, prio, ("ev", seq))
            pending.append((t, prio, seq))
            seq += 1
        elif pending:
            expected = min(pending)
            pending.remove(expected)
            assert q.head[:3] == expected
            assert q.pop()[:3] == expected
        assert len(q) == len(pending)
        assert q.head == (min(q.heap) if pending else None)
    while pending:
        expected = min(pending)
        pending.remove(expected)
        assert q.pop()[:3] == expected
    assert len(q) == 0 and not q and q.head is None


# Timestamps from a small grid force same-t collisions; priorities from
# {0..3} mirror the engines' priority bands.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 7.5, 8.0,
                                   15.5, 16.0, 64.0, 1000.0, 1e6]),
                  st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("pop")),
    ),
    max_size=200,
)


class TestPopOrderIdentity:
    @given(ops=_ops)
    @settings(max_examples=200, deadline=None)
    def test_property_identity(self, ops):
        _check_against_model(ops)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_streams(self, seed):
        rng = random.Random(seed)
        ops = []
        for _ in range(300):
            if rng.random() < 0.6:
                # Mix near-future, same-tick and far-future timestamps.
                t = rng.choice([
                    rng.randrange(8) * 1.0,
                    rng.randrange(32) * 0.5,
                    rng.randrange(100) * 37.0,
                ])
                ops.append(("push", t, rng.randrange(4)))
            else:
                ops.append(("pop",))
        _check_against_model(ops)

    def test_same_timestamp_same_priority_pops_in_push_order(self):
        q = EventQueue()
        for tag in ("a", "b", "c"):
            q.push(5.0, 1, ("ev", tag))
        assert [q.pop()[3][1] for _ in range(3)] == ["a", "b", "c"]

    def test_priority_breaks_timestamp_ties(self):
        q = EventQueue()
        q.push(5.0, 2, ("low",))
        q.push(5.0, 0, ("high",))
        q.push(5.0, 1, ("mid",))
        assert [q.pop()[3][0] for _ in range(3)] == [
            "high", "mid", "low"]


class TestQueueSurface:
    def test_len_and_bool(self):
        q = EventQueue()
        assert len(q) == 0 and not q
        q.push(1.0, 0, ("a",))
        q.push(2.0, 0, ("b",))
        assert len(q) == 2 and bool(q)
        q.pop()
        q.pop()
        assert len(q) == 0 and not q

    def test_counter_is_shared_sequence(self):
        # Engines build tuples with next(queue.counter) themselves; the
        # attribute must exist and be the tie-break sequence.
        q = EventQueue()
        assert next(q.counter) == 0
        q.push(1.0, 0, ("a",))
        assert q.pop()[2] == 1
