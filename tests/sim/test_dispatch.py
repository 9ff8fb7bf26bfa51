"""The serve engine's inlined least-loaded scan vs the reference policy.

``_ServeDispatcher._pick_fast`` returns at the first idle instance with
an empty queue.  That early return must never change the pick: the
property below generates instance states full of backlog ties, empty
queues, and ``busy_until`` values exactly at ``now``, within ``_EPS`` of
it, and past it, and requires the same instance that
``serving/scheduler.py::_least_loaded`` (min backlog, then min index)
would choose.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving.scheduler import LeastLoaded, _least_loaded
from repro.sim import InstanceSpec
from repro.sim.serve import _EPS, _Inst, _ServeDispatcher

NOW = 100.0

#: ``busy_until`` offsets from ``NOW``: idle long ago, exactly now,
#: inside the ``_EPS`` tolerance (still idle), at the tolerance edge,
#: just past it, and well past it (busy).
_BUSY_OFFSETS = (-5.0, 0.0, _EPS / 2, _EPS, 2 * _EPS, 3.0)

_states = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3),
              st.sampled_from(_BUSY_OFFSETS)),
    min_size=1, max_size=10)


def _fleet(states):
    instances = []
    for idx, (queued, offset) in enumerate(states):
        inst = _Inst(idx, InstanceSpec(), 0.0, cost=None)
        inst.queue.extend(object() for _ in range(queued))
        inst.busy_until = NOW + offset
        instances.append(inst)
    return instances


@settings(max_examples=300, deadline=None)
@given(_states)
def test_least_loaded_early_return_matches_reference(states):
    instances = _fleet(states)
    dispatcher = _ServeDispatcher(LeastLoaded(), instances)
    picked = dispatcher._pick_fast(instances, None, NOW)
    assert picked is _least_loaded(instances, NOW)


def test_first_idle_empty_instance_wins():
    """Two idle, empty instances: the lower index is picked."""
    instances = _fleet([(1, 3.0), (0, 0.0), (0, -5.0)])
    dispatcher = _ServeDispatcher(LeastLoaded(), instances)
    assert dispatcher._pick_fast(instances, None, NOW) is instances[1]
