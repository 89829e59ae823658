"""Exactness of the per-algorithm fast-forward horizons.

For every algorithm that answers ``tick_skip_horizon`` with more than
its one-line flag, two things must hold from any reachable state:

* the ``h`` calls the horizon grants make no decision, and the next
  call decides unless ``h`` hit the countdown bound (the horizon is
  exact, not merely safe);
* ``skip_ticks(h)`` leaves the algorithm — and the trace — ``==`` to
  ``h`` stepped calls.

States come from :class:`~repro.schedulers.harness.SchedulerHarness`
runs with random loads, so READY holders (idle VCPUs on a PCPU) and
rcs catch-up episodes both occur.
"""

import copy
import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.observability import SimTracer, tracing
from repro.observability import trace as _trace
from repro.schedulers import (
    BalanceScheduler,
    CreditScheduler,
    FifoScheduler,
    HealthAwareScheduler,
    HybridScheduler,
    RelaxedCoScheduler,
    RoundRobinScheduler,
    StrictCoScheduler,
)
from repro.schedulers.harness import SchedulerHarness


def _decided(harness):
    return any(v.schedule_in or v.schedule_out for v in harness.views)


def _warm(harness, rng, ticks, idle_share):
    """Run ``ticks`` ticks, re-drawing finished loads (0 = stay READY)."""
    for _ in range(ticks):
        for view in harness.views:
            if harness.load_of(view.vcpu_id) == 0 and rng.random() >= idle_share:
                harness.set_load(view.vcpu_id, rng.randint(1, 40))
        harness.tick()


def _algorithm_state(algorithm):
    state = dict(vars(algorithm))
    if "inner" in state:  # a wrapper: compare the wrapped state too
        state["inner"] = _algorithm_state(state["inner"])
    return state


def _state(harness):
    views = [
        (v.vcpu_id, v.status, v.remaining_load, v.timeslice, v.pcpu,
         v.last_scheduled_in, v.schedule_in, v.schedule_out)
        for v in harness.views
    ]
    return (
        harness.now, views, dict(harness.active_time), dict(harness.busy_time),
        dict(harness.pcpu_busy_time), _algorithm_state(harness.algorithm),
    )


def _records(tracer):
    return [(r.kind, r.t, r.data) for r in tracer.records]


def _check_exact(harness):
    limit = harness.skip_bound()
    horizon = harness.skip_horizon()
    assert 0 < horizon <= limit
    stepped = copy.deepcopy(harness)
    skipped = copy.deepcopy(harness)
    stepped_trace, skipped_trace = SimTracer(), SimTracer()
    with tracing(stepped_trace):
        for _ in range(horizon):
            stepped.tick()
            assert not _decided(stepped)
    if horizon < limit:
        probe = copy.deepcopy(stepped)
        with tracing(SimTracer()):
            probe.tick()
        assert _decided(probe), "horizon stopped short of a deciding call"
    with tracing(skipped_trace):
        skipped.skip(horizon)
    assert _state(skipped) == _state(stepped)
    assert _records(skipped_trace) == _records(stepped_trace)
    return horizon


topologies = st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4)


@settings(max_examples=150, deadline=None)
@given(
    topology=topologies,
    pcpus=st.integers(min_value=1, max_value=4),
    skew=st.integers(min_value=1, max_value=12),
    relax_gap=st.integers(min_value=1, max_value=12),
    timeslice=st.integers(min_value=2, max_value=30),
    warm=st.integers(min_value=1, max_value=80),
    idle_share=st.sampled_from([0.0, 0.3, 0.8]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_rcs_horizon_is_exact(topology, pcpus, skew, relax_gap, timeslice,
                              warm, idle_share, seed):
    relax = max(skew - relax_gap, 0)
    algorithm = RelaxedCoScheduler(
        timeslice=timeslice, skew_threshold=skew, relax_threshold=relax
    )
    harness = SchedulerHarness(algorithm, topology, pcpus)
    _warm(harness, random.Random(seed), warm, idle_share)
    assume(harness.skip_horizon() > 0)
    _check_exact(harness)


@settings(max_examples=150, deadline=None)
@given(
    algorithm=st.sampled_from(
        ["rrs", "scs", "credit", "hybrid", "balance", "health_aware_rcs"]
    ),
    topology=topologies,
    pcpus=st.integers(min_value=1, max_value=4),
    warm=st.integers(min_value=1, max_value=80),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_horizon_exact_with_idle_holders(algorithm, topology, pcpus, warm, seed):
    factories = {
        "rrs": lambda: RoundRobinScheduler(timeslice=12),
        "scs": lambda: StrictCoScheduler(timeslice=12),
        "credit": lambda: CreditScheduler(timeslice=12, weights={0: 2.0}),
        "hybrid": lambda: HybridScheduler(timeslice=12, concurrent_vms=[0]),
        "balance": lambda: BalanceScheduler(timeslice=12),
        "health_aware_rcs": lambda: HealthAwareScheduler(
            inner=RelaxedCoScheduler(timeslice=12, skew_threshold=4,
                                     relax_threshold=2)
        ),
    }
    harness = SchedulerHarness(factories[algorithm](), topology, pcpus)
    _warm(harness, random.Random(seed), warm, idle_share=0.5)
    assume(harness.skip_horizon() > 0)
    _check_exact(harness)


def test_rcs_horizon_reaches_a_catch_up_co_stop():
    # One PCPU, one 2-VCPU VM: the running sibling pulls ahead until its
    # lead trips catch-up and it is co-stopped — the horizon must stop
    # exactly there, not at the (longer) timeslice bound.
    algorithm = RelaxedCoScheduler(timeslice=30, skew_threshold=4,
                                   relax_threshold=2)
    harness = SchedulerHarness(algorithm, [2], 1)
    harness.saturate()
    harness.tick()
    limit = harness.skip_bound()
    horizon = _check_exact(harness)
    assert 2 <= horizon < limit


def test_rcs_first_skipped_call_credits_the_previous_holders():
    # The VCPU stopped by the last call still earns the first skipped
    # tick's progress (progress lags holding by one call).
    algorithm = RelaxedCoScheduler(timeslice=30, skew_threshold=4,
                                   relax_threshold=2)
    harness = SchedulerHarness(algorithm, [2, 1], 1)
    harness.saturate()
    for _ in range(40):
        harness.tick()
        stopped = [v.vcpu_id for v in harness.views if v.schedule_out]
        if stopped and harness.skip_horizon() > 0:
            break
    assert stopped
    before = dict(algorithm._progress)
    harness.skip(1)
    for vcpu_id in stopped:
        assert algorithm._progress[vcpu_id] == before.get(vcpu_id, 0.0) + 1.0


def test_rcs_refuses_unqueued_inactive_vcpus_and_clock_gaps():
    algorithm = RelaxedCoScheduler()
    harness = SchedulerHarness(algorithm, [2, 1], 1)
    harness.saturate()
    harness.tick()
    args = harness._skip_args()
    assert algorithm.tick_skip_horizon(*args, 5) > 0
    running, idle, vm_of, now = args
    assert algorithm.tick_skip_horizon(running, idle, vm_of, now + 1.0, 5) == 0
    algorithm._queued.clear()
    assert algorithm.tick_skip_horizon(*args, 5) == 0


def test_rcs_skip_ticks_emits_the_skipped_skew_records():
    algorithm = RelaxedCoScheduler()
    harness = SchedulerHarness(algorithm, [2, 2], 2)
    harness.saturate()
    harness.tick()
    horizon = harness.skip_horizon()
    assert horizon > 2
    tracer = SimTracer()
    with tracing(tracer):
        harness.skip(horizon)
    skews = [r for r in tracer.records if r.kind == _trace.SCHED_SKEW]
    assert [r.t for r in skews] == sorted(r.t for r in skews)
    assert len(skews) == 2 * horizon


def test_fifo_refuses_idle_holders():
    # FIFO releases a READY holder on its next call, so the default
    # hook's "no idle holder" clause must keep it off fast-forward.
    algorithm = FifoScheduler()
    assert algorithm.tick_skip_horizon([0], [], [0, 1], 2.0, 9) == 9
    assert algorithm.tick_skip_horizon([0], [1], [0, 1], 2.0, 9) == 0
