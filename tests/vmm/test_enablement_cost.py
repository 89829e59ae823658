"""Enablement cost of the VMM models on the engines.

The scheduling function looks at every VCPU slot, PCPU record and
``Last_Scheduled_In``/``VCPU*_PCPU`` place on every tick.  Those looks
must not count as writes: a write re-stales every gate watching the
cell, and a tick that re-stales every VCPU gate costs the compiled
engine its advantage on the schedulers whose ticks cannot be
fast-forwarded (``rcs``, ``sedf``).  These tests pin the write sets and
the resulting gate-evaluation cost.
"""

import random

import pytest

from repro.core import build_system, simulate_once
from repro.core.framework import Simulation
from repro.des import StreamFactory
from repro.observability import SimTracer
from repro.observability import trace as _trace
from repro.paper import FIG8_PCPU_RANGE, PAPER_SCHEDULERS, figure8_sweep
from repro.san import SANSimulator, places
from repro.schedulers import FunctionScheduler, RoundRobinScheduler
from repro.vmm import build_vcpu_scheduler

from ..conftest import make_spec

#: Cells a tick's scheduling function may write without deciding
#: anything: its arming token and the running VCPUs' timeslices.
_VIEW_CELL_MARKERS = ("_slot", "Last_Scheduled_In", "_PCPU", "PCPUs")


def _is_view_cell(name):
    return any(marker in name for marker in _VIEW_CELL_MARKERS)


def _decides_nothing(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
    return True


def test_idle_scheduling_func_writes_no_view_cell():
    # RRS places two of three VCPUs at t=1; then an algorithm that
    # decides nothing runs one more Scheduling_Func firing.
    model = build_vcpu_scheduler(RoundRobinScheduler(), 2, [1, 1, 1])
    SANSimulator(model, StreamFactory(0)).run(until=1.5)
    assert model.place("VCPU1_PCPU").value == 0
    model.algorithm = FunctionScheduler("idle", _decides_nothing)
    model.place("Sched_tick").add()
    (activity,) = [a for a in model.activities() if a.name == "Scheduling_Func"]
    written = set()
    with places.capturing_writes(written):
        activity.complete(random.Random(0))
    names = {
        name for name, place in model.places().items() if place._cell in written
    }
    assert names == {"Sched_tick", "VCPU1_Timeslice", "VCPU2_Timeslice"}


@pytest.mark.parametrize("scheduler", PAPER_SCHEDULERS)
def test_scheduling_func_writes_view_cells_only_when_deciding(scheduler):
    # Over a whole traced Fig-8 run: a Scheduling_Func firing that emits
    # no sched.in/sched.out writes none of the cells it only looks at.
    # The degradation stack is on, so the health-aware tick fan-out
    # (which peeks at VCPU*_PCPU) is covered too.
    spec = make_spec([2, 1, 1], pcpus=2, scheduler=scheduler, sim_time=300,
                     warmup=30)
    spec = spec.with_overrides(
        degradation={"p": 0.3, "h_max": 3, "mtbe": 60.0}, hv_overhead={"cost": 1}
    )
    tracer = SimTracer()
    simulate_once(spec, root_seed=5, engine="rescan", tracer=tracer)
    decided = False
    idle_firings = 0
    for record in tracer.records:
        if record.kind in (_trace.SCHED_IN, _trace.SCHED_OUT):
            decided = True
        elif record.kind == _trace.ACTIVITY_FIRE:
            name = record.data["activity"]
            if name.endswith("Scheduling_Func") and not decided:
                idle_firings += 1
                assert not [w for w in record.data["writes"] if _is_view_cell(w)]
            if name.endswith(".Clock"):
                assert not [w for w in record.data["writes"] if w.endswith("_PCPU")]
            decided = False
    assert idle_firings > 0


@pytest.mark.parametrize("pcpus", FIG8_PCPU_RANGE)
def test_fig8_rcs_compiled_gate_evaluations_per_completion(pcpus):
    # rcs never certifies a fast-forward span, so every tick runs; with
    # the VMM gates in IR form and non-dirtying looks, a completion costs
    # about 4.7 gate evaluations (it cost 7.5 when every tick re-staled
    # every VCPU gate).
    base, _ = figure8_sweep(sim_time=1000, warmup=100)
    spec = base.with_overrides(scheduler="rcs", pcpus=pcpus)
    sim = Simulation(spec, root_seed=1, engine="compiled")
    sim.run()
    stats = sim.stats()
    assert stats["ticks_fast_forwarded"] == 0
    assert stats["gate_evaluations"] <= 5 * stats["completions"]


def test_plain_fig8_stack_has_no_closure_gate():
    # Every input gate of the plain Fig-8 model carries an IR form, so
    # no refresh goes through the closure/read-sink path.
    base, _ = figure8_sweep()
    system = build_system(base)
    closures = [
        f"{activity.qualified_name}:{gate.name}"
        for activity in system.activities()
        for gate in activity.input_gates
        if gate.expr is None
    ]
    assert closures == []
