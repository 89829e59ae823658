"""The Virtual CPU Scheduler sub-model (paper Figure 6).

The hypervisor side of the framework.  Its components, following
§III.B.5:

* **Clock** — a timed activity with a deterministic unit delay; it
  "fires at every time unit to regulate the operation of the
  scheduling function ... and computes the remaining timeslice of each
  ACTIVE VCPU".  Its output gate fans a tick token out to every
  plugged VCPU sub-model (driving their ``Processing_load``) and arms
  the ``Scheduling_Func`` activity.
* **VCPU places** — one per possible VCPU (statically 16 in the paper;
  ``num_slots`` here, defaulting to 16).  Each plugged slot carries
  the paper's fields as places: ``Schedule_In`` / ``Schedule_Out``
  (token channels joined to the VCPU model), ``Last_Scheduled_In``,
  and ``Timeslice``, plus the slot's assigned-PCPU record.  Unplugged
  slots exist but are never enabled.
* **Num_PCPUs** and the **PCPUs array** — resource configuration and
  per-PCPU ``IDLE`` / ``ASSIGNED`` state.
* **Scheduling_Func** — the output gate that builds the
  ``VCPU_host_external`` / ``PCPU_external`` view arrays, calls the
  plugged :class:`~repro.schedulers.interface.SchedulingAlgorithm`
  (the paper's user C function), validates its decisions, and applies
  them: freeing/assigning PCPUs, granting timeslices, stamping
  ``Last_Scheduled_In``, and depositing Schedule_In / Schedule_Out
  tokens for the VCPU models.

Timeslice accounting happens *before* the algorithm call, as in the
paper: an ACTIVE VCPU's timeslice decreases at each Clock firing and
the VCPU "must relinquish the PCPU" when it reaches zero — the
algorithm then sees the freed PCPUs.

**Dependability extension.**  Passing a :class:`PCPUFailureModel`
attaches an exponential fail/repair process to every PCPU (the classic
SAN dependability pattern — this framework's formalism was built for
exactly such models).  A failing ASSIGNED PCPU forcibly deschedules
its VCPU; a FAILED PCPU is never assignable; repair returns it to
IDLE.  Schedulers need no changes: they only ever dispatch onto IDLE
PCPUs.

**Degradation extension.**  Passing a
:class:`~repro.resilience.degradation.DegradationModel` replaces the
binary fail/repair process with a multi-state Markov health chain per
PCPU.  A core at health ``h`` withholds clock ticks from its hosted
VCPU so that only a ``capacity[h]`` fraction reach the guest (leaky
bucket: the withheld fraction accumulates and one whole tick is
dropped each time it reaches 1).  Terminal health feeds the same
``pcpu.fail``/``pcpu.repair`` trace machinery as the binary model.  A
:class:`~repro.resilience.degradation.MaintenancePolicy` adds repair:
PCPUs compete for a token-bounded crew pool, and a PCPU under
maintenance is out of service until its repair restores pristine
health.  An :class:`~repro.resilience.degradation.HVOverheadModel`
charges every world switch: the first ``cost`` ticks after a
schedule-in are consumed by the hypervisor instead of the guest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..des.distributions import Deterministic, Exponential
from ..des.random_streams import StreamFactory
from ..errors import ConfigurationError, ModelError, SchedulingError
from ..observability import profile as _profile
from ..observability import trace as _trace
from ..resilience.degradation import (
    DegradationModel,
    HVOverheadModel,
    MaintenancePolicy,
)
from ..san import (
    ExtendedPlace,
    InputGate,
    InstantaneousActivity,
    OutputGate,
    Place,
    SANModel,
    TimedActivity,
)
from ..san import exprs as E
from ..schedulers.interface import (
    PCPUState,
    PCPUView,
    SchedulingAlgorithm,
    VCPUHostView,
    VCPUStatus,
)
from .states import PRIORITY_MAINT, PRIORITY_SCHEDULER, new_pcpu_entry, new_slot

DEFAULT_NUM_SLOTS = 16  # the paper's Figure 6 statically defines sixteen

SCHEDULER_NAME = "VCPU_Scheduler"


@dataclass
class PCPUFailureModel:
    """Exponential fail/repair process per PCPU.

    Attributes:
        mtbf: mean time between failures (ticks; rate = 1/mtbf).
        mttr: mean time to repair (ticks; rate = 1/mttr).

    Steady-state availability of one PCPU is ``mtbf / (mtbf + mttr)``.
    """

    mtbf: float
    mttr: float

    def __post_init__(self) -> None:
        if self.mtbf <= 0 or self.mttr <= 0:
            raise ConfigurationError(
                f"mtbf and mttr must be > 0, got mtbf={self.mtbf}, mttr={self.mttr}"
            )

    def availability(self) -> float:
        """Analytic per-PCPU operational fraction."""
        return self.mtbf / (self.mtbf + self.mttr)


class ClockFastForward:
    """Certificate + closed form for coalescing idle Clock ticks.

    Published on the scheduler model as ``tick_fast_forward`` and
    consumed by :class:`repro.san.compiled.CompiledSANSimulator`.  The
    engine asks :meth:`max_skip` how many consecutive ticks from the
    current (quiescent) marking are *pure countdown* — every firing in
    the span is the fixed set {Clock, one tick consumer per plugged
    slot, Scheduling_Func}, every one of them merely decrements
    timeslices/remaining loads, and the plugged algorithm provably
    decides nothing.  That holds exactly when:

    * every PCPU is ASSIGNED (no idle PCPU an algorithm could fill, no
      FAILED PCPU mid-repair);
    * every assigned slot is BUSY or READY outside its critical
      section, and no non-assigned slot is BUSY.  Each slot's tick
      consumer is then fixed for the whole span: ``Processing_load``
      for BUSY holders, ``Discard_tick`` for READY holders and for
      slots without a PCPU.  A READY holder stays READY: it idles at
      its VM's barrier, which cannot release while a sibling still has
      load, and job arrivals are timed events that bound the span;
    * no timeslice expires and no load completes strictly inside the
      span — a BUSY holder bounds it by ``min(load, timeslice) - 1``,
      a READY holder by ``timeslice - 1``;
    * no degradation-layer state can change delivery inside the span:
      every PCPU is at pristine health with no maintenance pending and
      no hypervisor-overhead debt outstanding.  A degraded core
      withholds ticks data-dependently (the leaky-bucket accumulator),
      so any nonzero health disables coalescing outright; *pending*
      degradation/maintenance timed events need no check here — the
      engine already bounds spans by the earliest other pending event;
    * the plugged algorithm (resolved through ``model.algorithm``, so
      a swapped-in guard or chaos wrapper is the one asked) grants the
      span: :meth:`SchedulingAlgorithm.tick_skip_horizon
      <repro.schedulers.interface.SchedulingAlgorithm.tick_skip_horizon>`
      receives the BUSY holders as ``running`` and the READY holders
      as ``idle`` and answers how many of the calls it provably decides
      nothing in.

    Under those conditions every per-tick firing has a single case (no
    RNG draw) and the span's net marking change is arithmetic:
    :meth:`apply` performs it through the ordinary place APIs so the
    engine's dirty tracking sees every write, then lets the algorithm
    commit its own state change (``skip_ticks``).

    :attr:`declines` counts each refusal by its first failing
    condition — ``pcpu_not_assigned``, ``health`` (degraded core,
    pending maintenance or hypervisor debt), ``critical``,
    ``not_busy`` (a holder neither BUSY nor READY, or a BUSY slot with
    no PCPU), ``bound`` (a timeslice or load ends within two ticks) and
    ``algorithm`` (the horizon was under two ticks).
    """

    DECLINE_REASONS = (
        "algorithm",
        "pcpu_not_assigned",
        "health",
        "critical",
        "not_busy",
        "bound",
    )

    __slots__ = (
        "_model",
        "_pcpus",
        "_timestamp",
        "_slot_values",
        "_timeslices",
        "_pcpu_refs",
        "_health",
        "_hv_debts",
        "_total",
        "_vm_of",
        "_running",
        "_idle",
        "_now",
        "clock",
        "declines",
        "per_tick_completions",
    )

    def __init__(
        self,
        model: SANModel,
        clock: TimedActivity,
        timestamp: Place,
        pcpus: ExtendedPlace,
        slot_value_places: Sequence[ExtendedPlace],
        timeslice_places: Sequence[Place],
        pcpu_places: Sequence[ExtendedPlace],
        vm_of: Sequence[int],
        health: Optional[ExtendedPlace] = None,
        hv_debts: Optional[ExtendedPlace] = None,
    ) -> None:
        total_vcpus = len(vm_of)
        self._model = model
        #: The Clock activity *object* — the engine matches the queue
        #: head by identity, which survives Join re-qualification.
        self.clock = clock
        self._timestamp = timestamp
        self._pcpus = pcpus
        self._slot_values = list(slot_value_places[:total_vcpus])
        self._timeslices = list(timeslice_places[:total_vcpus])
        self._pcpu_refs = list(pcpu_places[:total_vcpus])
        self._health = health
        self._hv_debts = hv_debts
        self._total = total_vcpus
        #: VM id per plugged slot, the algorithm hook's ``vm_of``.
        self._vm_of = tuple(vm_of)
        #: Completions per coalesced tick: Clock + Scheduling_Func +
        #: exactly one tick consumer per plugged slot.
        self.per_tick_completions = total_vcpus + 2
        self._running: List[int] = []
        self._idle: List[int] = []
        self._now = 0.0
        self.reset()

    def reset(self) -> None:
        """Zero the decline counters (a fresh replication)."""
        self.declines: Dict[str, int] = dict.fromkeys(self.DECLINE_REASONS, 0)

    def _decline(self, reason: str) -> int:
        self.declines[reason] += 1
        return 0

    def max_skip(self, limit: int) -> int:
        """Ticks certifiably skippable from the current marking (0 = none).

        ``limit`` caps the answer (the engine passes the span its own
        bounds allow, so the algorithm replays no further than needed).
        Called at quiescence under a read sink, so the extended-place
        reads below are pure observation.  Also records which slots are
        burning load or idling on a PCPU, for :meth:`apply`.
        """
        algorithm = self._model.algorithm
        if not algorithm.tick_skip_safe and (
            type(algorithm).tick_skip_horizon
            is SchedulingAlgorithm.tick_skip_horizon
        ):
            # The default hook refuses every span: skip the scan.
            return self._decline("algorithm")
        for entry in self._pcpus.value:
            if entry["state"] != PCPUState.ASSIGNED:
                return self._decline("pcpu_not_assigned")
        if self._health is not None:
            for entry in self._health.value:
                if entry["health"] or entry["maint"] or entry["due"]:
                    return self._decline("health")
        if self._hv_debts is not None:
            for debt in self._hv_debts.value:
                if debt:
                    return self._decline("health")
        running = self._running
        idle = self._idle
        del running[:]
        del idle[:]
        bound = limit
        for g in range(self._total):
            slot = self._slot_values[g].value
            if slot["critical"]:
                return self._decline("critical")
            status = slot["status"]
            if self._pcpu_refs[g].value is None:
                if status == VCPUStatus.BUSY:
                    # A BUSY slot without a PCPU would burn load it was
                    # never granted time for — only a transient state;
                    # never certify it.
                    return self._decline("not_busy")
                continue
            if status == VCPUStatus.BUSY:
                room = min(slot["remaining_load"], self._timeslices[g].tokens) - 1
                running.append(g)
            elif status == VCPUStatus.READY:
                room = self._timeslices[g].tokens - 1
                idle.append(g)
            else:
                return self._decline("not_busy")
            if room < bound:
                bound = room
        if bound < 2:
            return self._decline("bound")
        self._now = float(self._timestamp.tokens + 1)
        horizon = algorithm.tick_skip_horizon(
            running, idle, self._vm_of, self._now, bound
        )
        if horizon < 2:
            return self._decline("algorithm")
        return min(horizon, bound)

    def apply(self, k: int) -> None:
        """Net marking change of ``k`` countdown ticks.

        Per tick: ``Timestamp`` gains a token (Clock), every holder's
        timeslice drops by one (Scheduling_Func accounting) and every
        BUSY holder's remaining load drops by one (Processing_load;
        READY holders discard their tick).  Tick and Sched_tick tokens
        are deposited and consumed within each tick, so their net
        change is zero.  The algorithm then commits its own ``k`` calls.
        """
        self._timestamp.add(k)
        for g in self._running:
            self._timeslices[g].remove(k)
            slot = self._slot_values[g].value  # mutable ref: marks the cell written
            slot["remaining_load"] -= k
        for g in self._idle:
            self._timeslices[g].remove(k)
        self._model.algorithm.skip_ticks(
            k, self._running, self._idle, self._vm_of, self._now
        )


def slot_places(index: int) -> Dict[str, str]:
    """Names of the per-slot places for global slot ``index`` (1-based)."""
    return {
        "schedule_in": f"VCPU{index}_Schedule_In",
        "schedule_out": f"VCPU{index}_Schedule_Out",
        "tick": f"VCPU{index}_Tick",
        "slot": f"VCPU{index}_slot",
        "timeslice": f"VCPU{index}_Timeslice",
        "last_in": f"VCPU{index}_Last_Scheduled_In",
        "pcpu": f"VCPU{index}_PCPU",
    }


def build_vcpu_scheduler(
    algorithm: SchedulingAlgorithm,
    num_pcpus: int,
    topology: Sequence[int],
    num_slots: int = DEFAULT_NUM_SLOTS,
    name: str = SCHEDULER_NAME,
    failures: Optional[PCPUFailureModel] = None,
    degradation: Optional[DegradationModel] = None,
    maintenance: Optional[MaintenancePolicy] = None,
    hv_overhead: Optional[HVOverheadModel] = None,
    streams: Optional[StreamFactory] = None,
) -> SANModel:
    """Construct the hypervisor VCPU-scheduler model.

    Args:
        algorithm: the plugged scheduling algorithm (fresh per
            replication; the framework never resets it for you).
        num_pcpus: number of physical CPUs (>= 1).
        topology: VCPUs per VM, e.g. ``[2, 1, 1]`` — global slots are
            assigned to VMs in order (VM 0 takes slots 1..2, ...).
        num_slots: statically defined VCPU slots (paper default: 16).
        name: model name (``"VCPU_Scheduler"`` by convention).
        failures: optional per-PCPU exponential fail/repair process
            (mutually exclusive with ``degradation``, which subsumes
            it: terminal health is failure).
        degradation: optional multi-state Markov health model.
        maintenance: optional repair policy (requires ``degradation``).
        hv_overhead: optional per-world-switch hypervisor cost.
        streams: random streams for the degradation case draws (the
            which-state-next choice is a *case* decision made in an
            output gate, outside the simulator's per-activity delay
            streams); default: seed 0, replication 0.

    Returns:
        A :class:`repro.san.SANModel` exposing, per plugged slot *g*,
        the join places ``VCPU<g>_Schedule_In``, ``VCPU<g>_Schedule_Out``,
        ``VCPU<g>_Tick``, and ``VCPU<g>_slot``, plus ``Num_PCPUs``,
        ``PCPUs``, and ``Timestamp``.
    """
    if num_pcpus < 1:
        raise ModelError(f"need at least one PCPU, got {num_pcpus}")
    if not topology or any(n < 1 for n in topology):
        raise ModelError(f"topology must list >= 1 VCPU per VM, got {topology!r}")
    total_vcpus = sum(topology)
    if total_vcpus > num_slots:
        raise ModelError(
            f"{total_vcpus} VCPUs exceed the {num_slots} statically defined "
            "slots; pass a larger num_slots (the paper: 'more VCPU slots can "
            "be easily added')"
        )
    if not isinstance(algorithm, SchedulingAlgorithm):
        raise ModelError(
            "algorithm must be a SchedulingAlgorithm, got "
            f"{type(algorithm).__name__}"
        )
    if degradation is not None and failures is not None:
        raise ConfigurationError(
            "degradation and pcpu failures are mutually exclusive: the "
            "health model's terminal state *is* failure (binary "
            "fail/repair is the h_max=1 special case)"
        )
    if maintenance is not None and degradation is None:
        raise ConfigurationError(
            "a maintenance policy needs a degradation model to repair"
        )
    if degradation is not None and degradation.initial_health is not None:
        if len(degradation.initial_health) != num_pcpus:
            raise ConfigurationError(
                f"initial_health lists {len(degradation.initial_health)} "
                f"entries for {num_pcpus} PCPUs"
            )
    if (
        maintenance is not None
        and maintenance.policy == "condition_based"
        and maintenance.threshold > degradation.h_max
    ):
        raise ConfigurationError(
            f"condition_based threshold {maintenance.threshold} exceeds "
            f"h_max {degradation.h_max}; the trigger would never fire "
            "below terminal failure"
        )
    if hv_overhead is not None and not hv_overhead.enabled:
        hv_overhead = None

    model = SANModel(name)
    timestamp = model.add_place(Place("Timestamp"))
    sched_tick = model.add_place(Place("Sched_tick"))
    model.add_place(Place("Num_PCPUs", initial=num_pcpus))

    def initial_pcpu_entry(i: int) -> Dict[str, Optional[str]]:
        # A PCPU configured to start at terminal health is out of
        # service from t=0 (the forced-degradation test hook).
        if degradation is not None and degradation.health_at(i) >= degradation.h_max:
            return {"state": PCPUState.FAILED, "vcpu": None}
        return new_pcpu_entry()

    pcpus = model.add_place(
        ExtendedPlace("PCPUs", [initial_pcpu_entry(i) for i in range(num_pcpus)])
    )

    # -- degradation-extension state ----------------------------------------
    # One health record per PCPU: current Markov state, the leaky-bucket
    # accumulator of withheld capacity, the in-maintenance and
    # periodic-overhaul-due flags, and whether a *runtime* terminal
    # failure was announced (so maintenance knows to announce the
    # matching repair; initially-terminal PCPUs never announced a fail).
    health: Optional[ExtendedPlace] = None
    capacity: List[float] = []
    matrix: List[List[float]] = []
    if degradation is not None:
        capacity = degradation.effective_capacity()
        matrix = degradation.effective_matrix()
        health = model.add_place(
            ExtendedPlace(
                "PCPU_Health",
                [
                    {
                        "health": degradation.health_at(i),
                        "acc": 0.0,
                        "maint": 0,
                        "due": 0,
                        "failed": 0,
                    }
                    for i in range(num_pcpus)
                ],
            )
        )
    # Outstanding hypervisor ticks per slot: set to the world-switch
    # cost at every schedule-in, burned down before guest ticks flow.
    hv_debts: Optional[ExtendedPlace] = None
    hv_cost = 0
    if hv_overhead is not None:
        hv_cost = hv_overhead.cost
        hv_debts = model.add_place(
            ExtendedPlace("HV_Debts", [0] * total_vcpus)
        )
    crews: Optional[Place] = None
    if maintenance is not None:
        crews = model.add_place(Place("Repair_Crews", initial=maintenance.crews))

    # Global slot map: slot index (1-based) -> (vm_id, vcpu_index).
    slot_map: List[Tuple[int, int]] = []
    for vm_id, count in enumerate(topology):
        for vcpu_index in range(count):
            slot_map.append((vm_id, vcpu_index))

    schedule_in_places: List[Place] = []
    schedule_out_places: List[Place] = []
    tick_places: List[Place] = []
    slot_value_places: List[ExtendedPlace] = []
    timeslice_places: List[Place] = []
    last_in_places: List[ExtendedPlace] = []
    pcpu_places: List[ExtendedPlace] = []

    for index in range(1, num_slots + 1):
        names = slot_places(index)
        plugged = index <= total_vcpus
        schedule_in_places.append(model.add_place(Place(names["schedule_in"])))
        schedule_out_places.append(model.add_place(Place(names["schedule_out"])))
        tick_places.append(model.add_place(Place(names["tick"])))
        slot_value_places.append(
            model.add_place(
                ExtendedPlace(names["slot"], new_slot() if plugged else None)
            )
        )
        timeslice_places.append(model.add_place(Place(names["timeslice"])))
        last_in_places.append(model.add_place(ExtendedPlace(names["last_in"], -1.0)))
        pcpu_places.append(model.add_place(ExtendedPlace(names["pcpu"], None)))

    # -- Clock: the unit-time heartbeat -------------------------------------

    if health is None and hv_debts is None:

        def tick_fanout() -> None:
            timestamp.add()
            for g in range(total_vcpus):
                tick_places[g].add()
            sched_tick.add()

    else:
        # Degradation/overhead-aware fan-out.  A slot holding a PCPU
        # only receives its tick when (a) no hypervisor world-switch
        # debt is outstanding for it and (b) the host core's leaky
        # bucket delivers: per tick the bucket gains ``capacity[h]``
        # and a whole tick flows to the guest each time it reaches 1.
        # Unassigned slots always get their tick (their consumer is
        # Discard_tick, exactly as in the plain fan-out).  Timeslice
        # accounting in Scheduling_Func still runs on *wall-clock*
        # ticks, so a degraded tenure does strictly less guest work.

        def tick_fanout() -> None:
            timestamp.add()
            # Looks go through peek(); only a real change (a burned
            # debt, a degraded core's bucket) goes through ``.value`` and
            # marks its cell written, so a pristine, debt-free tick does
            # not re-stale every gate watching the health records.
            health_entries = health.peek() if health is not None else None
            debts = hv_debts.peek() if hv_debts is not None else None
            for g in range(total_vcpus):
                pcpu_index = pcpu_places[g].peek()
                if pcpu_index is None:
                    tick_places[g].add()
                    continue
                if debts is not None and debts[g] > 0:
                    hv_debts.value[g] -= 1
                    continue
                if health_entries is not None:
                    h = health_entries[pcpu_index]["health"]
                    if h:
                        entry = health.value[pcpu_index]
                        acc = entry["acc"] + capacity[h]
                        if acc < 1.0:
                            entry["acc"] = acc
                            continue
                        entry["acc"] = acc - 1.0
                tick_places[g].add()
            sched_tick.add()

    clock = model.add_activity(
        TimedActivity(
            "Clock",
            Deterministic(1),
            input_gates=[InputGate("Always", expr=E.TRUE)],
            output_gates=[OutputGate("Tick_fanout", tick_fanout)],
        )
    )

    # -- Scheduling_Func: timeslice accounting + the plugged algorithm ------

    def _deschedule(g: int, reason: str = _trace.OUT_DECISION) -> None:
        """Free slot g's PCPU and notify its VCPU model."""
        pcpu_index = pcpu_places[g].value
        pcpus.value[pcpu_index] = new_pcpu_entry()
        pcpu_places[g].value = None
        timeslice_places[g].tokens = 0
        if hv_debts is not None:
            hv_debts.value[g] = 0
        schedule_out_places[g].add()
        tracer = _trace._ACTIVE
        if tracer is not None:
            vm_id, vcpu_index = slot_map[g]
            tracer.emit(_trace.SCHED_OUT, vcpu=g, vm=vm_id,
                        vcpu_index=vcpu_index, pcpu=pcpu_index, reason=reason)

    def _assign(g: int, pcpu_index: int, timeslice: int, now: float) -> None:
        """Assign a PCPU to slot g and notify its VCPU model."""
        pcpus.value[pcpu_index] = {"state": PCPUState.ASSIGNED, "vcpu": g}
        pcpu_places[g].value = pcpu_index
        timeslice_places[g].tokens = timeslice
        last_in_places[g].value = now
        if hv_debts is not None:
            hv_debts.value[g] = hv_cost
        schedule_in_places[g].add()
        tracer = _trace._ACTIVE
        if tracer is not None:
            vm_id, vcpu_index = slot_map[g]
            tracer.emit(_trace.SCHED_IN, vcpu=g, vm=vm_id,
                        vcpu_index=vcpu_index, pcpu=pcpu_index,
                        timeslice=timeslice)
            if hv_debts is not None:
                tracer.emit(_trace.HV_OVERHEAD, vcpu=g, pcpu=pcpu_index,
                            cost=hv_cost)

    # -- optional dependability process: PCPU fail/repair --------------------

    if failures is not None:
        for pcpu_index in range(num_pcpus):

            def fail(i: int = pcpu_index) -> None:
                entry = pcpus.value[i]
                victim = None
                if entry["state"] == PCPUState.ASSIGNED:
                    victim = entry["vcpu"]
                    _deschedule(victim, reason=_trace.OUT_PCPU_FAILURE)
                pcpus.value[i] = {"state": PCPUState.FAILED, "vcpu": None}
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.PCPU_FAIL, pcpu=i, victim=victim)

            def repair(i: int = pcpu_index) -> None:
                pcpus.value[i] = new_pcpu_entry()
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.PCPU_REPAIR, pcpu=i)

            model.add_activity(
                TimedActivity(
                    f"Fail_PCPU{pcpu_index}",
                    Exponential(1.0 / failures.mtbf),
                    input_gates=[
                        InputGate(
                            f"Operational{pcpu_index}",
                            expr=E.field(pcpus, pcpu_index, "state")
                            != E.const(PCPUState.FAILED),
                        )
                    ],
                    output_gates=[OutputGate(f"Fail_gate{pcpu_index}", fail)],
                )
            )
            model.add_activity(
                TimedActivity(
                    f"Repair_PCPU{pcpu_index}",
                    Exponential(1.0 / failures.mttr),
                    input_gates=[
                        InputGate(
                            f"Down{pcpu_index}",
                            expr=E.field(pcpus, pcpu_index, "state")
                            == E.const(PCPUState.FAILED),
                        )
                    ],
                    output_gates=[OutputGate(f"Repair_gate{pcpu_index}", repair)],
                )
            )

    # -- degradation extension: Markov health, maintenance, crews -----------

    if degradation is not None:
        h_max = degradation.h_max
        case_streams = streams if streams is not None else StreamFactory()
        stream_bindings: List[Tuple[str, object]] = []

        for pcpu_index in range(num_pcpus):
            # The which-state-next draw is a *case* decision in the
            # output gate; it gets its own named stream (separate from
            # the activity's delay stream, which the simulator binds by
            # qualified name) so trajectories survive model reuse.
            case_key = f"{name}.Degrade_case{pcpu_index}"
            case_rng = case_streams.stream(case_key)
            stream_bindings.append((case_key, case_rng))

            def degrade(i: int = pcpu_index, rng=case_rng) -> None:
                entry = health.value[i]
                h = entry["health"]
                row = matrix[h]
                draw = rng.random()
                cumulative = 0.0
                new_h = h
                for state, probability in enumerate(row):
                    cumulative += probability
                    if draw < cumulative:
                        new_h = state
                        break
                if new_h == h:
                    return
                entry["health"] = new_h
                entry["acc"] = 0.0
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.PCPU_DEGRADE, pcpu=i, from_health=h,
                                to_health=new_h, capacity=capacity[new_h])
                if new_h >= h_max:
                    # Terminal: feed the existing fail machinery.
                    pcpu_entry = pcpus.value[i]
                    victim = None
                    if pcpu_entry["state"] == PCPUState.ASSIGNED:
                        victim = pcpu_entry["vcpu"]
                        _deschedule(victim, reason=_trace.OUT_PCPU_FAILURE)
                    pcpus.value[i] = {"state": PCPUState.FAILED, "vcpu": None}
                    entry["failed"] = 1
                    if tracer is not None:
                        tracer.emit(_trace.PCPU_FAIL, pcpu=i, victim=victim)

            model.add_activity(
                TimedActivity(
                    f"Degrade_PCPU{pcpu_index}",
                    Exponential(1.0 / degradation.mtbe),
                    input_gates=[
                        InputGate(
                            f"Degradable{pcpu_index}",
                            expr=(E.field(health, pcpu_index, "health") < h_max)
                            & (E.field(health, pcpu_index, "maint") == 0),
                        )
                    ],
                    output_gates=[OutputGate(f"Degrade_gate{pcpu_index}", degrade)],
                )
            )

        model.stream_bindings = stream_bindings

    if maintenance is not None:
        policy = maintenance.policy
        threshold = maintenance.threshold
        h_max = degradation.h_max

        def maint_needed(i: int) -> bool:
            entry = health.value[i]
            if entry["maint"]:
                return False
            h = entry["health"]
            if h >= h_max:
                # Every policy repairs a dead core: corrective repair
                # of terminal failures is the baseline all policies
                # build on.
                return True
            if policy == "condition_based":
                return h >= threshold
            if policy == "periodic":
                return bool(entry["due"])
            return False

        for pcpu_index in range(num_pcpus):

            def maint_start(i: int = pcpu_index) -> None:
                entry = health.value[i]
                crews.remove()
                entry["maint"] = 1
                entry["due"] = 0
                pcpu_entry = pcpus.value[i]
                victim = None
                if pcpu_entry["state"] == PCPUState.ASSIGNED:
                    victim = pcpu_entry["vcpu"]
                    _deschedule(victim, reason=_trace.OUT_MAINTENANCE)
                # Out of service for the repair's duration.
                pcpus.value[i] = {"state": PCPUState.FAILED, "vcpu": None}
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.MAINT_START, pcpu=i, policy=policy,
                                health=entry["health"], victim=victim)

            def maint_done(i: int = pcpu_index) -> None:
                entry = health.value[i]
                was_failed = entry["failed"]
                entry["health"] = 0
                entry["acc"] = 0.0
                entry["maint"] = 0
                entry["failed"] = 0
                pcpus.value[i] = new_pcpu_entry()
                crews.add()
                tracer = _trace._ACTIVE
                if tracer is not None:
                    tracer.emit(_trace.MAINT_DONE, pcpu=i, policy=policy)
                    if was_failed:
                        # The matching pcpu.repair for the pcpu.fail a
                        # runtime terminal degrade announced (an
                        # initially-terminal PCPU announced no fail, so
                        # it gets no repair record either).
                        tracer.emit(_trace.PCPU_REPAIR, pcpu=i)

            model.add_activity(
                InstantaneousActivity(
                    f"Maint_Start{pcpu_index}",
                    priority=PRIORITY_MAINT,
                    input_gates=[
                        # Two gates preserve the closure's short-circuit:
                        # the IR crew guard is scanned first, so the
                        # policy closure only runs when a crew is free.
                        InputGate(
                            f"Maint_crew_free{pcpu_index}",
                            expr=E.tokens(crews) > 0,
                        ),
                        InputGate(
                            f"Maint_trigger{pcpu_index}",
                            lambda i=pcpu_index: maint_needed(i),
                        ),
                    ],
                    output_gates=[
                        OutputGate(f"Maint_start_gate{pcpu_index}", maint_start)
                    ],
                )
            )
            model.add_activity(
                TimedActivity(
                    f"Maint_Done{pcpu_index}",
                    Exponential(1.0 / maintenance.mttr),
                    input_gates=[
                        InputGate(
                            f"In_maintenance{pcpu_index}",
                            expr=E.field(health, pcpu_index, "maint") != 0,
                        )
                    ],
                    output_gates=[
                        OutputGate(f"Maint_done_gate{pcpu_index}", maint_done)
                    ],
                )
            )
            if policy == "periodic":

                def maint_due(i: int = pcpu_index) -> None:
                    entry = health.value[i]
                    if not entry["maint"]:
                        entry["due"] = 1

                model.add_activity(
                    TimedActivity(
                        f"Maint_Due{pcpu_index}",
                        Deterministic(maintenance.period),
                        input_gates=[
                            InputGate(f"Due_clock{pcpu_index}", expr=E.TRUE)
                        ],
                        output_gates=[
                            OutputGate(f"Maint_due_gate{pcpu_index}", maint_due)
                        ],
                    )
                )

    def _status_of(g: int) -> str:
        """Hypervisor view of a slot's status (authoritative mid-tick)."""
        if pcpu_places[g].peek() is None:
            return VCPUStatus.INACTIVE
        if slot_value_places[g].peek()["remaining_load"] > 0:
            return VCPUStatus.BUSY
        return VCPUStatus.READY

    def run_scheduling_func() -> None:
        profiler = _profile._ACTIVE
        if profiler is not None:
            with profiler.section("vmm.scheduling_func"):
                _run_scheduling_func()
            return
        _run_scheduling_func()

    def _run_scheduling_func() -> None:
        # Resolved through the model each tick so cross-replication
        # reuse can swap in a fresh algorithm (or a guard/chaos wrapper)
        # without rebuilding these closures.
        algorithm = model.algorithm
        sched_tick.remove()
        now = float(timestamp.tokens)

        # Steps 1, 2 and 4 only *look* at the extended places, so they
        # read through peek(): a bare ``.value`` read outside a read sink
        # counts as a write and would re-stale every gate watching every
        # slot on every tick.  Mutations (in _deschedule/_assign) keep
        # going through ``.value``.
        #
        # 1. Timeslice accounting: expire VCPUs whose tenure ran out.
        for g in range(total_vcpus):
            if pcpu_places[g].peek() is None:
                continue
            remaining = timeslice_places[g].tokens - 1
            if remaining <= 0:
                _deschedule(g, reason=_trace.OUT_EXPIRE)
            else:
                timeslice_places[g].tokens = remaining

        # 2. Build the in/out view arrays the C interface passes.
        views: List[VCPUHostView] = []
        for g in range(total_vcpus):
            vm_id, vcpu_index = slot_map[g]
            slot = slot_value_places[g].peek()
            views.append(
                VCPUHostView(
                    vcpu_id=g,
                    vm_id=vm_id,
                    vcpu_index=vcpu_index,
                    status=_status_of(g),
                    remaining_load=slot["remaining_load"],
                    sync_point=slot["sync_point"],
                    last_scheduled_in=last_in_places[g].peek(),
                    timeslice=timeslice_places[g].tokens,
                    pcpu=pcpu_places[g].peek(),
                )
            )
        if health is None:
            pcpu_views = [
                PCPUView(pcpu_id=i, state=entry["state"], vcpu=entry["vcpu"])
                for i, entry in enumerate(pcpus.peek())
            ]
        else:
            health_entries = health.peek()
            pcpu_views = [
                PCPUView(
                    pcpu_id=i,
                    state=entry["state"],
                    vcpu=entry["vcpu"],
                    health=health_entries[i]["health"],
                    capacity=capacity[health_entries[i]["health"]],
                )
                for i, entry in enumerate(pcpus.peek())
            ]

        # 3. Call the plugged scheduling function.
        profiler = _profile._ACTIVE
        if profiler is None:
            algorithm.schedule(views, len(views), pcpu_views, num_pcpus, now)
        else:
            with profiler.section("vmm.algorithm"):
                algorithm.schedule(views, len(views), pcpu_views, num_pcpus, now)

        # 4. Validate and apply its decisions: outs first, then ins.
        for view in views:
            if view.schedule_in and view.schedule_out:
                raise SchedulingError(
                    f"{algorithm.name}: VCPU {view.vcpu_id} marked for both "
                    "schedule_in and schedule_out in one tick"
                )
        for view in views:
            if not view.schedule_out:
                continue
            if pcpu_places[view.vcpu_id].peek() is None:
                raise SchedulingError(
                    f"{algorithm.name}: schedule_out for VCPU {view.vcpu_id}, "
                    "which holds no PCPU"
                )
            _deschedule(view.vcpu_id)
        for view in views:
            if not view.schedule_in:
                continue
            g = view.vcpu_id
            if pcpu_places[g].peek() is not None:
                raise SchedulingError(
                    f"{algorithm.name}: schedule_in for VCPU {g}, "
                    "which already holds a PCPU"
                )
            pcpu_index = view.next_pcpu
            if pcpu_index is None:
                pcpu_index = next(
                    (
                        i
                        for i, entry in enumerate(pcpus.peek())
                        if entry["state"] == PCPUState.IDLE
                    ),
                    None,
                )
                if pcpu_index is None:
                    raise SchedulingError(
                        f"{algorithm.name}: schedule_in for VCPU {g} but no "
                        "PCPU is free (over-commitment in one tick)"
                    )
            else:
                if not 0 <= pcpu_index < num_pcpus:
                    raise SchedulingError(
                        f"{algorithm.name}: VCPU {g} requested PCPU "
                        f"{pcpu_index}, outside 0..{num_pcpus - 1}"
                    )
                if pcpus.peek()[pcpu_index]["state"] != PCPUState.IDLE:
                    raise SchedulingError(
                        f"{algorithm.name}: VCPU {g} requested PCPU "
                        f"{pcpu_index}, which is not idle"
                    )
            timeslice = (
                view.next_timeslice
                if view.next_timeslice is not None
                else algorithm.timeslice
            )
            if timeslice < 1:
                raise SchedulingError(
                    f"{algorithm.name}: VCPU {g} granted a timeslice of "
                    f"{timeslice}; must be >= 1"
                )
            _assign(g, pcpu_index, timeslice, now)

    model.add_activity(
        InstantaneousActivity(
            "Scheduling_Func",
            priority=PRIORITY_SCHEDULER,
            input_gates=[InputGate("Sched_armed", expr=E.tokens(sched_tick) > 0)],
            output_gates=[OutputGate("Scheduling_Func_gate", run_scheduling_func)],
        )
    )

    # Metadata consumed by the Virtual System builder and the metrics.
    model.slot_map = slot_map
    model.total_vcpus = total_vcpus
    model.num_pcpus = num_pcpus
    model.algorithm = algorithm
    model.failures = failures
    model.degradation = degradation
    model.maintenance = maintenance
    model.hv_overhead = hv_overhead
    if degradation is None:
        model.stream_bindings = []
    model.tick_fast_forward = ClockFastForward(
        model,
        clock,
        timestamp,
        pcpus,
        slot_value_places,
        timeslice_places,
        pcpu_places,
        [vm_id for vm_id, _ in slot_map],
        health=health,
        hv_debts=hv_debts,
    )
    return model
