"""The pluggable VCPU-scheduling interface.

The paper's framework exports a C function-call interface from the
``Scheduling_Func`` output gate::

    bool schedule(VCPU_host_external* vcpus, int num_vcpu,
                  PCPU_external* pcpus, int num_pcpu, long timestamp)

where ``vcpus`` / ``pcpus`` are in/out arrays reflecting the state of
every VCPU place and PCPU before and after the call.  This module is
the Python equivalent: :class:`VCPUHostView` and :class:`PCPUView` are
the mutable array elements, and :class:`SchedulingAlgorithm.schedule`
has the same signature and in/out contract.  A user plugs in a new
algorithm by subclassing :class:`SchedulingAlgorithm` (or wrapping a
bare function with :class:`FunctionScheduler`) — no knowledge of SANs
required, exactly as the paper intends.

Decision protocol (per hypervisor clock tick):

* the framework first decrements timeslices and force-relinquishes
  expired VCPUs (that happens *before* the call, in the scheduler
  model's clock gate, as in the paper);
* the algorithm then inspects the views and sets, on any view,
  ``schedule_out = True`` (relinquish the PCPU now) and/or
  ``schedule_in = True`` (assign a PCPU now, optionally choosing
  ``pcpu`` and ``timeslice``);
* the framework validates and applies the decisions; inconsistent
  decisions raise :class:`repro.errors.SchedulingError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import SchedulingError


class VCPUStatus:
    """VCPU states, as defined in the paper (Section III.B.2).

    READY and BUSY are the ACTIVE states (a PCPU is assigned); INACTIVE
    means no PCPU — possibly mid-workload (``remaining_load > 0``) or
    holding a synchronization point.
    """

    READY = "READY"
    BUSY = "BUSY"
    INACTIVE = "INACTIVE"

    ALL = (READY, BUSY, INACTIVE)
    ACTIVE = (READY, BUSY)


class PCPUState:
    """PCPU states, as in the paper's PCPU array.

    ``FAILED`` extends the paper for the dependability extension: a
    failed PCPU is out of service (never idle, never assignable) until
    its repair completes.
    """

    IDLE = "IDLE"
    ASSIGNED = "ASSIGNED"
    FAILED = "FAILED"


@dataclass
class VCPUHostView:
    """One element of the ``vcpus`` in/out array (``VCPU_host_external``).

    Input fields (framework -> algorithm):
        vcpu_id: global index into the array.
        vm_id: which VM this VCPU belongs to.
        vcpu_index: position within its VM (0-based).
        status: one of :class:`VCPUStatus`.
        remaining_load: ticks of work left on the current workload.
        sync_point: 1 if the current workload carries a barrier.
        last_scheduled_in: timestamp of the most recent PCPU assignment.
        timeslice: remaining timeslice ticks (0 when INACTIVE).
        pcpu: id of the assigned PCPU, or None.

    Output fields (algorithm -> framework):
        schedule_in: request a PCPU assignment this tick.
        schedule_out: relinquish the PCPU this tick.
        next_timeslice: timeslice granted with schedule_in (None = the
            framework default).
        next_pcpu: specific PCPU requested with schedule_in (None = any
            free one).
    """

    vcpu_id: int
    vm_id: int
    vcpu_index: int
    status: str = VCPUStatus.INACTIVE
    remaining_load: int = 0
    sync_point: int = 0
    last_scheduled_in: float = -1.0
    timeslice: int = 0
    pcpu: Optional[int] = None
    schedule_in: bool = field(default=False)
    schedule_out: bool = field(default=False)
    next_timeslice: Optional[int] = None
    next_pcpu: Optional[int] = None

    @property
    def active(self) -> bool:
        """True while the VCPU holds a PCPU (READY or BUSY)."""
        return self.status in VCPUStatus.ACTIVE


@dataclass
class PCPUView:
    """One element of the ``pcpus`` in/out array (``PCPU_external``).

    ``health`` and ``capacity`` carry the degradation extension's
    scheduler-visible signals: health 0 is pristine and ``capacity`` is
    the fraction of clock ticks the core currently delivers to its
    guest (1.0 on an undegraded host, so algorithms written against the
    paper's idealized model keep working unchanged).
    """

    pcpu_id: int
    state: str = PCPUState.IDLE
    vcpu: Optional[int] = None
    health: int = 0
    capacity: float = 1.0

    @property
    def idle(self) -> bool:
        return self.state == PCPUState.IDLE

    @property
    def degraded(self) -> bool:
        """True when the core is delivering less than full capacity."""
        return self.health > 0


class SchedulingAlgorithm:
    """Base class for pluggable VCPU scheduling algorithms.

    Subclasses implement :meth:`schedule` and may keep internal state
    across ticks (run queues, skew counters, ...); :meth:`reset` must
    clear that state so one algorithm instance can serve many
    replications.

    Attributes:
        name: registry key; subclasses override.
        timeslice: default timeslice (ticks) granted on schedule_in when
            the algorithm does not set ``next_timeslice``.
        tick_skip_safe: the one-line fast-forward opt-in.  A subclass
            sets it True to certify that ``schedule()`` decides nothing
            and changes no internal state on a tick where every PCPU is
            ASSIGNED and every assigned VCPU is BUSY; the default
            :meth:`tick_skip_horizon` then grants the whole span it is
            offered whenever no PCPU holder is READY.  Algorithms that
            do per-tick bookkeeping (deadline rollover, skew accounting)
            leave it False and either stay off fast-forward or override
            the horizon hook with an exact replay of that bookkeeping
            (see :class:`~repro.schedulers.relaxed_co.RelaxedCoScheduler`).
            Wrappers that override neither (guard, chaos) disable
            fast-forward automatically.  Once a subclass overrides the
            hook, the engine reads only the hook: the flag then just
            records the BUSY-only certificate (rrs, scs, credit, hybrid
            and balance keep it beside a hook that also admits READY
            holders; health_aware reports its inner's).
    """

    name = "abstract"
    tick_skip_safe = False

    def __init__(self, timeslice: int = 30) -> None:
        if timeslice < 1:
            raise SchedulingError(f"timeslice must be >= 1, got {timeslice}")
        self.timeslice = int(timeslice)
        # Monotone dispatch counter per VCPU.  When several timeslices
        # expire in the same tick, re-enqueueing in *dispatch* order (not
        # VCPU-id order) is what keeps a round-robin rotation fair — see
        # requeue_order().
        self._dispatch_order: Dict[int, int] = {}
        self._dispatch_counter = 0

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        """Make this tick's scheduling decision by mutating the views.

        Returns:
            True if any decision was made (mirrors the C interface's
            bool return; the framework only uses it for diagnostics).
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Clear internal state between replications.

        Subclasses with their own state must call ``super().reset()``.
        """
        self._dispatch_order.clear()
        self._dispatch_counter = 0

    # -- clock-tick fast-forward ------------------------------------------

    def tick_skip_horizon(
        self,
        running: Sequence[int],
        idle: Sequence[int],
        vm_of: Sequence[int],
        now: float,
        limit: int,
    ) -> int:
        """How many calls from ``now`` on provably decide nothing.

        The compiled engine asks this before it fires a run of clock
        ticks in closed form (see
        :class:`repro.vmm.vcpu_scheduler.ClockFastForward`).  The caller
        guarantees that for each of the next ``limit`` calls, at
        timestamps ``now``, ``now + 1``, ...:

        * every PCPU is ASSIGNED, at pristine health;
        * the VCPUs holding a PCPU are exactly ``running`` (BUSY) plus
          ``idle`` (READY), every other VCPU is INACTIVE, and none of
          these statuses changes;
        * no timeslice expires before the call.

        ``vm_of[v]`` is VCPU ``v``'s VM id for every VCPU in the view
        array, in array order.  The answer ``h`` (``0 <= h <= limit``)
        must be *sound*: the first ``h`` calls would make no decision,
        and :meth:`skip_ticks` with ``k <= h`` reproduces exactly the
        internal state change of ``k`` such calls.  It need not be
        tight, but an exact horizon (``h < limit`` only when call
        ``h + 1`` decides) skips the most.

        The default grants the whole span to algorithms that declare
        ``tick_skip_safe`` — but only while no holder is READY, since
        some algorithms (FIFO) release READY holders.  Algorithms for
        which READY holders are as inert as BUSY ones override this.
        """
        return limit if self.tick_skip_safe and not idle else 0

    def skip_ticks(
        self,
        k: int,
        running: Sequence[int],
        idle: Sequence[int],
        vm_of: Sequence[int],
        now: float,
    ) -> None:
        """Apply the internal state change of ``k`` decision-free calls.

        Called with the arguments of the :meth:`tick_skip_horizon` call
        that granted at least ``k`` ticks.  The result must equal, under
        ``==``, the state after ``k`` ordinary ``schedule()`` calls at
        timestamps ``now .. now + k - 1`` — trace records included.
        Algorithms whose certified calls change nothing keep this no-op.
        """

    # -- shared helpers for concrete algorithms ---------------------------

    @staticmethod
    def free_pcpu_count(pcpus: List[PCPUView]) -> int:
        """Number of currently idle PCPUs."""
        return sum(1 for p in pcpus if p.idle)

    @staticmethod
    def by_vm(vcpus: List[VCPUHostView]) -> Dict[int, List[VCPUHostView]]:
        """Group the VCPU views by VM id, preserving array order."""
        groups: Dict[int, List[VCPUHostView]] = {}
        for view in vcpus:
            groups.setdefault(view.vm_id, []).append(view)
        return groups

    def start(self, view: VCPUHostView, timeslice: Optional[int] = None,
              pcpu: Optional[int] = None) -> None:
        """Mark a view for schedule-in with the given (or default) timeslice."""
        view.schedule_in = True
        view.next_timeslice = timeslice if timeslice is not None else self.timeslice
        view.next_pcpu = pcpu
        self._dispatch_order[view.vcpu_id] = self._dispatch_counter
        self._dispatch_counter += 1

    @staticmethod
    def stop(view: VCPUHostView) -> None:
        """Mark a view for schedule-out."""
        view.schedule_out = True

    def requeue_order(self, views: List[VCPUHostView]) -> List[VCPUHostView]:
        """Sort views for (re-)enqueueing: earliest-dispatched first.

        Never-dispatched VCPUs sort before any dispatched one (they have
        waited "forever"), in id order among themselves.
        """
        return sorted(
            views,
            key=lambda v: (self._dispatch_order.get(v.vcpu_id, -1), v.vcpu_id),
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(timeslice={self.timeslice})"


def validate_decisions(
    vcpus: List[VCPUHostView],
    pcpus: List[PCPUView],
    num_pcpu: int,
    default_timeslice: int = 1,
    algorithm_name: str = "algorithm",
) -> None:
    """Check one tick's decisions without applying them.

    Mirrors the ``Scheduling_Func`` gate's apply-time semantics exactly
    (outs applied first, then ins in array order against the evolving
    PCPU states), so a decision set that passes here is guaranteed to
    apply cleanly.  The resilience layer's decision guard runs this
    *before* the framework mutates any model state, which is what lets
    it discard a faulty tick instead of corrupting the replication.

    Raises:
        SchedulingError: naming the first inconsistent decision —
            schedule_in+schedule_out conflicts, schedule_out without a
            PCPU, schedule_in while already holding one, out-of-range
            or non-idle (including FAILED) PCPU requests, double
            assignment of one PCPU, over-commitment, or a timeslice
            below 1.
    """
    states = [p.state for p in pcpus]
    for view in vcpus:
        if view.schedule_in and view.schedule_out:
            raise SchedulingError(
                f"{algorithm_name}: VCPU {view.vcpu_id} marked for both "
                "schedule_in and schedule_out in one tick"
            )
    for view in vcpus:
        if not view.schedule_out:
            continue
        if view.pcpu is None:
            raise SchedulingError(
                f"{algorithm_name}: schedule_out for VCPU {view.vcpu_id}, "
                "which holds no PCPU"
            )
        states[view.pcpu] = PCPUState.IDLE
    for view in vcpus:
        if not view.schedule_in:
            continue
        if view.pcpu is not None:
            raise SchedulingError(
                f"{algorithm_name}: schedule_in for VCPU {view.vcpu_id}, "
                "which already holds a PCPU"
            )
        target = view.next_pcpu
        if target is None:
            target = next(
                (i for i, state in enumerate(states) if state == PCPUState.IDLE),
                None,
            )
            if target is None:
                raise SchedulingError(
                    f"{algorithm_name}: schedule_in for VCPU {view.vcpu_id} "
                    "but no PCPU is free (over-commitment in one tick)"
                )
        else:
            if not 0 <= target < num_pcpu:
                raise SchedulingError(
                    f"{algorithm_name}: VCPU {view.vcpu_id} requested PCPU "
                    f"{target}, outside 0..{num_pcpu - 1}"
                )
            if states[target] == PCPUState.FAILED:
                raise SchedulingError(
                    f"{algorithm_name}: VCPU {view.vcpu_id} requested PCPU "
                    f"{target}, which is FAILED"
                )
            if states[target] != PCPUState.IDLE:
                raise SchedulingError(
                    f"{algorithm_name}: VCPU {view.vcpu_id} requested PCPU "
                    f"{target}, which is not idle"
                )
        timeslice = (
            view.next_timeslice
            if view.next_timeslice is not None
            else default_timeslice
        )
        if timeslice < 1:
            raise SchedulingError(
                f"{algorithm_name}: VCPU {view.vcpu_id} granted a timeslice "
                f"of {timeslice}; must be >= 1"
            )
        states[target] = PCPUState.ASSIGNED


ScheduleFunction = Callable[
    [List[VCPUHostView], int, List[PCPUView], int, float], bool
]


class FunctionScheduler(SchedulingAlgorithm):
    """Adapts a bare function to the algorithm interface.

    This is the closest analogue of the paper's "write a C function"
    workflow: a user writes one function with the standard signature and
    plugs it in without subclassing anything.

    Example:
        >>> def greedy(vcpus, num_vcpu, pcpus, num_pcpu, timestamp):
        ...     free = sum(1 for p in pcpus if p.idle)
        ...     for v in vcpus:
        ...         if free == 0:
        ...             break
        ...         if not v.active:
        ...             v.schedule_in, v.next_timeslice = True, 10
        ...             free -= 1
        ...     return True
        >>> algo = FunctionScheduler("greedy", greedy)
    """

    def __init__(self, name: str, fn: ScheduleFunction, timeslice: int = 30) -> None:
        super().__init__(timeslice)
        if not callable(fn):
            raise SchedulingError("FunctionScheduler needs a callable")
        self.name = name
        self._fn = fn

    def schedule(self, vcpus, num_vcpu, pcpus, num_pcpu, timestamp) -> bool:
        return bool(self._fn(vcpus, num_vcpu, pcpus, num_pcpu, timestamp))
