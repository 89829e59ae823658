"""A lightweight harness for exercising scheduling algorithms in isolation.

Users writing a new algorithm (the paper's "idea-based" evaluation
workflow) often want to poke it tick by tick without assembling the
full SAN system.  :class:`SchedulerHarness` is a miniature hypervisor:
it owns the view arrays, performs the same timeslice accounting and
decision validation as the real ``Scheduling_Func`` gate, and exposes
counters for quick fairness/utilization checks.

It deliberately has **no workload model** — drive loads by hand with
:meth:`set_load` — so tests can construct exact scenarios (e.g. "the
lock holder gets preempted mid-critical-section").

Example:
    >>> from repro.schedulers import RoundRobinScheduler
    >>> h = SchedulerHarness(RoundRobinScheduler(timeslice=2), topology=[1, 1], num_pcpus=1)
    >>> h.run(4)
    >>> h.active_time[0] == h.active_time[1]
    True
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..errors import SchedulingError
from .interface import (
    PCPUState,
    PCPUView,
    SchedulingAlgorithm,
    VCPUHostView,
    VCPUStatus,
)


class SchedulerHarness:
    """Drives one algorithm against synthetic VCPU/PCPU state.

    Args:
        algorithm: the algorithm under test.
        topology: VCPUs per VM (as for the real system builder).
        num_pcpus: physical CPU count.

    Attributes:
        now: current tick (starts at 0; :meth:`tick` advances it first).
        active_time: per-VCPU ticks spent holding a PCPU.
        busy_time: per-VCPU ticks spent processing (load > 0 and active).
        pcpu_busy_time: per-PCPU ticks spent assigned.
    """

    def __init__(
        self,
        algorithm: SchedulingAlgorithm,
        topology: Sequence[int],
        num_pcpus: int,
    ) -> None:
        if num_pcpus < 1:
            raise SchedulingError(f"num_pcpus must be >= 1, got {num_pcpus}")
        if not topology or any(n < 1 for n in topology):
            raise SchedulingError(f"bad topology {topology!r}")
        self.algorithm = algorithm
        self.num_pcpus = int(num_pcpus)
        self.now = 0.0

        self.views: List[VCPUHostView] = []
        for vm_id, count in enumerate(topology):
            for vcpu_index in range(count):
                self.views.append(
                    VCPUHostView(
                        vcpu_id=len(self.views),
                        vm_id=vm_id,
                        vcpu_index=vcpu_index,
                    )
                )
        self.pcpus: List[PCPUView] = [PCPUView(pcpu_id=i) for i in range(num_pcpus)]
        self._loads: Dict[int, int] = {v.vcpu_id: 0 for v in self.views}
        self.active_time: Dict[int, int] = {v.vcpu_id: 0 for v in self.views}
        self.busy_time: Dict[int, int] = {v.vcpu_id: 0 for v in self.views}
        self.pcpu_busy_time: Dict[int, int] = {p.pcpu_id: 0 for p in self.pcpus}

    # -- scenario control ---------------------------------------------------

    def set_load(self, vcpu_id: int, load: int) -> None:
        """Give a VCPU ``load`` ticks of pending work."""
        if load < 0:
            raise SchedulingError(f"load must be >= 0, got {load}")
        self._loads[vcpu_id] = int(load)
        self._refresh_status(self.views[vcpu_id])

    def load_of(self, vcpu_id: int) -> int:
        """Remaining work of one VCPU."""
        return self._loads[vcpu_id]

    def saturate(self, load: int = 10**9) -> None:
        """Give every VCPU effectively infinite work (pure-contention runs)."""
        for view in self.views:
            self.set_load(view.vcpu_id, load)

    # -- the tick loop -------------------------------------------------------

    def tick(self) -> None:
        """Advance one time unit: account, schedule, apply, process.

        Unlike the SAN model (where a decision made at tick *t* takes
        effect from tick *t+1*), the harness applies decisions at the
        start of the tick, so a VCPU admitted on tick 1 accrues active
        time from tick 1 — which makes unit-test arithmetic exact.
        """
        self.now += 1.0

        # 1. Timeslice accounting (same rule as the SAN scheduler model).
        for view in self.views:
            if view.pcpu is None:
                continue
            view.timeslice -= 1
            if view.timeslice <= 0:
                self._release(view)

        # 2. The algorithm's decision.
        for view in self.views:
            view.schedule_in = False
            view.schedule_out = False
            view.next_timeslice = None
            view.next_pcpu = None
        self.algorithm.schedule(
            self.views, len(self.views), self.pcpus, self.num_pcpus, self.now
        )

        # 3. Validate and apply: outs first, then ins.
        for view in self.views:
            if view.schedule_in and view.schedule_out:
                raise SchedulingError(
                    f"VCPU {view.vcpu_id}: schedule_in and schedule_out in one tick"
                )
        for view in self.views:
            if view.schedule_out:
                if view.pcpu is None:
                    raise SchedulingError(
                        f"VCPU {view.vcpu_id}: schedule_out without a PCPU"
                    )
                self._release(view)
        for view in self.views:
            if view.schedule_in:
                self._admit(view)

        # 4. Processing: every active VCPU with work burns one tick.
        for view in self.views:
            if view.pcpu is not None:
                self.active_time[view.vcpu_id] += 1
                self.pcpu_busy_time[view.pcpu] += 1
                if self._loads[view.vcpu_id] > 0:
                    self._loads[view.vcpu_id] -= 1
                    self.busy_time[view.vcpu_id] += 1
            self._refresh_status(view)

    def run(self, ticks: int, saturated: bool = True) -> None:
        """Run ``ticks`` time units; by default keeps all VCPUs loaded."""
        if saturated:
            self.saturate()
        for _ in range(ticks):
            self.tick()

    # -- clock-tick fast-forward ----------------------------------------------

    def skip_bound(self) -> int:
        """Ticks of pure countdown ahead, before asking the algorithm.

        The same certificate the SAN engine checks (see
        :class:`repro.vmm.vcpu_scheduler.ClockFastForward`): every PCPU
        assigned, and no timeslice expiring or load finishing inside
        the span — a BUSY holder allows ``min(load, timeslice) - 1``
        ticks, a READY holder ``timeslice - 1``.  0 when any fails.
        """
        if any(p.state != PCPUState.ASSIGNED for p in self.pcpus):
            return 0
        bound = None
        for view in self.views:
            if view.pcpu is None:
                continue
            room = view.timeslice - 1
            if view.remaining_load > 0:
                room = min(room, view.remaining_load - 1)
            if bound is None or room < bound:
                bound = room
        return max(bound or 0, 0)

    def _skip_args(self):
        running = [v.vcpu_id for v in self.views if v.status == VCPUStatus.BUSY]
        idle = [v.vcpu_id for v in self.views if v.status == VCPUStatus.READY]
        vm_of = [v.vm_id for v in self.views]
        return running, idle, vm_of, self.now + 1.0

    def skip_horizon(self) -> int:
        """Ticks the algorithm grants over :meth:`skip_bound` (0 = none)."""
        bound = self.skip_bound()
        if bound < 1:
            return 0
        return self.algorithm.tick_skip_horizon(*self._skip_args(), bound)

    def skip(self, k: int) -> None:
        """Advance ``k`` certified ticks in closed form.

        Equivalent to ``k`` calls of :meth:`tick` when ``k`` is at most
        :meth:`skip_horizon`: counters and countdowns move arithmetically
        and the algorithm commits its own state with ``skip_ticks``.
        """
        if k < 1:
            return
        running, idle, vm_of, now = self._skip_args()
        for _ in range(k):
            self.now += 1.0
        for view in self.views:
            view.schedule_in = False
            view.schedule_out = False
            view.next_timeslice = None
            view.next_pcpu = None
            if view.pcpu is None:
                continue
            view.timeslice -= k
            self.active_time[view.vcpu_id] += k
            self.pcpu_busy_time[view.pcpu] += k
            if self._loads[view.vcpu_id] > 0:
                self._loads[view.vcpu_id] -= k
                self.busy_time[view.vcpu_id] += k
            self._refresh_status(view)
        self.algorithm.skip_ticks(k, running, idle, vm_of, now)

    # -- internals -----------------------------------------------------------

    def _refresh_status(self, view: VCPUHostView) -> None:
        view.remaining_load = self._loads[view.vcpu_id]
        if view.pcpu is None:
            view.status = VCPUStatus.INACTIVE
        elif view.remaining_load > 0:
            view.status = VCPUStatus.BUSY
        else:
            view.status = VCPUStatus.READY

    def _release(self, view: VCPUHostView) -> None:
        pcpu = self.pcpus[view.pcpu]
        pcpu.state = PCPUState.IDLE
        pcpu.vcpu = None
        view.pcpu = None
        view.timeslice = 0
        self._refresh_status(view)

    def _admit(self, view: VCPUHostView) -> None:
        if view.pcpu is not None:
            raise SchedulingError(
                f"VCPU {view.vcpu_id}: schedule_in while already on PCPU {view.pcpu}"
            )
        pcpu_index: Optional[int] = view.next_pcpu
        if pcpu_index is None:
            pcpu_index = next(
                (p.pcpu_id for p in self.pcpus if p.state == PCPUState.IDLE), None
            )
            if pcpu_index is None:
                raise SchedulingError(
                    f"VCPU {view.vcpu_id}: schedule_in but no PCPU is free"
                )
        else:
            if not 0 <= pcpu_index < self.num_pcpus:
                raise SchedulingError(
                    f"VCPU {view.vcpu_id}: requested PCPU {pcpu_index} out of range"
                )
            if self.pcpus[pcpu_index].state != PCPUState.IDLE:
                raise SchedulingError(
                    f"VCPU {view.vcpu_id}: requested PCPU {pcpu_index} is busy"
                )
        timeslice = (
            view.next_timeslice
            if view.next_timeslice is not None
            else self.algorithm.timeslice
        )
        if timeslice < 1:
            raise SchedulingError(
                f"VCPU {view.vcpu_id}: timeslice {timeslice} must be >= 1"
            )
        pcpu = self.pcpus[pcpu_index]
        pcpu.state = PCPUState.ASSIGNED
        pcpu.vcpu = view.vcpu_id
        view.pcpu = pcpu_index
        view.timeslice = timeslice
        view.last_scheduled_in = self.now
        self._refresh_status(view)

    # -- observation -----------------------------------------------------------

    def active_ids(self) -> List[int]:
        """VCPU ids currently holding a PCPU."""
        return [v.vcpu_id for v in self.views if v.pcpu is not None]

    def assignment(self) -> Dict[int, int]:
        """Mapping vcpu_id -> pcpu_id for active VCPUs."""
        return {v.vcpu_id: v.pcpu for v in self.views if v.pcpu is not None}

    def availability(self, vcpu_id: int) -> float:
        """Active-time fraction of one VCPU so far."""
        if self.now == 0:
            return 0.0
        return self.active_time[vcpu_id] / self.now

    def pcpu_utilization(self) -> float:
        """Mean assigned fraction over all PCPUs so far."""
        if self.now == 0:
            return 0.0
        total = sum(self.pcpu_busy_time.values())
        return total / (self.now * self.num_pcpus)
