"""Strict Co-Scheduling (SCS).

VMware ESX 2's gang-style scheduler ([3] in the paper, rooted in gang
scheduling [4]): all VCPUs of a VM must *co-start* and *co-stop*
together.  The scheduler only dispatches a VM when there are enough
free PCPUs for every one of its VCPUs, which eliminates
synchronization latency (siblings are always preempted and resumed as
a unit) at the cost of the *CPU fragmentation* problem: a VM can sit
unscheduled while PCPUs idle because they are too few for a co-start.

Two consequences the paper measures:

* Figure 8 — with a single PCPU, a 2-VCPU VM can **never** be
  scheduled (availability 0): the strict co-start requirement always
  exceeds the supply.
* Figure 9 — with more VCPUs than PCPUs, SCS cannot fully utilize the
  PCPUs (fragmentation), unlike RRS and, largely, RCS.

Queue policy: a round-robin queue of VMs; VMs that do not fit the
currently free PCPUs are skipped (not blocked on), which is what lets
small VMs proceed when a large VM cannot fit — and what produces the
fragmentation loss when only the large VM remains.
"""

from __future__ import annotations

from collections import deque
from typing import List

from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class StrictCoScheduler(SchedulingAlgorithm):
    """Gang scheduling at VM granularity with skip-ahead dispatch."""

    name = "scs"
    # At a fast-forwardable marking every gang is fully active or fully
    # idle (a partial gang implies a FAILED/IDLE PCPU, which blocks the
    # certificate), so co-stop, admission and dispatch are all no-ops.
    tick_skip_safe = True

    def __init__(self, timeslice: int = 30) -> None:
        super().__init__(timeslice)
        self._queue: deque = deque()
        self._queued: set = set()
        # VM-granularity dispatch counter: simultaneous gang expiries must
        # re-enter the queue in dispatch order to rotate fairly.
        self._vm_order: dict = {}
        self._vm_counter = 0

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._queued.clear()
        self._vm_order.clear()
        self._vm_counter = 0

    def tick_skip_horizon(self, running, idle, vm_of, now, limit) -> int:
        # Gangs are judged only on active/inactive, and a READY holder is
        # active: co-stop, admission and dispatch stay no-ops with it too.
        return limit

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        decided = False
        vms = self.by_vm(vcpus)

        # Co-stop: if any sibling just lost its PCPU (timeslice expiry),
        # stop the rest of the gang immediately.  With equal timeslices the
        # gang normally expires as one, so this is a consistency guard.
        for siblings in vms.values():
            actives = [v for v in siblings if v.active]
            if actives and len(actives) < len(siblings):
                for view in actives:
                    self.stop(view)
                decided = True

        # Admit fully idle VMs to the run queue in dispatch order (the
        # first call admits all, in vm_id order).
        admissible = []
        for vm_id, siblings in vms.items():
            fully_inactive = all(not v.active or v.schedule_out for v in siblings)
            if fully_inactive and vm_id not in self._queued:
                admissible.append(vm_id)
        admissible.sort(key=lambda vm_id: (self._vm_order.get(vm_id, -1), vm_id))
        for vm_id in admissible:
            self._queue.append(vm_id)
            self._queued.add(vm_id)

        # Count PCPUs free after the co-stops above take effect.
        stopping = sum(1 for v in vcpus if v.schedule_out and v.active)
        free = self.free_pcpu_count(pcpus) + stopping

        # Dispatch in queue order, skipping VMs that do not fit.  Skipped
        # VMs keep their queue position (head of the rebuilt queue).
        skipped = []
        while free > 0 and self._queue:
            vm_id = self._queue.popleft()
            siblings = vms[vm_id]
            if any(v.schedule_out for v in siblings):
                # A gang we are co-stopping this very tick cannot restart
                # in the same tick; keep it queued for the next one.
                skipped.append(vm_id)
                continue
            if len(siblings) > free:
                skipped.append(vm_id)
                continue
            self._queued.discard(vm_id)
            for view in siblings:
                self.start(view)
            self._vm_order[vm_id] = self._vm_counter
            self._vm_counter += 1
            free -= len(siblings)
            decided = True
        self._queue = deque(skipped + list(self._queue))
        return decided
