"""Round-Robin Scheduling (RRS).

The "naïve, yet popular" baseline of the paper (§II.B): a single global
run queue of VCPUs; whenever a PCPU frees up, the VCPU that has waited
longest gets it for one timeslice.  RRS is per-VCPU and completely
unaware of VM sibling relationships, which is exactly what exposes the
synchronization-latency problem the co-schedulers address: a VCPU
preempted mid-critical-section (here: mid-workload before a barrier)
stalls its whole VM while its siblings spin READY.

RRS's virtue — and the paper's Figure 8 finding — is fairness: every
VCPU receives the same share of PCPU time regardless of VM shape or
resource level.
"""

from __future__ import annotations

from collections import deque
from typing import List

from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class RoundRobinScheduler(SchedulingAlgorithm):
    """Global-queue round-robin over individual VCPUs.

    Internal state: a FIFO of waiting VCPU ids.  A VCPU enters the tail
    when it loses its PCPU (timeslice expiry) and leaves from the head
    when a PCPU frees up.
    """

    name = "rrs"
    # All PCPUs assigned + every assigned VCPU BUSY: nothing is newly
    # inactive (inactive VCPUs are already queued) and no PCPU is free,
    # so schedule() neither decides nor mutates the queue.
    tick_skip_safe = True

    def __init__(self, timeslice: int = 30) -> None:
        super().__init__(timeslice)
        self._queue: deque = deque()
        self._queued: set = set()

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._queued.clear()

    def tick_skip_horizon(self, running, idle, vm_of, now, limit) -> int:
        # A READY holder keeps its PCPU like a BUSY one: RRS only looks
        # at who is inactive and which PCPUs are free, so it is as inert.
        return limit

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        # Enqueue every inactive VCPU we are not already tracking.  On the
        # first call this admits all VCPUs in id order; afterwards it picks
        # up the ones the framework just scheduled out on timeslice expiry,
        # in dispatch order so simultaneous expiries rotate fairly.
        newly_inactive = [
            v for v in vcpus if not v.active and v.vcpu_id not in self._queued
        ]
        for view in self.requeue_order(newly_inactive):
            self._queue.append(view.vcpu_id)
            self._queued.add(view.vcpu_id)

        free = self.free_pcpu_count(pcpus)
        decided = False
        by_id = {view.vcpu_id: view for view in vcpus}
        while free > 0 and self._queue:
            vcpu_id = self._queue.popleft()
            self._queued.discard(vcpu_id)
            view = by_id[vcpu_id]
            if view.active:  # defensive: stale queue entry
                continue
            self.start(view)
            free -= 1
            decided = True
        return decided
