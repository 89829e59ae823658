"""Proportional-share (credit) scheduling.

A Xen-credit-style weighted fair scheduler, included because the paper's
related work (§II.C) compares proportional-share strategies ([7] Weng et
al.'s hybrid framework; [8] Cherkasova et al.'s comparison of Xen's
three schedulers).  Each VM carries a *weight*; the scheduler tracks
each VCPU's consumed PCPU time normalized by its VM's weight (a virtual
time) and always dispatches the VCPUs with the smallest virtual time —
the classic fair-queueing rule, which converges to proportional shares.

Like RRS it is sibling-oblivious, so it inherits the synchronization
latency problem; the scheduler-zoo ablation shows it sits near RRS on
VCPU utilization while adding weighted differentiation.

Accounting is *stride style*: a VCPU's virtual time is charged
``timeslice / weight`` up front at dispatch, which is both the classic
stride-scheduling rule and robust to the framework's tick ordering
(timeslice expiry is applied before the algorithm runs, so charging by
observed runtime would systematically miss the final tick — with a
timeslice of 1 it would miss *everything* and starve high-id VCPUs, a
bug the property suite caught).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import SchedulingError
from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class CreditScheduler(SchedulingAlgorithm):
    """Smallest-virtual-time-first dispatch with per-VM weights.

    Args:
        timeslice: PCPU tenure per dispatch.
        weights: mapping vm_id -> positive weight.  VMs absent from the
            mapping get weight 1.
    """

    name = "credit"
    # Virtual time is charged at dispatch, not per tick; with zero free
    # PCPUs schedule() returns before touching any state.
    tick_skip_safe = True

    def __init__(self, timeslice: int = 30, weights: Optional[Dict[int, float]] = None) -> None:
        super().__init__(timeslice)
        self.weights = dict(weights or {})
        for vm_id, weight in self.weights.items():
            if weight <= 0:
                raise SchedulingError(
                    f"credit weight for VM {vm_id} must be > 0, got {weight}"
                )
        self._vtime: Dict[int, float] = {}

    def reset(self) -> None:
        super().reset()
        self._vtime.clear()

    def _weight(self, vm_id: int) -> float:
        return self.weights.get(vm_id, 1.0)

    def virtual_time(self, vcpu_id: int) -> float:
        """Accumulated weighted service of one VCPU (probe for tests)."""
        return self._vtime.get(vcpu_id, 0.0)

    def tick_skip_horizon(self, running, idle, vm_of, now, limit) -> int:
        # With no free PCPU schedule() returns first thing, whatever the
        # holders' status, so READY holders are as inert as BUSY ones.
        return limit

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        free = self.free_pcpu_count(pcpus)
        if free == 0:
            return False
        waiting = [v for v in vcpus if not v.active]
        # Lowest virtual time first; vcpu_id breaks ties deterministically.
        waiting.sort(key=lambda v: (self._vtime.get(v.vcpu_id, 0.0), v.vcpu_id))
        decided = False
        for view in waiting[:free]:
            self.start(view)
            self._vtime[view.vcpu_id] = (
                self._vtime.get(view.vcpu_id, 0.0)
                + self.timeslice / self._weight(view.vm_id)
            )
            decided = True
        return decided
