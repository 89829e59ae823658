"""Hybrid scheduling (Weng et al., VEE 2009 — [7] in the paper).

Weng et al. observed that co-scheduling only pays off for *concurrent*
workloads (threads that synchronize, e.g. parallel kernels) and hurts
*non-concurrent* VMs (independent services), and proposed a hybrid
framework: classify each VM as concurrent or not, gang-schedule the
concurrent ones, and run everything else under proportional share.

This implementation keeps **one** proportional-share (stride) clock
for both classes: every VCPU accumulates virtual time
``timeslice / weight(vm)`` when dispatched, and the scheduler always
serves the smallest virtual time next — except that a concurrent VM's
VCPUs are only ever started *together* (its candidacy uses the mean of
its members' virtual times, and it is skipped when too few PCPUs are
free).  That gives concurrent VMs gang semantics without letting them
starve the share class, which is the point of the hybrid framework.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import SchedulingError
from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class HybridScheduler(SchedulingAlgorithm):
    """Gang-schedule declared-concurrent VMs; proportional-share the rest.

    Args:
        timeslice: PCPU tenure per dispatch (both classes).
        concurrent_vms: vm_ids to co-schedule.  Empty means pure
            proportional share.
        weights: per-VM weights (both classes; default 1).
    """

    name = "hybrid"
    # Same argument as scs for the gang half and credit for the
    # proportional half: with zero free PCPUs and no partial gangs the
    # candidate loop breaks before charging any virtual time.
    tick_skip_safe = True

    def __init__(
        self,
        timeslice: int = 30,
        concurrent_vms: Iterable[int] = (),
        weights: Optional[Dict[int, float]] = None,
    ) -> None:
        super().__init__(timeslice)
        self.concurrent_vms = set(int(v) for v in concurrent_vms)
        self.weights = dict(weights or {})
        for vm_id, weight in self.weights.items():
            if weight <= 0:
                raise SchedulingError(
                    f"hybrid weight for VM {vm_id} must be > 0, got {weight}"
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

    def _charge(self, view: VCPUHostView) -> None:
        self._vtime[view.vcpu_id] = (
            self._vtime.get(view.vcpu_id, 0.0)
            + self.timeslice / self._weight(view.vm_id)
        )

    def tick_skip_horizon(self, running, idle, vm_of, now, limit) -> int:
        # Gangs and candidates are judged on active/inactive only, and a
        # READY holder is active, so READY holders are as inert as BUSY.
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

        # Gang discipline: co-stop partially descheduled concurrent VMs.
        for vm_id in self.concurrent_vms:
            siblings = vms.get(vm_id)
            if not siblings:
                continue
            actives = [v for v in siblings if v.active]
            if actives and len(actives) < len(siblings):
                for view in actives:
                    self.stop(view)
                decided = True

        stopping = sum(1 for v in vcpus if v.schedule_out and v.active)
        free = self.free_pcpu_count(pcpus) + stopping

        # One candidate list for both classes, smallest virtual time first.
        candidates = []  # (vtime, tiebreak, kind, payload)
        for vm_id, siblings in vms.items():
            if vm_id in self.concurrent_vms:
                ready = all(not v.active and not v.schedule_out for v in siblings)
                if ready:
                    mean_vtime = sum(
                        self._vtime.get(v.vcpu_id, 0.0) for v in siblings
                    ) / len(siblings)
                    candidates.append((mean_vtime, vm_id, "gang", siblings))
            else:
                for view in siblings:
                    if not view.active and not view.schedule_out:
                        candidates.append(
                            (
                                self._vtime.get(view.vcpu_id, 0.0),
                                view.vcpu_id,
                                "vcpu",
                                view,
                            )
                        )
        candidates.sort(key=lambda c: (c[0], c[1]))

        for _, _, kind, payload in candidates:
            if free == 0:
                break
            if kind == "gang":
                siblings = payload
                if len(siblings) > free:
                    continue  # skip-ahead: too few PCPUs for the gang
                for view in siblings:
                    self.start(view)
                    self._charge(view)
                free -= len(siblings)
                decided = True
            else:
                view = payload
                self.start(view)
                self._charge(view)
                free -= 1
                decided = True
        return decided
