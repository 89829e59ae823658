"""Health-aware placement: route default dispatches around sick cores.

The degradation extension (PR 6) publishes per-PCPU ``health`` /
``capacity`` signals on :class:`~repro.schedulers.interface.PCPUView`.
None of the paper's algorithms read them — they were written against
an idealized host — so under partial degradation they keep dispatching
onto the sickest core as happily as onto a pristine one, and a VM's
makespan is gated by its unluckiest placement.

:class:`HealthAwareScheduler` is a *wrapper*, not a new policy: it
delegates every queueing/fairness/co-scheduling decision to an inner
algorithm, then redirects only the placements the inner algorithm left
to the framework default ("any free PCPU") onto the healthiest free
core instead of the lowest-numbered one.  Explicit placements (e.g.
balance scheduling's per-VCPU pins) are honored untouched — the
wrapper adds information the inner policy ignored, it does not
override the information the policy used.

On a fully healthy host the healthiest-free choice coincides exactly
with the framework's first-free default, so ``health_aware(inner)`` is
bit-for-bit identical to ``inner`` until the first degradation — the
wrapper costs nothing until there is something to route around.
"""

from __future__ import annotations

from typing import List, Union

from ..errors import SchedulingError
from .interface import PCPUState, PCPUView, SchedulingAlgorithm, VCPUHostView


class HealthAwareScheduler(SchedulingAlgorithm):
    """Wrap any algorithm with healthiest-free-core default placement.

    Args:
        inner: the wrapped algorithm — a registry name (default
            ``"rrs"``) or a ready instance.
        timeslice: default timeslice, forwarded to a named inner.
        **inner_params: extra constructor params for a named inner.

    The wrapper forwards the inner algorithm's fast-forward hooks
    (``tick_skip_horizon`` / ``skip_ticks``, and its ``tick_skip_safe``
    flag): over a certified span the inner makes no schedule-in, so the
    wrapper's post-pass is a no-op and coalescing stays sound.  The
    span also requires pristine health, where the healthiest free core
    is the first free one anyway.
    """

    name = "health_aware"

    def __init__(
        self,
        inner: Union[str, SchedulingAlgorithm] = "rrs",
        timeslice: int = 30,
        **inner_params,
    ) -> None:
        super().__init__(timeslice)
        if isinstance(inner, SchedulingAlgorithm):
            if inner_params:
                raise SchedulingError(
                    "inner_params only apply when inner is a registry name"
                )
            self.inner = inner
        else:
            from . import BUILTIN_ALGORITHMS  # deferred: package init order

            try:
                factory = BUILTIN_ALGORITHMS[inner]
            except KeyError:
                raise SchedulingError(
                    f"unknown inner scheduler {inner!r}; expected one of "
                    f"{sorted(BUILTIN_ALGORITHMS)}"
                ) from None
            if factory is HealthAwareScheduler:
                raise SchedulingError("health_aware cannot wrap itself")
            self.inner = factory(timeslice=timeslice, **inner_params)
        self.timeslice = self.inner.timeslice
        # Reported for introspection only; the engine reads the hooks.
        self.tick_skip_safe = self.inner.tick_skip_safe

    def reset(self) -> None:
        super().reset()
        self.inner.reset()

    def tick_skip_horizon(self, running, idle, vm_of, now, limit) -> int:
        return self.inner.tick_skip_horizon(running, idle, vm_of, now, limit)

    def skip_ticks(self, k, running, idle, vm_of, now) -> None:
        self.inner.skip_ticks(k, running, idle, vm_of, now)

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        decided = self.inner.schedule(vcpus, num_vcpu, pcpus, num_pcpu, timestamp)

        # Reconstruct the framework's apply-time availability: outs free
        # their PCPUs first, and explicitly pinned ins are spoken for.
        states = [p.state for p in pcpus]
        for view in vcpus:
            if view.schedule_out and view.pcpu is not None:
                states[view.pcpu] = PCPUState.IDLE
        taken = {
            view.next_pcpu
            for view in vcpus
            if view.schedule_in and view.next_pcpu is not None
        }
        for view in vcpus:
            if not view.schedule_in or view.next_pcpu is not None:
                continue
            best = None
            for i in range(num_pcpu):
                if states[i] != PCPUState.IDLE or i in taken:
                    continue
                if best is None or pcpus[i].health < pcpus[best].health:
                    best = i
            if best is None:
                # Over-commitment: leave the default in place so the
                # framework raises its usual diagnostic.
                continue
            view.next_pcpu = best
            taken.add(best)
        return decided

    def __repr__(self) -> str:
        return f"HealthAwareScheduler(inner={self.inner!r})"
