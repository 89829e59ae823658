"""Relaxed Co-Scheduling (RCS).

VMware ESX 3/4's refinement of strict co-scheduling ([2] in the paper).
The scheduler makes a best effort to co-start and co-stop a VM's
VCPUs, but when resources are short it may start a single VCPU alone.
To bound the resulting divergence it tracks a *cumulative skew* per
VCPU relative to its siblings; once a VCPU's skew grows past a
threshold, the VM falls back to co-start-only behaviour (leaders stop,
laggards catch up) until the skew drops below a lower threshold.

Implementation notes (ESX 4.1 "relaxed" semantics, per the white
paper the ICDCSW paper cites):

* *Progress* of a VCPU counts the ticks it holds a PCPU.  ``lag(v)`` is
  the gap between the furthest-ahead sibling's progress and v's.
* When ``max lag > skew_threshold``, the VM enters *catch-up*: every
  *leader* (a VCPU whose lead over the slowest sibling exceeds the
  relax threshold) self-co-stops and may not restart; laggards remain
  individually schedulable — with one PCPU, this is exactly what lets
  RCS drive a 2-VCPU VM that SCS cannot schedule at all (Figure 8),
  albeit with less PCPU share than unconstrained 1-VCPU VMs, because
  leaders give up the tail of their timeslice.
* Catch-up clears when ``max lag < relax_threshold``.
* Dispatch uses an RRS-style global FIFO, with opportunistic co-start:
  when a VCPU is dispatched and free PCPUs remain, queued siblings are
  pulled forward to start together.

The algorithm tracks progress itself (it is invoked every clock tick,
like the paper's C function), so it needs no framework support beyond
the standard view arrays.  When the compiled engine coalesces idle
ticks, :meth:`RelaxedCoScheduler.skip_ticks` replays exactly the
bookkeeping those calls would have done.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

from ..errors import SchedulingError
from ..observability import trace as _trace
from .interface import PCPUView, SchedulingAlgorithm, VCPUHostView


class RelaxedCoScheduler(SchedulingAlgorithm):
    """Skew-bounded best-effort co-scheduling (ESX 3/4 style).

    Args:
        timeslice: PCPU tenure granted on dispatch.
        skew_threshold: lag (in ticks) that trips catch-up mode.  Must be
            positive; values below the timeslice make the constraint
            actually bind (the paper's behaviour).  The default of 10 (a
            third of the default timeslice) was calibrated so the
            reproduction matches the paper's Figure 8/10 placement of
            RCS: visibly penalized vs 1-VCPU VMs on a starved host, and
            between RRS and SCS on VCPU utilization.  The paper does not
            report VMware's thresholds.
        relax_threshold: lag below which catch-up mode clears and above
            which a VCPU counts as a leader during catch-up.  Must be
            < skew_threshold.
    """

    name = "rcs"

    def __init__(
        self,
        timeslice: int = 30,
        skew_threshold: int = 10,
        relax_threshold: int = 5,
    ) -> None:
        super().__init__(timeslice)
        if skew_threshold <= 0:
            raise SchedulingError(f"skew_threshold must be > 0, got {skew_threshold}")
        if not 0 <= relax_threshold < skew_threshold:
            raise SchedulingError(
                "relax_threshold must satisfy 0 <= relax < skew "
                f"(got relax={relax_threshold}, skew={skew_threshold})"
            )
        self.skew_threshold = int(skew_threshold)
        self.relax_threshold = int(relax_threshold)
        self._queue: deque = deque()
        self._queued: set = set()
        self._progress: Dict[int, float] = {}
        self._catching_up: set = set()  # vm_ids currently in catch-up mode
        self._was_active: set = set()
        self._last_timestamp: Optional[float] = None

    def reset(self) -> None:
        super().reset()
        self._queue.clear()
        self._queued.clear()
        self._progress.clear()
        self._catching_up.clear()
        self._was_active.clear()
        self._last_timestamp = None

    # -- skew bookkeeping --------------------------------------------------

    def _update_progress(self, vcpus: List[VCPUHostView], timestamp: float) -> None:
        """Credit progress to every VCPU that held a PCPU since last tick."""
        if self._last_timestamp is not None:
            dt = timestamp - self._last_timestamp
            if dt > 0:
                for vcpu_id in self._was_active:
                    self._progress[vcpu_id] = self._progress.get(vcpu_id, 0.0) + dt
        self._last_timestamp = timestamp
        self._was_active = {v.vcpu_id for v in vcpus if v.active}

    def _lags(self, siblings: List[VCPUHostView]) -> Dict[int, float]:
        """Per-VCPU lag behind the furthest-ahead sibling."""
        progress = {v.vcpu_id: self._progress.get(v.vcpu_id, 0.0) for v in siblings}
        front = max(progress.values())
        return {vcpu_id: front - p for vcpu_id, p in progress.items()}

    def skew_of(self, vcpu_id: int, vcpus: List[VCPUHostView]) -> float:
        """Public probe of a VCPU's current lag (used by tests/benches)."""
        target = next(v for v in vcpus if v.vcpu_id == vcpu_id)
        siblings = [v for v in vcpus if v.vm_id == target.vm_id]
        return self._lags(siblings)[vcpu_id]

    # -- clock-tick fast-forward --------------------------------------------

    def tick_skip_horizon(self, running, idle, vm_of, now, limit) -> int:
        """Exact: the calls left before the first leader would be stopped.

        While every PCPU is held and nothing expires, a call only
        credits progress, maintains catch-up mode and — the one
        decision it can make — co-stops an *active* leader of a VM in
        catch-up.  Dispatch finds no free PCPU, and admission is a
        no-op once every inactive VCPU is queued.  The horizon replays
        the skew bookkeeping forward on plain numbers (catch-up entry
        and exit included: they decide nothing) and stops at the first
        call that would co-stop.
        """
        holders = set(running)
        holders.update(idle)
        last = self._last_timestamp
        # The replay credits exactly 1.0 per call, so the next call must
        # come one integral tick after the last one; and admission must
        # have nothing to do (every inactive VCPU already queued).
        if last is None or now - last != 1.0 or not float(now).is_integer():
            return 0
        queued = self._queued
        for vcpu_id in range(len(vm_of)):
            if vcpu_id not in holders and vcpu_id not in queued:
                return 0
        return self._replay(limit, holders, vm_of, now, commit=False)

    def skip_ticks(self, k, running, idle, vm_of, now) -> None:
        """Commit ``k`` certified calls: progress, catch-up, clock, trace."""
        if k > 0:
            holders = set(running)
            holders.update(idle)
            self._replay(k, holders, vm_of, now, commit=True)

    def _replay(self, ticks, holders, vm_of, now, commit) -> int:
        """Replay ``ticks`` calls' skew bookkeeping; see the hook.

        VMs are independent, so each is replayed on its own, in O(1)
        per call: after the first call every holder gains 1.0 per call
        and every other sibling stands still, so the furthest-ahead and
        slowest sibling follow from the running extremes of the two
        groups.  Rounding is monotone, so these extremes (and the lag
        and lead they give) are bit-for-bit the values :meth:`schedule`
        computes sibling by sibling.

        Returns the index of the first call that would co-stop, or
        ``ticks`` when none would.  With ``commit`` the progress,
        catch-up set, ``_was_active`` and ``_last_timestamp`` are
        updated in place and the per-call ``sched.skew`` records are
        emitted, exactly as :meth:`schedule` would.
        """
        progress = self._progress
        # Pitfall: the first call credits the holders seen by the
        # *previous* call (before its decisions applied), not the
        # current ones.
        credited = self._was_active
        skew, relax = self.skew_threshold, self.relax_threshold
        groups: Dict[int, List[int]] = {}
        for vcpu_id, vm_id in enumerate(vm_of):
            groups.setdefault(vm_id, []).append(vcpu_id)
        tracer = _trace._ACTIVE if commit else None
        lag_rows: List[tuple] = []  # (vm_id, [(max_lag, catching_up)] per call)
        catching_after: Dict[int, bool] = {}
        horizon = ticks
        for vm_id, ids in groups.items():
            if len(ids) < 2:
                continue
            moving: List[float] = []
            still: List[float] = []
            for vcpu_id in ids:
                p = progress.get(vcpu_id, 0.0)
                if vcpu_id in credited:
                    p += 1.0
                (moving if vcpu_id in holders else still).append(p)
            hi_moving = max(moving) if moving else -math.inf
            lo_moving = min(moving) if moving else math.inf
            hi_still = max(still) if still else -math.inf
            lo_still = min(still) if still else math.inf
            catching = vm_id in self._catching_up
            rows: List[tuple] = []
            for tick in range(horizon):
                if tick:
                    hi_moving += 1.0
                    lo_moving += 1.0
                slowest = lo_moving if lo_moving < lo_still else lo_still
                front = hi_moving if hi_moving > hi_still else hi_still
                max_lag = front - slowest
                if tracer is not None:
                    rows.append((max_lag, catching))
                if catching:
                    if max_lag < relax:
                        catching = False
                elif max_lag > skew:
                    catching = True
                if catching and hi_moving - slowest > relax:
                    if commit:
                        raise SchedulingError(
                            f"rcs: skip_ticks({ticks}) crosses a co-stop in "
                            f"VM {vm_id} at t={now + tick}"
                        )
                    horizon = tick
                    break
            lag_rows.append((vm_id, rows))
            catching_after[vm_id] = catching
        if not commit:
            return horizon
        for vcpu_id in credited:
            progress[vcpu_id] = progress.get(vcpu_id, 0.0) + 1.0
        if ticks > 1:
            for vcpu_id in holders:
                p = progress.get(vcpu_id, 0.0)
                for _ in range(ticks - 1):
                    p += 1.0
                progress[vcpu_id] = p
        for vm_id, catching in catching_after.items():
            if catching:
                self._catching_up.add(vm_id)
            else:
                self._catching_up.discard(vm_id)
        if tracer is not None:
            for tick in range(ticks):
                for vm_id, rows in lag_rows:
                    max_lag, catching = rows[tick]
                    tracer.emit(_trace.SCHED_SKEW, time=now + tick, vm=vm_id,
                                max_lag=max_lag, catching_up=catching)
        self._was_active = holders
        self._last_timestamp = now + (ticks - 1)
        return ticks

    # -- the scheduling function --------------------------------------------

    def schedule(
        self,
        vcpus: List[VCPUHostView],
        num_vcpu: int,
        pcpus: List[PCPUView],
        num_pcpu: int,
        timestamp: float,
    ) -> bool:
        self._update_progress(vcpus, timestamp)
        decided = False
        vms = self.by_vm(vcpus)

        tracer = _trace._ACTIVE
        if tracer is not None:
            # Observability: the pre-decision sibling lag per SMP VM, the
            # quantity the skew-bound invariant asserts on.
            for vm_id, siblings in vms.items():
                if len(siblings) < 2:
                    continue
                tracer.emit(_trace.SCHED_SKEW, time=timestamp, vm=vm_id,
                            max_lag=max(self._lags(siblings).values()),
                            catching_up=vm_id in self._catching_up)

        # 1. Maintain catch-up mode and self-co-stop leaders.
        leaders: set = set()
        for vm_id, siblings in vms.items():
            if len(siblings) < 2:
                continue
            lags = self._lags(siblings)
            max_lag = max(lags.values())
            if vm_id in self._catching_up:
                if max_lag < self.relax_threshold:
                    self._catching_up.discard(vm_id)
            elif max_lag > self.skew_threshold:
                self._catching_up.add(vm_id)
            if vm_id in self._catching_up:
                slowest = min(
                    self._progress.get(v.vcpu_id, 0.0) for v in siblings
                )
                for view in siblings:
                    lead = self._progress.get(view.vcpu_id, 0.0) - slowest
                    if lead > self.relax_threshold:
                        leaders.add(view.vcpu_id)
                        if view.active:
                            self.stop(view)
                            decided = True

        # 2. Admit newly inactive VCPUs to the FIFO, in dispatch order so
        #    simultaneous timeslice expiries rotate fairly.
        newly_inactive = [
            v
            for v in vcpus
            if (not v.active or v.schedule_out) and v.vcpu_id not in self._queued
        ]
        for view in self.requeue_order(newly_inactive):
            self._queue.append(view.vcpu_id)
            self._queued.add(view.vcpu_id)

        # 3. Dispatch: FIFO order, skipping leaders of catching-up VMs;
        #    opportunistic co-start pulls queued siblings forward.
        stopping = sum(1 for v in vcpus if v.schedule_out and v.active)
        free = self.free_pcpu_count(pcpus) + stopping
        by_id = {view.vcpu_id: view for view in vcpus}
        skipped: List[int] = []
        started: set = set()
        while free > 0 and self._queue:
            vcpu_id = self._queue.popleft()
            view = by_id[vcpu_id]
            if view.active or view.vcpu_id in started:
                self._queued.discard(vcpu_id)
                continue
            if vcpu_id in leaders or view.schedule_out:
                skipped.append(vcpu_id)
                continue
            self._queued.discard(vcpu_id)
            self.start(view)
            started.add(vcpu_id)
            free -= 1
            decided = True
            # Best-effort co-start: bring queued, non-leader siblings along.
            for sibling in vms[view.vm_id]:
                if free == 0:
                    break
                sid = sibling.vcpu_id
                if (
                    sid != vcpu_id
                    and sid in self._queued
                    and sid not in leaders
                    and not sibling.active
                    and not sibling.schedule_out
                    and sid not in started
                ):
                    self._queue.remove(sid)
                    self._queued.discard(sid)
                    self.start(sibling)
                    started.add(sid)
                    free -= 1
        self._queue = deque(skipped + list(self._queue))
        return decided
