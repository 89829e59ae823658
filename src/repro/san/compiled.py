"""The compiled enablement engine: flat-array lowering + tick fast-forward.

The incremental engine (PR 2) made enablement *queries* cheap but still
walks Python object graphs — ``_ActivityState`` instances, per-gate
record lists, dict hops — on every event.  This module lowers the model
once, at construction, into flat parallel arrays indexed by a dense
integer activity index:

* instantaneous activities occupy indices ``0 .. n_inst-1`` in settle
  order (priority, then registration), timed activities follow in
  registration order — so a single index space covers both hot loops;
* per-activity staleness and enablement live in two ``bytearray``s,
  scanned with ``bytearray.find`` (a C-level memchr) instead of a
  Python loop over state objects;
* the cell -> dependent-activities watcher index maps ``id(cell)`` to a
  prebuilt list of integer indices; a completion's written cells are
  collected in a plain set (deduplicated at C speed) and flipped into
  the stale bytes as soon as the completion returns, so there is no
  separate flush pass;
* timed rescheduling walks prebuilt ``(index, activity, key, rng)``
  rows — no attribute lookups or stream-cache probes per event.

Verdicts are cached at activity granularity (the conjunction over the
gates), refreshed under a read sink exactly like the incremental
engine; the same soundness argument applies (pure predicates re-reading
unchanged cells return unchanged verdicts), as do the same conservative
fallbacks (volatile gates and empty observed read sets re-evaluate at
every synchronisation point, out-of-band writes invalidate everything).

On top of the lowered form the engine implements **clock-tick
fast-forward** for models that publish a ``tick_fast_forward`` spec
(see :class:`repro.vmm.vcpu_scheduler.ClockFastForward`): when the
model certifies that the next ``k`` ticks of its deterministic clock
are pure countdown — every PCPU assigned, every holder burning load
(or idling READY) outside critical sections, timeslices and loads at
least ``k`` from expiry, and the plugged algorithm's skip horizon at
least ``k`` — and no other timed event intervenes, the engine fires the
clock ``k`` times in closed form: rewards accumulate per unit interval
with the (provably constant) rate evaluated once, markings receive the
net arithmetic update, the completion counter advances by the exact
per-tick completion count, and the clock is rescheduled at the same
model time it would have reached step by step.  No random stream is
touched (the clock is deterministic and every skipped activity has a
single case), so the sample path — and every reward metric — is
bit-for-bit identical to the other engines.  Traces coalesce the
skipped ticks into one ``engine.fastforward`` record, followed by any
per-tick scheduler records the algorithm re-emits for the span; golden
normalization projects the engine records away (see
:mod:`repro.observability.golden`).
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy

from ..des.random_streams import StreamFactory
from ..errors import ConfigurationError, SimulationError
from ..observability import profile as _profile
from ..observability import trace as _trace
from . import exprs as _exprs
from . import gates as _gates
from . import places as _places
from .activities import Activity, TimedActivity
from .model import ModelBase
from .places import Place
from .simulator import SANSimulator

#: Recognised enablement engines, in documentation order.
ENGINES = ("incremental", "rescan", "compiled", "batch")


def resolve_engine(engine: Optional[str] = None, incremental: bool = True) -> str:
    """Normalise the engine selection, honouring the legacy boolean.

    ``engine`` wins when given; otherwise the legacy ``incremental``
    flag picks between the default engine (``compiled``, bit-identical
    to the others and the fastest on the VMM models) and the
    ``rescan`` reference engine it was introduced to switch off.
    """
    if engine is None:
        return "compiled" if incremental else "rescan"
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown enablement engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def build_simulator(
    model: ModelBase,
    streams: Optional[StreamFactory] = None,
    engine: Optional[str] = None,
    incremental: bool = True,
    max_instantaneous_chain: int = 100_000,
    wave_window: Optional[float] = None,
) -> SANSimulator:
    """Construct the simulator for the selected enablement engine."""
    name = resolve_engine(engine, incremental)
    if name == "batch":
        return BatchCompiledSANSimulator(
            model,
            streams,
            max_instantaneous_chain=max_instantaneous_chain,
            wave_window=wave_window,
        )
    if name == "compiled":
        return CompiledSANSimulator(
            model, streams, max_instantaneous_chain=max_instantaneous_chain
        )
    return SANSimulator(
        model,
        streams,
        max_instantaneous_chain=max_instantaneous_chain,
        incremental=(name == "incremental"),
    )


class CompiledSANSimulator(SANSimulator):
    """SAN simulator running the lowered, index-based enablement engine.

    Args:
        model: the (atomic or composed) model to simulate.
        streams: replication random streams (default: seed 0, rep 0).
        max_instantaneous_chain: livelock guard for zero-time chains.
        fast_forward: honour the model's ``tick_fast_forward`` spec
            (default).  Disable for ablation benchmarks — lowering and
            fast-forward speedups are then separately attributable.
    """

    def __init__(
        self,
        model: ModelBase,
        streams: Optional[StreamFactory] = None,
        max_instantaneous_chain: int = 100_000,
        fast_forward: bool = True,
    ) -> None:
        # The base class with incremental=False gives us the activity
        # lists, queue, reward plumbing and stream bindings without an
        # EnablementCache we would never consult.
        super().__init__(
            model,
            streams,
            max_instantaneous_chain=max_instantaneous_chain,
            incremental=False,
        )
        self.fast_forward = bool(fast_forward)
        self._compile()

    # -- lowering -----------------------------------------------------------

    def _compile(self) -> None:
        acts: List[Activity] = list(self._instantaneous) + list(self._timed)
        self._acts = acts
        n = len(acts)
        self._n_inst = len(self._instantaneous)
        self._act_gates: List[Tuple[Any, ...]] = [
            tuple(activity.input_gates) for activity in acts
        ]
        self._stale = bytearray(b"\x01" * n)
        self._enabled = bytearray(n)
        # Observed/declared read cells per activity, for watcher dedupe.
        self._act_cells: List[set] = [set() for _ in range(n)]
        # id(cell) -> dependent activity indices; _cell_pins keeps the
        # cells alive so ids cannot be recycled.
        self._watchers: Dict[int, List[int]] = {}
        self._cell_pins: Dict[int, Any] = {}
        self._scratch: set = set()
        self._ff_reads: set = set()
        # Cells written by the completion in progress.  A plain set is
        # the dirty sink (C-level add, and a gate function that touches
        # one slot dict five times marks it once); it is propagated to
        # the stale bytes when the completion returns.
        self._written: set = set()
        self.refreshes = 0
        # Activities re-marked stale at every synchronisation point:
        # volatile gates up front, empty observed read sets on demand.
        self._always_inst: List[int] = []
        self._always_timed: List[int] = []
        # Scalar IR fast path: an activity whose every gate carries an
        # expression gets one fused specialized conjunction — no read
        # sink, no per-gate holds() dispatch, no demote-to-volatile
        # (its read set is fully derived).  A fully-constant conjunction
        # (TRUE/FALSE gates) is pinned: refreshed only when explicitly
        # staled, never re-evaluated every settle pass — previously a
        # `lambda: True` gate had an empty observed read set and paid
        # the conservative always-re-evaluate path forever.
        self._ir_preds: List[Optional[Any]] = [None] * n
        self._ir_costs: List[int] = [0] * n
        self._ir_consts: List[Optional[int]] = [None] * n
        for index, activity in enumerate(acts):
            gates = self._act_gates[index]
            if gates and all(g.expr is not None for g in gates):
                verdicts = [g.constant_verdict for g in gates]
                if all(v is not None for v in verdicts):
                    self._ir_consts[index] = 1 if all(verdicts) else 0
                else:
                    self._ir_preds[index] = _exprs.compile_scalar_predicate(
                        _exprs.conjunction([g.expr for g in gates])
                    )
                self._ir_costs[index] = len(gates)
            elif activity.input_gates and activity.is_volatile():
                self._always_for(index).append(index)
            for cell in activity.declared_read_cells():
                self._watch(index, cell)
        # The enablement index as built, before any closure evaluation
        # extends it: reset() restores it, so a reused simulator learns
        # (and counts) exactly what a fresh one would.
        self._built_index = (
            {key: list(dependents) for key, dependents in self._watchers.items()},
            dict(self._cell_pins),
            [set(cells) for cells in self._act_cells],
            list(self._always_inst),
            list(self._always_timed),
        )
        self._bind_compiled_rows()
        # Clock fast-forward: the model publishes the spec (or not).
        spec = getattr(self.model, "tick_fast_forward", None)
        if spec is not None:
            spec.reset()
        self._ff_spec = spec
        self._tick_activity = spec.clock if spec is not None else None
        self._tick_key = (
            self._tick_activity.qualified_name
            if self._tick_activity is not None
            else None
        )

    def _bind_compiled_rows(self) -> None:
        """Timed reschedule rows carrying the index alongside the stream."""
        n_inst = self._n_inst
        self._timed_crows: List[tuple] = [
            (n_inst + offset, activity, key, rng)
            for offset, (activity, key, rng) in enumerate(self._timed_rows)
        ]

    def _always_for(self, index: int) -> List[int]:
        return self._always_inst if index < self._n_inst else self._always_timed

    def _watch(self, index: int, cell: Any) -> None:
        cells = self._act_cells[index]
        if cell in cells:
            return
        cells.add(cell)
        key = id(cell)
        dependents = self._watchers.get(key)
        if dependents is None:
            self._watchers[key] = [index]
            self._cell_pins[key] = cell
        else:
            dependents.append(index)

    # -- engine identity ----------------------------------------------------

    @property
    def engine(self) -> str:
        return "compiled"

    def stats(self) -> Dict[str, Any]:
        stats = super().stats()
        stats["enablement_refreshes"] = self.refreshes
        stats["watched_cells"] = len(self._watchers)
        return stats

    def reset(self, streams: Optional[StreamFactory] = None) -> None:
        super().reset(streams)
        self._bind_compiled_rows()
        self._stale[:] = b"\x01" * len(self._stale)
        self._enabled[:] = bytes(len(self._enabled))
        self._written.clear()  # left over only if a completion raised
        self.refreshes = 0
        watchers, pins, act_cells, always_inst, always_timed = self._built_index
        self._watchers = {key: list(deps) for key, deps in watchers.items()}
        self._cell_pins = dict(pins)
        self._act_cells = [set(cells) for cells in act_cells]
        self._always_inst = list(always_inst)
        self._always_timed = list(always_timed)
        if self._ff_spec is not None:
            self._ff_spec.reset()

    # -- enablement refresh --------------------------------------------------

    def _refresh(self, index: int) -> int:
        """Re-evaluate one activity's gate conjunction, tracking reads.

        Same contract as the incremental engine's refresh: pure
        predicates under a read sink, short-circuit at the first
        non-holding gate (so gate-evaluation counts stay comparable),
        watcher edges extended for newly observed cells — stale edges
        from earlier control paths only ever cause spurious refreshes.
        """
        pred = self._ir_preds[index]
        if pred is not None:
            # Fused IR conjunction (checked first: on the VMM models it
            # is nearly every refresh): reads are derived (already
            # watched), so the read-sink protocol is skipped entirely.
            # The cost is accounted as the gate count — an upper bound,
            # since the generated conjunction short-circuits like holds().
            self.refreshes += 1
            _gates._EVALUATIONS += self._ir_costs[index]
            enabled = 1 if pred() else 0
            self._stale[index] = 0
            self._enabled[index] = enabled
            return enabled
        gates = self._act_gates[index]
        if not gates:
            # Gate-less activities are never enabled (the Activity
            # contract) and their verdict can never change.
            self._stale[index] = 0
            self._enabled[index] = 0
            return 0
        const = self._ir_consts[index]
        if const is not None:
            # Pinned constant conjunction: no evaluation at all, but
            # account the gates so counters stay comparable.
            self.refreshes += 1
            _gates.count_evaluations(self._ir_costs[index])
            self._stale[index] = 0
            self._enabled[index] = const
            return const
        self.refreshes += 1
        scratch = self._scratch
        scratch.clear()
        previous = _places._read_sink
        _places._read_sink = scratch
        try:
            enabled = 1
            for gate in gates:
                if not gate.holds():
                    enabled = 0
                    break
        finally:
            _places._read_sink = previous
        if scratch:
            cells = self._act_cells[index]
            for cell in scratch:
                if cell not in cells:
                    self._watch(index, cell)
        elif not self._act_cells[index]:
            # Nothing observed, nothing declared: the read set cannot
            # be established.  Never guess — re-evaluate at every
            # synchronisation point from now on.
            always = self._always_for(index)
            if index not in always:
                always.append(index)
        self._stale[index] = 0
        self._enabled[index] = enabled
        return enabled

    # -- completions ---------------------------------------------------------

    def _complete(self, activity: Activity) -> None:
        if activity is self._tick_activity:
            self.ticks_fired += 1
        tracer = _trace._ACTIVE
        if tracer is not None:
            self._complete_traced(activity, tracer)
            return
        written = self._written
        previous = _places._dirty_sink
        _places._dirty_sink = written
        try:
            activity.complete(self._rngs[activity])
        finally:
            _places._dirty_sink = previous
        if written:
            self._mark_stale(written)
        self._completions += 1
        if self._impulse_rewards:
            self._notify_impulse(activity)

    def _mark_stale(self, written: set) -> None:
        """Stale every activity watching a written cell; empties the set."""
        watchers = self._watchers
        stale = self._stale
        for cell in written:
            dependents = watchers.get(id(cell))
            if dependents is not None:
                for index in dependents:
                    stale[index] = 1
        written.clear()

    def _complete_traced(self, activity: Activity, tracer: "_trace.SimTracer") -> None:
        tracer._now = self.clock.now
        written: set = set()
        previous = _places._dirty_sink
        _places._dirty_sink = written
        try:
            activity.complete(self._rngs[activity])
        finally:
            _places._dirty_sink = previous
        names = self._write_names(written)
        self._mark_stale(written)
        tracer.emit(
            _trace.ACTIVITY_FIRE,
            time=self.clock.now,
            activity=activity.qualified_name,
            timed=isinstance(activity, TimedActivity),
            writes=names,
        )
        self._completions += 1
        self._notify_impulse(activity)

    # -- settle / reschedule --------------------------------------------------

    def _settle_instantaneous(self) -> None:
        """Lowered settle: memchr scans over the stale/enabled arrays.

        Invariant exploited by the scan: indices below the cursor are
        fresh and disabled, so the first set byte in either array —
        whichever comes first — decides without touching state objects.
        Fused IR conjunctions — nearly every refresh on the VMM models —
        are evaluated inline (the body of :meth:`_refresh`'s IR branch,
        with its counters summed locally and added back on exit).
        """
        stale = self._stale
        enabled = self._enabled
        acts = self._acts
        n = self._n_inst
        always = self._always_inst
        refresh = self._refresh
        complete = self._complete
        ir_preds = self._ir_preds
        ir_costs = self._ir_costs
        ir_refreshes = 0
        ir_evaluations = 0
        chain = 0
        try:
            while True:
                for index in always:
                    stale[index] = 1
                fired = -1
                cursor = 0
                while True:
                    first_stale = stale.find(1, cursor, n)
                    if first_stale == -1:
                        fired = enabled.find(1, cursor, n)
                        break
                    if first_stale > cursor:
                        first_enabled = enabled.find(1, cursor, first_stale)
                        if first_enabled != -1:
                            fired = first_enabled
                            break
                    pred = ir_preds[first_stale]
                    if pred is not None:
                        ir_refreshes += 1
                        ir_evaluations += ir_costs[first_stale]
                        stale[first_stale] = 0
                        if pred():
                            enabled[first_stale] = 1
                            fired = first_stale
                            break
                        enabled[first_stale] = 0
                    elif refresh(first_stale):
                        fired = first_stale
                        break
                    cursor = first_stale + 1
                if fired == -1:
                    return
                fired_activity = acts[fired]
                complete(fired_activity)
                chain += 1
                if chain > self.max_instantaneous_chain:
                    raise self._chain_error(fired_activity)
        finally:
            self.refreshes += ir_refreshes
            _gates._EVALUATIONS += ir_evaluations

    def _reschedule_timed(self) -> None:
        stale = self._stale
        enabled = self._enabled
        for index in self._always_timed:
            stale[index] = 1
        pending_map = self._pending
        queue = self._queue
        now = self.clock.now
        tracer = _trace._ACTIVE
        refresh = self._refresh
        for index, activity, key, rng in self._timed_crows:
            is_enabled = refresh(index) if stale[index] else enabled[index]
            pending = pending_map.get(key)
            if pending is not None:
                if not is_enabled:
                    queue.cancel(pending)
                    del pending_map[key]
                    if tracer is not None:
                        tracer.emit(_trace.ENGINE_CANCEL, time=now, activity=key)
                elif activity.reactivation:
                    queue.cancel(pending)
                    delay = activity.sample_delay(rng)
                    pending_map[key] = queue.schedule(now + delay, activity)
                    if tracer is not None:
                        tracer.emit(_trace.ENGINE_SCHEDULE, time=now,
                                    activity=key, at=now + delay)
            elif is_enabled:
                delay = activity.sample_delay(rng)
                pending_map[key] = queue.schedule(now + delay, activity)
                if tracer is not None:
                    tracer.emit(_trace.ENGINE_SCHEDULE, time=now,
                                activity=key, at=now + delay)

    # -- out-of-band mutation boundary ----------------------------------------

    def _sync_in(self) -> None:
        if _places.write_epoch() != self._synced_epoch:
            # Out-of-band writes: distrust every cached verdict.  The
            # watcher index stays — stale edges cause only spurious
            # refreshes, never missed invalidations.
            self._stale[:] = b"\x01" * len(self._stale)

    def _sync_out(self) -> None:
        self._synced_epoch = _places.write_epoch()

    # -- clock fast-forward ----------------------------------------------------

    def _try_fast_forward(self, head, until: float, spec) -> int:
        """Coalesce up to ``k`` clock ticks; returns the ticks skipped.

        Called at quiescence with the clock completion at the queue
        head.  Three bounds apply: the run horizon (the last coalesced
        tick must fall strictly before ``until``), the earliest other
        pending timed event (the span may not cross it — an event *at*
        tick ``j`` still wins its tie-break against the re-scheduled
        clock, exactly as step-by-step, because the fresh clock event
        always carries the younger sequence number), and the model's
        own certificate :meth:`max_skip`, capped by the first two
        (evaluated under a read sink: pure observation).
        Fast-forwarding fewer than 2 ticks buys nothing, so the
        ordinary step runs instead.
        """
        t_first = head.time
        k = math.ceil(until - t_first + 1.0) - 1
        if k < 2:
            return 0
        pending = self._pending
        if len(pending) > 1:
            tick_key = self._tick_key
            horizon = min(
                event.time for key, event in pending.items() if key != tick_key
            )
            bound = math.ceil(horizon - t_first + 1.0) - 1
            if bound < k:
                k = bound
                if k < 2:
                    return 0
        previous = _places._read_sink
        _places._read_sink = self._ff_reads
        try:
            model_bound = spec.max_skip(k)
        finally:
            _places._read_sink = previous
        self._ff_reads.clear()
        if model_bound < k:
            k = model_bound
            if k < 2:
                return 0
        # Commit: pop the clock completion, batch the span, reschedule.
        event = self._queue.pop()
        del pending[self._tick_key]
        self._advance_rewards(t_first)
        self._advance_rewards_constant(t_first, k - 1)
        self.clock.advance_to(t_first + (k - 1))
        skipped_completions = k * spec.per_tick_completions
        # The span record goes first: apply() lets the algorithm emit
        # the per-tick records (rcs's sched.skew) of the ticks it skips.
        tracer = _trace._ACTIVE
        if tracer is not None:
            tracer.emit(
                _trace.ENGINE_FASTFORWARD,
                time=t_first,
                ticks=k,
                completions=skipped_completions,
            )
        written = self._written
        previous = _places._dirty_sink
        _places._dirty_sink = written
        try:
            spec.apply(k)
        finally:
            _places._dirty_sink = previous
            self._mark_stale(written)
        self._completions += skipped_completions
        self.ticks_fast_forwarded += k
        pending[self._tick_key] = self._queue.schedule(t_first + k, event.payload)
        return k

    def _advance_rewards_constant(self, start: float, steps: int) -> None:
        """Per-unit-interval reward accumulation over a frozen state."""
        if steps > 0 and self._rate_rewards:
            previous = _places._read_sink
            _places._read_sink = self._reward_reads
            try:
                for reward in self._rate_rewards:
                    reward.observe_constant(start, steps)
            finally:
                _places._read_sink = previous

    def run(self, until: float) -> None:
        """Run until ``until``, fast-forwarding idle clock spans.

        Identical contract to the base ``run``; impulse rewards see
        every completion individually, so their presence disables
        fast-forward for the whole run (the countdown ticks the span
        skips *do* complete activities an impulse reward could match).
        ``step()`` never fast-forwards — single-stepping is a debugging
        surface and must show every event.
        """
        if until < self.clock.now:
            raise SimulationError(
                f"cannot run to t={until}: clock is already at {self.clock.now}"
            )
        fired_before = self.ticks_fired
        skipped_before = self.ticks_fast_forwarded
        declines_before = self._declines_snapshot()
        self._sync_in()
        eval_base = _gates._EVALUATIONS
        try:
            self._ensure_started()
            queue = self._queue
            spec = (
                self._ff_spec
                if self.fast_forward
                and self._ff_spec is not None
                and not self._impulse_rewards
                else None
            )
            tick = self._tick_activity
            while True:
                head = queue.peek()
                if head is None or head.time >= until:
                    break
                if spec is not None and head.payload is tick:
                    if self._try_fast_forward(head, until, spec):
                        continue
                self._step()
            self._advance_rewards(until)
            self.clock.advance_to(until)
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - eval_base
            profiler = _profile._ACTIVE
            if profiler is not None:
                profiler.count(
                    "engine.ticks_fired", self.ticks_fired - fired_before
                )
                profiler.count(
                    "engine.ticks_fast_forwarded",
                    self.ticks_fast_forwarded - skipped_before,
                )
                self._count_declines(profiler, declines_before)
            self._sync_out()

    def _declines_snapshot(self) -> Dict[str, int]:
        spec = self._ff_spec
        return dict(spec.declines) if spec is not None else {}

    def _count_declines(self, profiler, before: Dict[str, int]) -> None:
        """Add this run's fast-forward declines to the profiler counters."""
        if self._ff_spec is None:
            return
        for reason, count in self._ff_spec.declines.items():
            delta = count - before.get(reason, 0)
            if delta:
                profiler.count("engine.ff_declined." + reason, delta)


# -- replication-batched execution --------------------------------------------


class BatchCompiledSANSimulator(CompiledSANSimulator):
    """Compiled engine lane that can run inside a shared batch calendar.

    One instance simulates one replication with exactly the compiled
    engine's lowered state and sample path — the subclass only exposes
    the engine loop as three lane hooks (begin / drain-window / finish)
    so that :func:`run_lanes` can interleave R replications of the same
    spec through a single structure-of-arrays calendar.  Each lane keeps
    its own marking, event wheel and per-replication
    :class:`~repro.des.random_streams.StreamFactory`, so the batch is
    bit-for-bit identical to running the lanes one after the other; the
    shared calendar only chooses *which* lane steps next (ascending lane
    order within a wave — lanes are independent, so any order would
    yield the same per-lane path).

    Standing alone (``build_simulator(engine="batch")``), the instance
    is a single-lane batch: ``run`` drives the same wave loop with one
    entry, so every differential test of the serial API also exercises
    the batch driver.

    Args:
        wave_window: interleaving window width in clock periods for the
            shared calendar (default: the module's ``WAVE_WINDOW``).
            Lanes are independent, so any positive width is correct —
            this only tunes cache locality vs switching granularity.
    """

    def __init__(
        self,
        model: ModelBase,
        streams: Optional[StreamFactory] = None,
        max_instantaneous_chain: int = 100_000,
        fast_forward: bool = True,
        wave_window: Optional[float] = None,
    ) -> None:
        super().__init__(
            model,
            streams,
            max_instantaneous_chain=max_instantaneous_chain,
            fast_forward=fast_forward,
        )
        if wave_window is None:
            self.wave_window = WAVE_WINDOW
        else:
            window = float(wave_window)
            if not (window > 0.0):
                raise ConfigurationError(
                    f"batch wave window must be positive, got {wave_window!r}"
                )
            self.wave_window = window

    @property
    def engine(self) -> str:
        return "batch"

    def run(self, until: float) -> None:
        run_lanes((self,), until)

    # -- lane protocol (driven by run_lanes) ---------------------------------

    def _begin_lane_run(self, until: float) -> float:
        """Enter the run: sync, settle the initial marking, arm FF.

        Returns the lane's head-event time (``inf`` on an empty wheel)
        for the shared calendar.
        """
        if until < self.clock.now:
            raise SimulationError(
                f"cannot run to t={until}: clock is already at {self.clock.now}"
            )
        self._lane_fired_before = self.ticks_fired
        self._lane_skipped_before = self.ticks_fast_forwarded
        self._lane_declines_before = self._declines_snapshot()
        self._sync_in()
        base = _gates._EVALUATIONS
        try:
            self._ensure_started()
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - base
        self._lane_ff = (
            self._ff_spec
            if self.fast_forward
            and self._ff_spec is not None
            and not self._impulse_rewards
            else None
        )
        head = self._queue.peek()
        return head.time if head is not None else math.inf

    def _drain_window(self, boundary: float, until: float) -> Tuple[float, int]:
        """Process every head event before ``boundary`` (<= ``until``).

        Returns ``(new_head_time, steps)`` for the shared calendar.
        The loop body mirrors ``CompiledSANSimulator.run`` exactly, so a
        single lane replays the serial event order; running it per
        window (not per event) keeps the wave driver's overhead off the
        hot path.  Fast-forward may legally overshoot the window — the
        lane just re-enters the calendar at the far end of the span.
        """
        peek = self._queue.peek
        step = self._step
        tick = self._tick_activity
        spec = self._lane_ff
        steps = 0
        base = _gates._EVALUATIONS
        try:
            while True:
                head = peek()
                if head is None:
                    return math.inf, steps
                time = head.time
                if time >= boundary:
                    return time, steps
                if spec is None or head.payload is not tick:
                    step()
                elif not self._try_fast_forward(head, until, spec):
                    step()
                steps += 1
        finally:
            self._own_gate_evaluations += _gates._EVALUATIONS - base

    def _settle_lane_run(self, until: float) -> None:
        """Advance rewards and the clock to the horizon (success path)."""
        self._advance_rewards(until)
        self.clock.advance_to(until)

    def _finish_lane_run(self) -> None:
        """Leave the run (always): profiler deltas + epoch sync."""
        profiler = _profile._ACTIVE
        if profiler is not None:
            profiler.count(
                "engine.ticks_fired", self.ticks_fired - self._lane_fired_before
            )
            profiler.count(
                "engine.ticks_fast_forwarded",
                self.ticks_fast_forwarded - self._lane_skipped_before,
            )
            self._count_declines(profiler, self._lane_declines_before)
        self._sync_out()


#: Wave window width, in clock periods (the framework's Clocks tick at
#: unit cadence).  Lanes are mutually independent, so any window is
#: correct — the width only sets interleaving granularity.  A window of
#: a few ticks lets each lane run a cache-hot burst (its tick pipelines
#: plus the stochastic firings scheduled inside the window) before the
#: driver hops to the next lane, and amortizes the per-wave calendar
#: overhead over many events; measured on the Figure 8 shape, 16 ticks
#: is past the knee and single-tick windows give up a few percent to
#: cross-lane cache thrash.
WAVE_WINDOW = 16.0


def run_lanes(
    lanes: Sequence[BatchCompiledSANSimulator],
    until: float,
    window: Optional[float] = None,
) -> Dict[str, int]:
    """Drive R lanes to ``until`` off one shared numpy calendar.

    When every lane's model carries a fully-IR form — all gates carry
    vectorizable expressions and effects, all rewards vectorizable
    rates (see :mod:`repro.san.vector`) — the driver hands the whole
    batch to the vectorized kernel runner, which advances all R lanes
    per Python-level step through one ``(R, n_places)`` int64 matrix
    and returns bit-identical per-lane results.  Models with any
    closure gate (the VMM scheduler models, whose scheduling function
    is irreducibly procedural) fall back to the wave loop below.

    The wave calendar is a ``(R,)`` float64 vector of per-lane
    head-event times.  Each wave takes the global minimum ``t`` and
    advances every lane whose head falls inside the window
    ``[t, t + window)`` (in ascending lane order), draining the lane's
    events up to the window edge before moving on, so lanes whose
    deterministic Clocks align — the common case, every tick lands on
    integer time — execute their tick pipelines back to back with the
    interpreter's caches hot.  Lanes are independent, so the window
    width (default: lane 0's ``wave_window`` knob) affects only
    interleaving granularity, never any lane's sample path.  Per-lane
    fast-forward still engages: a lane that certifies an idle span
    simply re-enters the calendar at the far end of the span.

    Returns wave/step counters (``waves``, ``lane_steps``) for benches
    and stats; correctness never depends on them.
    """
    if not lanes:
        return {"waves": 0, "lane_steps": 0}
    from . import vector as _vector  # deferred: vector imports this module

    plan = _vector.plan_lanes(lanes)
    if plan is not None:
        return _vector.run_vectorized(plan, lanes, until)
    if window is None:
        window = getattr(lanes[0], "wave_window", WAVE_WINDOW)
    waves = 0
    lane_steps = 0
    begun: List[BatchCompiledSANSimulator] = []
    try:
        heads = numpy.empty(len(lanes), dtype=numpy.float64)
        for index, lane in enumerate(lanes):
            heads[index] = lane._begin_lane_run(until)
            begun.append(lane)
        while True:
            t = heads.min()
            if t >= until:
                break
            waves += 1
            # Events at exactly the window edge wait for the next wave,
            # and the edge never exceeds the horizon, so every drained
            # event is strictly before ``until``.
            boundary = min(t + window, until)
            for index in numpy.nonzero(heads < boundary)[0]:
                head, steps = lanes[index]._drain_window(boundary, until)
                lane_steps += steps
                heads[index] = head
        for lane in lanes:
            lane._settle_lane_run(until)
    finally:
        for lane in begun:
            lane._finish_lane_run()
    return {"waves": waves, "lane_steps": lane_steps}


def place_matrix(lanes: Sequence[BatchCompiledSANSimulator]) -> "numpy.ndarray":
    """Structure-of-arrays snapshot: ``(R, n_places)`` int64 token counts.

    Rows are lanes, columns are the token places of the (shared) model
    shape in name order — extended places hold arbitrary Python values
    and are excluded.  Lanes must share a spec; a lane whose place names
    differ from lane 0's raises :class:`ConfigurationError`.
    """
    if not lanes:
        return numpy.zeros((0, 0), dtype=numpy.int64)
    names = [
        name
        for name, place in sorted(lanes[0].model.places().items())
        if isinstance(place, Place)
    ]
    matrix = numpy.empty((len(lanes), len(names)), dtype=numpy.int64)
    for row, lane in enumerate(lanes):
        places = lane.model.places()
        try:
            for col, name in enumerate(names):
                matrix[row, col] = places[name].tokens
        except KeyError as exc:
            raise ConfigurationError(
                f"lane {row} does not share lane 0's place layout: missing {exc}"
            ) from None
    return matrix
