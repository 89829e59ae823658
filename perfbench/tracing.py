"""Benchmark-side layer timing: wrappers around repro's public calls.

Nothing here lives in the program.  :class:`Recorder` replaces the
public functions and methods at each layer boundary (the module
attribute a caller actually looks up, or the class method) with a
wrapper that

* in ``timed`` mode keeps a per-thread span stack and charges each span
  its *self* time (its duration minus the time its child spans cover),
  so the per-layer totals never double-count; and
* in every mode records, once per replication, ``Simulation.stats()``
  plus the replication's identity (what the traced and the untraced
  run are compared on), and the duration of each replication task.

An untraced run installs only the wrappers of the second kind
(``install(recorder, full=False)``); the layer spans are installed for
the traced window alone.  A boundary the program no longer has is
skipped and listed in :attr:`Recorder.missing` instead of failing the
run.

Pool workers are forked from the benchmark process and inherit the
wrappers.  A worker notices the fork by its process id, starts from an
empty state, and appends what it recorded to ``<spool>/w<pid>.jsonl``
after every replication task; :meth:`Recorder.collect_spool` folds
those lines back in.  The service's server process keeps its own
recorder and writes its :meth:`Recorder.totals` out when it stops.

A thread's *timeline* is the interval its work spans: the traced window
for the benchmark's own thread, first to last top-level call for a pool
worker or the server's job thread.  The part of the timelines that no
span covers is charged to ``unaccounted``, so the self times add up to
the summed timelines exactly.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from common import own_rss_mb


class _ThreadState:
    def __init__(self) -> None:
        self.stack: List[float] = []  # child seconds, one slot per open span
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.first: Optional[float] = None  # first top-level span start
        self.last: Optional[float] = None  # last top-level span end
        self.top_s = 0.0  # summed top-level span durations
        self.scheduler = "-"  # scheduler of the replication running here


class Recorder:
    """Span and counter store for one process.

    Args:
        timed: charge span self times (the traced run).  ``False`` keeps
            only the per-replication records.
        spool: directory forked workers append their records to.
    """

    def __init__(self, timed: bool, spool: Optional[str] = None) -> None:
        self.timed = timed
        self.spool = spool
        self.parent_pid = os.getpid()
        self._patches: List[tuple] = []
        self.missing: List[str] = []  # boundaries the program does not have
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        """Drop everything recorded so far (the wrappers stay)."""
        self.pid = os.getpid()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._local = threading.local()
        self.sims: List[Dict[str, Any]] = []  # one record per replication
        self.tasks: List[float] = []  # replication task durations, seconds
        self.timelines: List[float] = []  # closed traced windows, seconds
        self.counts: Dict[str, int] = defaultdict(int)  # executor outcomes
        self._spool_file = None

    def _thread(self) -> _ThreadState:
        if os.getpid() != self.pid:  # forked worker: forget the parent's state
            self.reset()
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    # -- spans ---------------------------------------------------------------

    def span(self, name: Any, fn: Callable, task: bool = False) -> Callable:
        """Wrap ``fn`` in a span named ``name`` (or ``name(state)``).

        ``task`` marks a replication task: its duration is recorded in
        every mode, and a forked worker flushes after it.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not (task or recorder.timed):
                return fn(*args, **kwargs)
            state = recorder._thread()
            start = time.perf_counter()
            if recorder.timed:
                state.stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                if recorder.timed:
                    label = name(state) if callable(name) else name
                    child = state.stack.pop()
                    state.self_s[label] += elapsed - child
                    state.calls[label] += 1
                    if state.stack:
                        state.stack[-1] += elapsed
                    else:
                        if state.first is None:
                            state.first = start
                        state.last = end
                        state.top_s += elapsed
                if task:
                    recorder.tasks.append(elapsed)
                    if recorder.spool is not None and os.getpid() != recorder.parent_pid:
                        recorder.flush()

        return wrapper

    def window(self) -> "_Window":
        """Context manager: the traced window of the calling thread."""
        return _Window(self)

    # -- patching ------------------------------------------------------------

    def current(self, owner: Any, attr: str) -> Optional[Callable]:
        """``owner.attr`` as callers find it, or ``None`` (then listed in
        :attr:`missing`) when the program no longer has it."""
        found = getattr(owner, attr, None)
        if found is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return found

    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        """Replace ``owner.attr`` (undone by :meth:`unpatch`).

        On a class the wrapper goes on the class itself even when the
        method is inherited; :meth:`unpatch` then removes it again.
        """
        own = vars(owner).get(attr, _INHERITED) if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, own))
        setattr(owner, attr, wrapper)

    def wrap(self, owner: Any, attr: str, name: Any, task: bool = False) -> None:
        """Patch ``owner.attr`` with a span around its current value."""
        found = self.current(owner, attr)
        if found is not None:
            self.patch(owner, attr, self.span(name, _unbound(owner, attr, found), task=task))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- totals across threads and processes ---------------------------------

    def totals(self) -> Dict[str, Any]:
        """This process's records: self seconds, calls, timelines, sims."""
        self_s: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        timelines = list(self.timelines)
        for state in self._threads:
            for key, value in state.self_s.items():
                self_s[key] += value
            for key, value in state.calls.items():
                calls[key] += value
            if state.first is not None:
                # Gaps between top-level calls: the thread was idle.
                timelines.append(state.last - state.first)
                self_s["unaccounted"] += (state.last - state.first) - state.top_s
        return {
            "self_s": dict(self_s),
            "calls": dict(calls),
            "timelines": timelines,
            "sims": list(self.sims),
            "tasks": list(self.tasks),
            "counts": dict(self.counts),
        }

    def flush(self) -> None:
        """Forked worker: append what was recorded since the last flush."""
        state = self._thread()
        part = self.totals()
        # The reader rebuilds this worker's timeline from the bounds of
        # all its lines, so ship bounds and busy time, not a length.
        part["timelines"] = []
        part["self_s"].pop("unaccounted", None)
        part["bounds"] = [state.first, state.last]
        part["top_s"] = state.top_s
        part["rss_mb"] = own_rss_mb()
        if self._spool_file is None:
            path = os.path.join(self.spool, f"w{os.getpid()}.jsonl")
            self._spool_file = open(path, "a", encoding="utf-8")
        self._spool_file.write(json.dumps(part) + "\n")
        self._spool_file.flush()
        for thread in self._threads:
            thread.self_s.clear()
            thread.calls.clear()
            thread.top_s = 0.0
        self.sims.clear()
        self.tasks.clear()
        self.counts.clear()

    def collect_spool(self) -> Dict[str, Any]:
        """Read and delete every worker record written so far."""
        merged = empty_totals()
        if self.spool is None or not os.path.isdir(self.spool):
            return merged
        for entry in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, entry)
            bounds: List[float] = []
            busy = rss = 0.0
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    part = json.loads(line)
                    bounds.extend(b for b in part.pop("bounds") if b is not None)
                    busy += part.pop("top_s")
                    rss = max(rss, part.pop("rss_mb"))
                    merge_totals(merged, part)
            merged["rss_mb"] += rss  # the workers run side by side
            if bounds:
                timeline = max(bounds) - min(bounds)
                merged["timelines"].append(timeline)
                unaccounted = merged["self_s"].get("unaccounted", 0.0)
                merged["self_s"]["unaccounted"] = unaccounted + timeline - busy
            merged["workers"] += 1
            os.remove(path)
        return merged



class _Window:
    """The benchmark thread's traced window; uncovered time is unaccounted."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self.seconds = 0.0

    def __enter__(self) -> "_Window":
        state = self.recorder._thread()
        if state.stack:
            raise RuntimeError("a traced window must not open inside a span")
        state.stack.append(0.0)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.seconds = time.perf_counter() - self._start
        state = self.recorder._thread()
        covered = state.stack.pop()
        state.self_s["unaccounted"] += self.seconds - covered
        self.recorder.timelines.append(self.seconds)


#: Marks a patched class attribute that was inherited, not the class's own.
_INHERITED = object()


def _unbound(owner: Any, attr: str, found: Any) -> Any:
    """The plain function behind a method, so the wrapper binds like it."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return vars(klass)[attr]
    return found


def empty_totals() -> Dict[str, Any]:
    return {
        "self_s": {},
        "calls": {},
        "timelines": [],
        "sims": [],
        "tasks": [],
        "counts": {},
        "workers": 0,
        "rss_mb": 0.0,
    }


def merge_totals(into: Dict[str, Any], part: Dict[str, Any]) -> Dict[str, Any]:
    """Add ``part``'s records to ``into`` (both in :meth:`totals` form)."""
    for field in ("self_s", "calls", "counts"):
        for key, value in part.get(field, {}).items():
            into[field][key] = into[field].get(key, 0) + value
    for field in ("timelines", "sims", "tasks"):
        into[field].extend(part.get(field, []))
    into["workers"] = into.get("workers", 0) + part.get("workers", 0)
    return into


# -- the layer boundaries ------------------------------------------------------

#: Scheduler classes of the paper's three algorithms, by registry name.
PAPER_SCHEDULER_CLASSES = {
    "rrs": ("repro.schedulers.round_robin", "RoundRobinScheduler"),
    "scs": ("repro.schedulers.strict_co", "StrictCoScheduler"),
    "rcs": ("repro.schedulers.relaxed_co", "RelaxedCoScheduler"),
}


def install(recorder: Recorder, full: bool) -> None:
    """Wrap the layer boundaries the benchmark measures.

    Every run records each replication (``Simulation.run``), each
    replication task's duration and the executor's outcomes; ``full``
    adds the layer spans of the traced run.
    """
    from repro.core import experiment, framework, sweeps

    recorder.wrap(framework, "simulate_once", "core.sim_setup", task=True)
    recorder.wrap(framework, "simulate_batch", "core.sim_setup", task=True)
    _wrap_simulation_run(recorder, framework.Simulation)
    _count_outcomes(recorder, experiment, "run_replications", lambda out: out)
    _count_outcomes(recorder, sweeps, "run_interleaved_sweep", lambda out: out.stats)
    if full:
        install_layers(recorder)


def install_layers(recorder: Recorder) -> None:
    """The layer spans: only what the traced run reports needs them."""
    import importlib

    from repro import paper
    from repro.core import experiment, framework, sweeps
    from repro.metrics.stats import ConvergenceMonitor
    from repro.resilience.result_cache import ResultCache
    from repro.san import compiled, reward, simulator

    # repro.core: campaign, sweep, experiment and replication entry points.
    recorder.wrap(paper, "run_figure8", "core.sweep")
    recorder.wrap(paper, "run_sweep", "core.sweep")
    recorder.wrap(experiment, "run_sweep", "core.sweep")
    recorder.wrap(sweeps, "run_interleaved_sweep", "core.sweep")
    recorder.wrap(experiment, "run_experiment", "core.experiment")
    recorder.wrap(framework.Simulation, "__init__", "core.sim_setup")
    # repro.resilience: the replication executor and the result cache.
    recorder.wrap(experiment, "run_replications", "executor")
    recorder.wrap(ResultCache, "load", "cache.load")
    recorder.wrap(ResultCache, "store", "cache.store")
    # repro.vmm / repro.san / repro.metrics: what a Simulation builds.
    recorder.wrap(framework, "build_virtual_system", "vmm.build")
    recorder.wrap(framework, "build_simulator", "san.build")
    recorder.wrap(framework, "standard_rewards", "metrics.rewards")
    for cls in (reward.RateReward, reward.RatioRateReward, reward.ImpulseReward):
        recorder.wrap(cls, "result", "metrics.rewards")
    recorder.wrap(ConvergenceMonitor, "push", "metrics.stats")
    recorder.wrap(ConvergenceMonitor, "distance", "metrics.stats")
    # repro.san + repro.des: the engine run loop, split by scheduler.  A
    # subclass that inherits run/reset runs its base's (already wrapped).
    for cls in (
        simulator.SANSimulator,
        compiled.CompiledSANSimulator,
        compiled.BatchCompiledSANSimulator,
    ):
        if "run" in vars(cls):
            recorder.wrap(cls, "run", lambda state: f"san.run.{state.scheduler}")
        if "reset" in vars(cls):
            recorder.wrap(cls, "reset", "san.reset")
    # repro.schedulers: the decision each tick's Scheduling_Func asks for.
    for label, (module, name) in PAPER_SCHEDULER_CLASSES.items():
        cls = getattr(importlib.import_module(module), name)
        recorder.wrap(cls, "schedule", f"schedulers.decide.{label}")


def install_service(recorder: Recorder, full: bool) -> None:
    """The server module binds the sweep entry point at import time."""
    from repro.service import server

    _count_outcomes(recorder, server, "run_interleaved_sweep", lambda out: out.stats)
    if full:
        recorder.wrap(server, "run_interleaved_sweep", "core.sweep")


def _wrap_simulation_run(recorder: Recorder, cls: type) -> None:
    original = recorder.current(cls, "run")
    if original is None:
        return
    timed_run = recorder.span("core.sim_run", _unbound(cls, "run", original))

    @functools.wraps(original)
    def run(sim, *args, **kwargs):
        state = recorder._thread()
        before = sim.stats()
        previous, state.scheduler = state.scheduler, sim.spec.scheduler
        try:
            result = timed_run(sim, *args, **kwargs)
        finally:
            state.scheduler = previous
        after = sim.stats()
        with recorder._lock:
            recorder.sims.append(
                {
                    "scheduler": sim.spec.scheduler,
                    "pcpus": sim.spec.pcpus,
                    "topology": [vm.vcpus for vm in sim.spec.vms],
                    "sync": [vm.workload.sync_ratio for vm in sim.spec.vms],
                    "replication": sim.replication,
                    "root_seed": sim.root_seed,
                    "stats": after,
                    # Queue counters live as long as a reused model, so
                    # this replication's share is the difference.
                    "run": {
                        key: value - before[key]
                        for key, value in after.items()
                        if isinstance(value, int) and key in before
                    },
                }
            )
        return result

    recorder.patch(cls, "run", run)


def _count_outcomes(recorder: Recorder, owner: Any, attr: str, stats_of: Callable) -> None:
    """Add each call's ``executed`` / ``cache_hits`` to the counters."""
    original = recorder.current(owner, attr)
    if original is None:
        return

    @functools.wraps(original)
    def counted(*args, **kwargs):
        outcome = original(*args, **kwargs)
        stats = stats_of(outcome)
        with recorder._lock:
            recorder.counts["executed"] += stats.executed
            recorder.counts["cache_hits"] += stats.cache_hits
        return outcome

    recorder.patch(owner, attr, counted)
