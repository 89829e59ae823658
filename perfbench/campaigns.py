"""The two in-process workloads: ``paper-fig8`` and ``sweep-short``.

Both repeat one *unit* of work, with root seeds drawn from the workload
seed, until the measured window has run for ``--seconds``:

* ``paper-fig8``: the Fig-8 campaign through ``repro.paper.run_figure8``
  (VMs 2+1+1, PCPUs 1-4 x rrs/scs/rcs, sync 1:5, the paper's 95% CI
  protocol, serial, default engine, no result cache).
* ``sweep-short``: the Fig-10 grid (VM sets 2+2/2+3/2+4 x sync 1:5..1:2 x
  rrs/scs/rcs, 4 PCPUs) through ``run_sweep(sweep_engine="interleaved",
  sweep_jobs=<cores>)`` with short replications, a fixed count per
  point and a fresh result-cache directory per unit.

An operation is one replication; its latency is dispatch to result (the
executor's in-process call on ``paper-fig8``, the sweep's ``progress``
events on ``sweep-short``).
"""

from __future__ import annotations

import multiprocessing
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from common import (
    DEFAULT_SEED,
    NPROC,
    Ledger,
    SpeedGauge,
    estimate_samples,
    first_difference,
    median,
    percentile,
    ratio,
)
from tracing import Recorder, empty_totals, install_layers, merge_totals

#: Fig-8 replication length: long enough that the paper's claims hold.
FIG8_SIZE = {"sim_time": 400, "warmup": 40}

#: sweep-short: short replications, a fixed count per point.
SWEEP_SIZE = {"sim_time": 50, "warmup": 5}
SWEEP_REPLICATIONS = 8

#: Units the window runs at least, however long they take.
MIN_UNITS = 3

FIG8_LABELS = ("VCPU1.1", "VCPU1.2", "VCPU2.1", "VCPU3.1")


@dataclass
class Unit:
    """One unit of work and what the benchmark saw of it.

    ``wall`` is the unit's host seconds and ``factor`` scales them to
    reference seconds (see ``common.SpeedGauge``); ``children_mb`` is
    the summed peak memory of the pool workers that ran it side by side.
    """

    seed: int
    wall: float
    outputs: Dict[str, Any]
    sims: List[Dict[str, Any]]
    latencies: List[float]  # host seconds, one per replication dispatch
    dispatches: int
    retries: int
    batch: Dict[str, int]
    factor: float
    children_mb: float = 0.0
    cache: Optional[Dict[str, Any]] = None
    worker: Dict[str, Any] = field(default_factory=empty_totals)

    @property
    def completions(self) -> int:
        return sum(sim["run"]["completions"] for sim in self.sims)


class Context:
    def __init__(self, recorder: Recorder, ledger: Ledger, work: Any,
                 gauge: SpeedGauge) -> None:
        self.recorder = recorder
        self.ledger = ledger
        self.work = work
        self.gauge = gauge
        self.units_run = 0


# -- paper-fig8 -----------------------------------------------------------------


def fig8_unit(ctx: Context, root_seed: int) -> Unit:
    from repro import paper
    from repro.core import framework

    recorder = ctx.recorder
    sims0, tasks0 = len(recorder.sims), len(recorder.tasks)
    batch0 = framework.batch_dispatch_stats()
    start = time.perf_counter()
    figure = paper.run_figure8(root_seed=root_seed, **FIG8_SIZE)
    end = time.perf_counter()
    batch1 = framework.batch_dispatch_stats()
    tasks = recorder.tasks[tasks0:]
    failures = sum(len(result.failures) for result in figure.results)
    replications = sum(result.replications for result in figure.results)
    ctx.ledger.ops(replications, failures, f"Fig-8 replications, seed {root_seed}")
    for name, ok, detail in fig8_claims(figure):
        ctx.ledger.check(f"fig8 claim: {name} (seed {root_seed})", ok, detail)
    ctx.ledger.check(
        f"fig8: one task per replication (seed {root_seed})",
        len(tasks) == replications,
        f"{len(tasks)} tasks for {replications} replications",
    )
    return Unit(
        seed=root_seed,
        wall=end - start,
        outputs=estimate_samples(
            figure.results,
            lambda r: f"{r.parameters['scheduler']}/pcpus={r.parameters['pcpus']}",
        ),
        sims=recorder.sims[sims0:],
        latencies=tasks,
        dispatches=len(tasks),
        retries=failures,
        batch={key: batch1[key] - batch0[key] for key in batch1},
        factor=ctx.gauge.factor(start, end),
    )


def fig8_claims(figure: Any):
    """The paper's Fig-8 claims (section IV.A), as (name, ok, detail)."""
    from repro.metrics import jain_fairness

    def availability(scheduler: str, pcpus: int, label: str) -> float:
        result = figure.by_params(scheduler=scheduler, pcpus=pcpus)
        return result.mean(f"vcpu_availability[{label}]")

    def fairness(scheduler: str, pcpus: int) -> float:
        return jain_fairness([availability(scheduler, pcpus, l) for l in FIG8_LABELS])

    for pcpus in (1, 2, 3, 4):
        values = [availability("rrs", pcpus, label) for label in FIG8_LABELS]
        yield (
            f"RRS fair at {pcpus} PCPUs",
            max(values) - min(values) < 0.05 and abs(sum(values) - min(4, pcpus)) <= 0.1,
            values,
        )
    starved = [availability("scs", 1, label) for label in FIG8_LABELS]
    yield (
        "SCS starves the 2-VCPU VM at 1 PCPU",
        starved[0] == 0.0 and starved[1] == 0.0 and starved[2] > 0.4,
        starved,
    )
    relaxed = [availability("rcs", 1, label) for label in FIG8_LABELS]
    yield (
        "RCS runs the 2-VCPU VM at 1 PCPU, behind the 1-VCPU VMs",
        relaxed[0] > 0.15
        and (relaxed[0] + relaxed[1]) / 2 <= (relaxed[2] + relaxed[3]) / 2 + 1e-9,
        relaxed,
    )
    yield (
        "RCS >= SCS in fairness at 1 PCPU",
        fairness("rcs", 1) > fairness("scs", 1),
        (fairness("rcs", 1), fairness("scs", 1)),
    )
    for scheduler in ("scs", "rcs"):
        yield (
            f"{scheduler.upper()} fairness improves from 1 to 4 PCPUs",
            fairness(scheduler, 4) >= fairness(scheduler, 1),
            (fairness(scheduler, 1), fairness(scheduler, 4)),
        )
    for scheduler in ("rrs", "scs", "rcs"):
        values = [availability(scheduler, 4, label) for label in FIG8_LABELS]
        yield (
            f"{scheduler.upper()} saturates at 4 PCPUs",
            all(abs(value - 1.0) <= 0.02 for value in values),
            values,
        )


# -- sweep-short ----------------------------------------------------------------


def sweep_grid():
    """The Fig-10 grid as ``run_sweep`` input: base spec, points, mutate."""
    from repro.core.config import SystemSpec, VMSpec, WorkloadSpec
    from repro.paper import (
        FIG9_VM_SETS,
        FIG10_SYNC_RATIOS,
        PAPER_PCPUS,
        PAPER_SCHEDULERS,
    )

    first = next(iter(FIG9_VM_SETS.values()))
    base = SystemSpec(
        vms=[VMSpec(n, WorkloadSpec(sync_ratio=FIG10_SYNC_RATIOS[0])) for n in first],
        pcpus=PAPER_PCPUS,
        scheduler=PAPER_SCHEDULERS[0],
        **SWEEP_SIZE,
    )
    points = [
        {"vm_set": vm_set, "scheduler": scheduler, "sync_ratio": ratio_}
        for ratio_ in FIG10_SYNC_RATIOS
        for vm_set in FIG9_VM_SETS
        for scheduler in PAPER_SCHEDULERS
    ]

    def mutate(spec, other):
        return spec.with_overrides(
            vms=[
                VMSpec(n, WorkloadSpec(sync_ratio=other["sync_ratio"]))
                for n in FIG9_VM_SETS[other["vm_set"]]
            ]
        )

    return base, points, mutate


def sweep_unit(ctx: Context, root_seed: int) -> Unit:
    from repro.core import experiment, framework
    from repro.resilience import ResilienceConfig
    from repro.resilience.result_cache import shared_cache

    recorder = ctx.recorder
    ctx.units_run += 1
    cache_dir = str(ctx.work / f"cache{ctx.units_run}")
    base, points, mutate = sweep_grid()
    events: List[tuple] = []
    counts0 = dict(recorder.counts)
    batch0 = framework.batch_dispatch_stats()
    start = time.perf_counter()
    results = experiment.run_sweep(
        base,
        points,
        mutate=mutate,
        sweep_engine="interleaved",
        sweep_jobs=NPROC,
        min_replications=SWEEP_REPLICATIONS,
        max_replications=SWEEP_REPLICATIONS,
        root_seed=root_seed,
        resilience=ResilienceConfig(cache_dir=cache_dir),
        progress=lambda event: events.append((time.perf_counter(), event)),
    )
    end = time.perf_counter()
    batch1 = framework.batch_dispatch_stats()
    alive = multiprocessing.active_children()
    worker = recorder.collect_spool()
    cache = shared_cache(cache_dir).stats()
    executed = recorder.counts["executed"] - counts0.get("executed", 0)
    hits = recorder.counts["cache_hits"] - counts0.get("cache_hits", 0)

    latencies, dispatches, retries = _dispatch_latencies(events)
    expected = len(points) * SWEEP_REPLICATIONS
    failures = sum(len(result.failures) for result in results)
    ctx.ledger.ops(expected, failures, f"sweep replications, seed {root_seed}")
    ledger = ctx.ledger
    ledger.check(
        f"sweep: every point ran {SWEEP_REPLICATIONS} replications (seed {root_seed})",
        all(result.replications == SWEEP_REPLICATIONS for result in results),
        [result.replications for result in results],
    )
    ledger.check(
        f"sweep: executed == {expected}, 0 cache hits (seed {root_seed})",
        executed == expected and hits == 0,
        (executed, hits),
    )
    ledger.check(
        f"sweep: cache wrote every replication once (seed {root_seed})",
        cache["writes"] == expected and cache["hits"] == 0,
        cache,
    )
    ledger.check(
        f"sweep: one worker record per replication (seed {root_seed})",
        len(worker["sims"]) == expected and len(worker["tasks"]) == expected,
        (len(worker["sims"]), len(worker["tasks"])),
    )
    ledger.check(
        f"sweep: no pool worker left alive (seed {root_seed})",
        not alive,
        [process.pid for process in alive],
    )
    return Unit(
        seed=root_seed,
        wall=end - start,
        outputs=estimate_samples(
            results,
            lambda r: f"{r.parameters['vm_set']}/{r.parameters['scheduler']}"
            f"/1:{r.parameters['sync_ratio']}",
        ),
        sims=worker["sims"],
        latencies=latencies,
        dispatches=dispatches,
        retries=retries,
        batch={key: batch1[key] - batch0[key] for key in batch1},
        factor=ctx.gauge.factor(start, end),
        children_mb=worker["rss_mb"],
        cache=cache,
        worker=worker,
    )


def _dispatch_latencies(events: List[tuple]):
    """Dispatch-to-result seconds per dispatch, from ``progress`` events."""
    open_dispatches: Dict[tuple, float] = {}
    latencies: List[float] = []
    dispatches = retries = 0
    for stamp, event in events:
        key = (event["point"], event["replication"], event["attempt"])
        if event["event"] == "dispatch":
            dispatches += 1
            retries += event["attempt"] > 0
            open_dispatches[key] = stamp
        elif event["event"] == "resolved" and key in open_dispatches:
            latencies.append(stamp - open_dispatches.pop(key))
    return latencies, dispatches, retries


# -- the measured window, shared by both workloads --------------------------------


UNIT_FUNCTIONS: Dict[str, Callable[[Context, int], Unit]] = {
    "paper-fig8": fig8_unit,
    "sweep-short": sweep_unit,
}

#: Pool workers per unit (the in-process executor counts as one).
WORKERS = {"paper-fig8": 1, "sweep-short": NPROC}


def comparable(unit: Unit) -> Dict[str, Any]:
    """What must be ``==`` between a traced and an untraced unit."""
    sims = sorted(
        unit.sims,
        key=lambda sim: (
            sim["scheduler"],
            sim["pcpus"],
            sim["topology"],
            sim["sync"],
            sim["replication"],
        ),
    )
    return {"outputs": unit.outputs, "sims": sims, "batch": unit.batch, "cache": unit.cache}


def run(workload: str, seed: int, seconds: float, trace: bool, ctx: Context,
        reference: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """Reference check, then the measured window; returns the report."""
    unit_fn = UNIT_FUNCTIONS[workload]
    ledger = ctx.ledger
    recorder = ctx.recorder

    # The default seed's unit, untraced: outputs against the reference.
    baseline = unit_fn(ctx, DEFAULT_SEED)
    if reference is not None:
        difference = first_difference(reference, baseline.outputs)
        ledger.check(
            "per-replication samples == reference (default seed)",
            difference is None,
            difference,
        )

    if trace:
        install_layers(recorder)
    recorder.timed = trace
    recorder.reset()
    rng = random.Random(seed)
    # The traced run starts with the default seed again, to compare.
    pending = [DEFAULT_SEED] if trace else []
    units: List[Unit] = []
    with recorder.window():
        start = time.perf_counter()
        while len(units) < MIN_UNITS or time.perf_counter() - start < seconds:
            root_seed = pending.pop() if pending else rng.randrange(1, 2**31)
            units.append(unit_fn(ctx, root_seed))
    recorder.timed = False

    latencies = [value for unit in units for value in unit.latencies]
    report: Dict[str, Any] = {
        "units": units,
        "children_mb": [unit.children_mb for unit in units],
        "samples": {
            "units": len(units),
            "jobs": len(latencies),
            "miss_jobs": len(latencies),
            "hit_jobs": 0,
        },
    }
    if not trace:
        scaled = [value * unit.factor for unit in units for value in unit.latencies]
        report["e2e"] = {
            "wall_s": median([unit.wall * unit.factor for unit in units]),
            "events_per_s": median(
                [unit.completions / (unit.wall * unit.factor) for unit in units]
            ),
            "job_p50_s": percentile(scaled, 0.50),
            "job_p90_s": percentile(scaled, 0.90),
            "miss_job_p90_s": percentile(scaled, 0.90),
        }
        report["info"] = {
            "host_wall_s": median([unit.wall for unit in units]),
            "host_job_p50_s": percentile(latencies, 0.50),
            "host_job_p90_s": percentile(latencies, 0.90),
            "speed_factor": median([unit.factor for unit in units]),
        }
    else:
        traced = units[0]
        difference = first_difference(comparable(baseline), comparable(traced))
        ledger.check(
            "traced outputs, Simulation.stats(), batch_dispatch_stats() and cache "
            "stats == the untraced run",
            difference is None,
            difference,
        )
        totals = recorder.totals()
        for unit in units:
            merge_totals(totals, unit.worker)
        task_seconds = sum(sum(unit.worker["tasks"]) for unit in units) + sum(
            recorder.tasks
        )
        caches = [unit.cache for unit in units if unit.cache is not None]
        looked = sum(c["hits"] + c["misses"] for c in caches)
        report["totals"] = totals
        report["extra"] = {
            "trace_overhead_s": traced.wall - baseline.wall,
            "sweeps.dispatches": sum(unit.dispatches for unit in units),
            "sweeps.worker_busy_frac": ratio(
                task_seconds, WORKERS[workload] * sum(unit.wall for unit in units)
            ),
            "sweeps.dispatch_to_result_p50_s": percentile(latencies, 0.50),
            "sweeps.dispatch_to_result_p90_s": percentile(latencies, 0.90),
            "executor.retries": sum(unit.retries for unit in units),
            "cache.hit_ratio": ratio(sum(c["hits"] for c in caches), looked),
        }
    return report
