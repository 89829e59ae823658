"""The repository's benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-fig8 --seed 1 --seconds 20 --trace 0

Workloads (why each exists: ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``paper-fig8``   the Fig-8 campaign, serial, default engine;
* ``sweep-short``  the Fig-10 grid, short replications, pooled sweep;
* ``service-mixed`` open-loop hit/miss traffic against the job server.

With ``--trace 0`` the run reports the end-to-end metrics, times in
seconds of a reference host speed (``common.SpeedGauge``; the host
seconds are printed as ``info`` lines); with ``--trace 1`` it wraps
every layer's public calls (``tracing.py``) and reports per-layer
metrics instead.  Either way it checks the program's
outputs: per-replication samples of the default seed against
``reference.json``, the paper's Fig-8 claims, cache-hit jobs against the
miss they repeat, and, when traced, outputs and counters against an
untraced run.  Human-readable lines come first; the last line is one
JSON object.  The exit code is 0 only when every operation and check
passed.  ``--record-reference`` rewrites ``reference.json`` instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from typing import Any, Dict, List

from common import (
    DEFAULT_SEED,
    REFERENCE,
    ROOT,
    SRC,
    BenchError,
    Ledger,
    SpeedGauge,
    median,
    peak_rss_mb,
    probe_setup_seconds,
    timed_setups,
)

WORKLOADS = ("paper-fig8", "sweep-short", "service-mixed")

#: Workloads whose program runs serially in this process.  The process
#: is pinned to one core, which the speed gauge then shares: cores of a
#: shared host change speed apart, and a gauge on the program's own core
#: read it twice as well (README.md, "Reference seconds").
SERIAL_WORKLOADS = ("paper-fig8",)

#: End-to-end metrics (every workload reports all of them) and units.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("miss_job_p90_s", "s"),
)


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="repro benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        return record_reference(args)
    if args.workload is None:
        parser.error("--workload is required")

    # SIGTERM unwinds like an error, so every child is stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{time.time_ns()}"
    work.mkdir(parents=True)
    ledger = Ledger()
    gauge = None
    try:
        reference = json.loads(REFERENCE.read_text())[args.workload]
        if args.workload in SERIAL_WORKLOADS:
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        gauge = SpeedGauge(work)  # a child: it shares a pinned core
        report = run_workload(args, work, ledger, reference, gauge)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # ``work`` stays: deleting a run's ~2000 files slowed file
        # creation in the runs after it (README.md, "Files").
        if gauge is not None:
            gauge.stop()
    metrics = report_metrics(args, report, ledger)
    for note in ledger.notes:
        print(note)
    print(
        f"failed_frac = {ledger.failed / ledger.attempted!r} "
        f"({ledger.failed} of {ledger.attempted} operations and checks)"
    )
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if ledger.failed == 0 else 1


def run_workload(args: argparse.Namespace, work: Any, ledger: Ledger,
                 reference: Any, gauge: SpeedGauge) -> Dict[str, Any]:
    trace = bool(args.trace)
    if args.workload == "service-mixed":
        import service_load

        return service_load.run(
            args.seed, args.seconds, trace, work, ledger, reference, gauge
        )

    import campaigns
    from tracing import Recorder, install

    setups = timed_setups(gauge, probe_setup_seconds())
    spool = work / "spool"
    spool.mkdir()
    recorder = Recorder(timed=False, spool=str(spool))
    install(recorder, full=False)
    try:
        context = campaigns.Context(recorder, ledger, work, gauge)
        report = campaigns.run(
            args.workload, args.seed, args.seconds, trace, context, reference
        )
    finally:
        recorder.unpatch()
    report["setups"] = setups
    report["missing"] = recorder.missing
    return report


def report_metrics(args: argparse.Namespace, report: Dict[str, Any],
                   ledger: Ledger) -> Dict[str, Dict[str, Any]]:
    """Print every metric by name and unit; return the JSON metrics."""
    from layers import layer_metrics, per_layer_units

    values: Dict[str, float] = dict(report.get("e2e", {}))
    values["setup_s"] = median([scaled for _host, scaled in report["setups"]])
    values["peak_rss_mb"] = peak_rss_mb(report["children_mb"])
    report.setdefault("info", {})["host_setup_s"] = median(
        [host for host, _scaled in report["setups"]]
    )
    samples = report["samples"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(
        f"samples: {samples['units']} units, {samples['jobs']} jobs "
        f"({samples['miss_jobs']} miss, {samples['hit_jobs']} hit), "
        f"set-up x{len(report['setups'])}"
    )
    for name, value in sorted(report.get("info", {}).items()):
        print(f"info {name} = {value!r}")
    for boundary in report["missing"]:
        print(f"info not measured, the program has no {boundary}")
    units = dict(END_TO_END)
    if args.trace:
        values, problems = layer_metrics(report["totals"], report["extra"])
        for problem in problems:
            ledger.check("per-layer accounting", False, problem)
        units = dict(per_layer_units())
    declared = _declared_metrics(args.trace)
    if declared is not None and set(declared) != set(units):
        raise SystemExit(
            f"BENCHMARK.json lists {sorted(set(declared) ^ set(units))} differently"
        )
    metrics = {}
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    return metrics


def _declared_metrics(trace: int):
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [entry["name"] for entry in spec["per_layer" if trace else "end_to_end"]]


def record_reference(args: argparse.Namespace) -> int:
    """Record the default seed's outputs of every workload."""
    import campaigns
    import service_load
    from tracing import Recorder, install

    work = ROOT / ".perfbench_work" / f"reference-{time.time_ns()}"
    (work / "spool").mkdir(parents=True)
    ledger = Ledger()
    recorded: Dict[str, Any] = {}
    gauge = SpeedGauge(work)
    try:
        recorder = Recorder(timed=False, spool=str(work / "spool"))
        install(recorder, full=False)
        context = campaigns.Context(recorder, ledger, work, gauge)
        for workload in ("paper-fig8", "sweep-short"):
            unit = campaigns.UNIT_FUNCTIONS[workload](context, DEFAULT_SEED)
            recorded[workload] = unit.outputs
        recorder.unpatch()
        report = service_load.run(DEFAULT_SEED, 1.0, False, work, ledger, None, gauge)
        recorded["service-mixed"] = report["reference_outputs"]
    finally:
        gauge.stop()
        shutil.rmtree(work, ignore_errors=True)
    for note in ledger.notes:
        print(note)
    if ledger.failed:
        print("not recording: checks failed", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps(recorded, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
