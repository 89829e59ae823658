"""The service workload's server process.

Runs one :class:`repro.service.SimulationServer` with the default
:class:`ServiceConfig` (one job thread) and a result-cache directory,
prints ``port <n>`` once it listens, and serves until SIGTERM.  It then
drains, checks that it leaves no child process behind, and writes its
layer records (see ``tracing.py``), each job run's times and its peak
memory to ``--dump``.

Usage: ``python3 perfbench/serve.py --cache-dir DIR --dump FILE --trace 0|1``
(with the repository's ``src`` on ``PYTHONPATH``).
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json
import multiprocessing
import resource
import signal
import sys
import time
from typing import List, Tuple

from tracing import Recorder, install, install_service


def time_job_runs(recorder: Recorder, runs: List[Tuple[float, float, float, int]]) -> None:
    """Append ``(start, end, CPU seconds, child processes)`` of every
    job's run to ``runs``.

    A job runs as one ``run_interleaved_sweep`` call on the job thread,
    cache hits included.  The CPU seconds are the whole server
    process's (``time.process_time``) over the call, so work the event
    loop thread does meanwhile counts; time the process was not running
    (the host took the core away, another process held it) does not.
    Work in child processes would not count either, so the children
    alive at the end of the run are counted, for a check.
    """
    from repro.service import server

    original = recorder.current(server, "run_interleaved_sweep")
    if original is None:
        return

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start, cpu = time.perf_counter(), time.process_time()
        try:
            return original(*args, **kwargs)
        finally:
            runs.append((
                start,
                time.perf_counter(),
                time.process_time() - cpu,
                len(multiprocessing.active_children()),
            ))

    recorder.patch(server, "run_interleaved_sweep", timed)


async def _serve(args: argparse.Namespace) -> dict:
    from repro.service import ServiceConfig, SimulationServer

    server = SimulationServer(ServiceConfig(cache_dir=args.cache_dir))
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    print(f"port {server.port}", flush=True)
    await stop.wait()
    stats = server.stats()
    await server.shutdown()
    return {
        "stats": stats,
        "live_children": len(server.pool.live_children())
        + len(multiprocessing.active_children()),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--dump", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    recorder = Recorder(timed=bool(args.trace))
    runs: List[Tuple[float, float, float, int]] = []
    time_job_runs(recorder, runs)  # innermost: the wrappers below stay outside
    install(recorder, full=bool(args.trace))
    install_service(recorder, full=bool(args.trace))
    report = asyncio.run(_serve(args))
    report.update(recorder.totals())
    report["missing"] = recorder.missing
    report["job_runs"] = runs
    # This process plus its children (Linux reports KiB).
    report["rss_mb"] = sum(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
    with open(args.dump, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
