"""Shared pieces of the benchmark: paths, the check ledger, statistics,
set-up probes and memory."""

from __future__ import annotations

import bisect
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: The seed whose outputs ``reference.json`` records.
DEFAULT_SEED = 0

#: Fresh processes started per run to time set-up (median reported).
SETUP_REPEATS = 3

#: Worker processes for pooled sweeps: the cores this process may use.
NPROC = len(os.sched_getaffinity(0))

#: The speed gauge.  Shared hosts change speed by up to 2x within
#: seconds (a fixed pure-Python kernel measured 3.7-8.2 ms per second of
#: a quiet minute) and take cores away (steal, up to 13% of a run), far
#: more than any bound here allows.  So a separate process
#: (``calibrate.py``, which never imports repro) runs a ~1 ms kernel
#: every GAUGE_PERIOD_S for the whole run, and compute times are
#: reported in seconds of a host on which the kernel takes
#: REFERENCE_KERNEL_S: host seconds x REFERENCE_KERNEL_S / (median kernel
#: time over the same interval).  The kernel is timed on the wall clock,
#: so that steal counts as it does for the program.  The program's own
#: load does not reach it: a process that sleeps most of the time is
#: run ahead of busy ones when it wakes, and with both cores kept busy
#: by other processes the gauge read the same as on an idle host.
GAUGE_LOOPS = 4000
GAUGE_PERIOD_S = 0.025
REFERENCE_KERNEL_S = 0.001
#: Intervals with fewer samples use this many nearest to their middle.
GAUGE_MIN_SAMPLES = 9


def gauge_kernel() -> float:
    """Seconds the gauge's fixed kernel takes right now."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0.0
    for i in range(GAUGE_LOOPS):
        table[i & 255] = table.get(i & 255, 0) + 1
        total += (i * 0.5) % 7
    return time.perf_counter() - start


class SpeedGauge:
    """``calibrate.py`` in a child process for the whole run.

    Its samples are ``<perf_counter> <kernel seconds>`` lines in
    ``path``; ``perf_counter`` is the system-wide monotonic clock on
    Linux, so they line up with this process's timestamps.
    """

    def __init__(self, work: Path) -> None:
        self.path = work / "gauge.txt"
        self._stamps: List[float] = []
        self._took: List[float] = []
        self._parsed = 0  # bytes of the file read so far
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "calibrate.py"), str(self.path)],
            cwd=str(ROOT),
        )
        deadline = time.perf_counter() + 30
        while len(self._update()) < GAUGE_MIN_SAMPLES:
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise BenchError("the speed gauge did not start")
            time.sleep(GAUGE_PERIOD_S)

    def _update(self) -> List[float]:
        """Read the samples written since the last call; all stamps."""
        if self.path.is_file():
            with open(self.path, "rb") as handle:
                handle.seek(self._parsed)
                chunk = handle.read()
            complete = chunk[: chunk.rfind(b"\n") + 1]  # skip a half-written line
            self._parsed += len(complete)
            for line in complete.splitlines():
                stamp, took = line.split()
                self._stamps.append(float(stamp))
                self._took.append(float(took))
        return self._stamps

    def factor(self, start: float, end: float) -> float:
        """Host seconds in ``[start, end]`` -> reference seconds: from the
        median sample inside, or of the GAUGE_MIN_SAMPLES nearest to the
        middle of a shorter interval."""
        stamps = self._update()
        first = bisect.bisect_left(stamps, start)
        last = bisect.bisect_right(stamps, end)
        if last - first < GAUGE_MIN_SAMPLES:
            middle = bisect.bisect_left(stamps, (start + end) / 2.0)
            first = max(0, min(middle - GAUGE_MIN_SAMPLES // 2, len(stamps) - GAUGE_MIN_SAMPLES))
            last = first + GAUGE_MIN_SAMPLES
        return REFERENCE_KERNEL_S / median(self._took[first:last])

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class BenchError(Exception):
    """The benchmark could not run the workload (not a failed check)."""


class Ledger:
    """Operations and correctness checks attempted, and how many failed.

    An operation is a replication (``paper-fig8``, ``sweep-short``) or a
    service job (``service-mixed``); every correctness check counts as
    one more attempt, and a failed check as one more failure.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def ops(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.notes.append(f"FAILED {failed}/{attempted} operations: {what}")

    def check(self, name: str, ok: bool, detail: Any = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"CHECK FAILED {name}: {detail}")
        return ok


def python_env() -> Dict[str, str]:
    """Environment for child interpreters: the checkout's ``src`` first."""
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def probe_setup_seconds(repeats: int = SETUP_REPEATS) -> List[Tuple[float, float]]:
    """(start, end) on the host clock of each fresh interpreter, from
    spawning it until repro is imported."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=python_env(),
            text=True,
        )
        try:
            line = proc.stdout.readline().strip()
            end = time.perf_counter()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line != "ready" or code != 0:
            raise BenchError(f"set-up probe failed (exit {code}, said {line!r})")
        times.append((start, end))
    return times


def timed_setups(gauge: SpeedGauge, intervals: Sequence[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """(host seconds, reference seconds) of each set-up interval."""
    return [(end - start, (end - start) * gauge.factor(start, end)) for start, end in intervals]


def own_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(children_mb: Sequence[float]) -> float:
    """Peak resident set of this process plus its children.

    ``children_mb`` holds, for each phase of the run, the summed peaks
    of the children alive together in it (the pool workers of one
    sweep, the server).  Phases do not overlap, so the largest phase is
    added.  Every reaped child counts at least alone, which covers the
    short-lived set-up probes.
    """
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own_rss_mb() + max([reaped, *children_mb])


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def estimate_samples(results: Sequence[Any], key_of) -> Dict[str, Dict[str, List[float]]]:
    """Per-replication samples of every metric of every sweep point."""
    return {
        key_of(result): {
            name: list(estimate.values)
            for name, estimate in sorted(result.estimates.items())
        }
        for result in results
    }


def first_difference(expected: Any, actual: Any, path: str = "") -> Optional[str]:
    """Where two JSON-like values first differ (``None`` when equal)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual), key=str):
            if key not in expected or key not in actual:
                return f"{path}/{key}: present on one side only"
            found = first_difference(expected[key], actual[key], f"{path}/{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return f"{path}: length {len(expected)} != {len(actual)}"
        for index, (a, b) in enumerate(zip(expected, actual)):
            found = first_difference(a, b, f"{path}[{index}]")
            if found:
                return found
        return None
    if expected != actual:
        return f"{path}: {expected!r} != {actual!r}"
    return None
