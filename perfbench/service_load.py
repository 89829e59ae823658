"""The ``service-mixed`` workload: open-loop traffic against the server.

A :class:`repro.service.SimulationServer` with the default
``ServiceConfig`` (one job thread) and a result-cache directory runs in
its own process (``serve.py``).  This process is the single load
generator: one submitter posts jobs at fixed due times (open loop, one
rate, below the server's miss capacity) and one poller follows each job
in submission order over its NDJSON event stream, then fetches the
result, so at most two connections are open at once.  Every block of
three jobs is two misses (fresh root seeds) followed by one hit (a
resubmission of an identity put in the cache before the window, drawn
by the workload seed).  A job's latency runs from its due time until
its result is ready on the server (its run returned); fetching it adds
the server's 20 ms event-stream poll, which is reported apart
(``service.delivery_s``).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import random
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from common import (
    DEFAULT_SEED,
    HERE,
    ROOT,
    SETUP_REPEATS,
    BenchError,
    Ledger,
    SpeedGauge,
    first_difference,
    median,
    percentile,
    python_env,
    timed_setups,
)

#: One job: the Fig-8 topology on 2 PCPUs, a fixed replication count.
#: A miss takes about half an arrival gap of host time (~35 ms against
#: 1/RATE = 67 ms), so no job ever queues behind another: latency moves
#: smoothly with host speed instead of jumping at a queueing threshold.
JOB_SIZE = {"pcpus": 2, "sim_time": 60, "warmup": 6}
JOB_REPLICATIONS = 2
SCHEDULERS = ("rrs", "scs", "rcs")

#: Offered load, jobs per second (open loop).
RATE = 15.0
#: Jobs per block: MISSES misses, then BLOCK - MISSES hits.  Misses are
#: the majority so that every end-to-end percentile falls among them: a
#: hit's ~3 ms is mostly hand-offs between threads and processes, which
#: a busy host stretched by half while it moved the misses' median by a
#: tenth; hit latency is reported per layer (``service.hit_job_*``).
BLOCK = 3
MISSES = 2
#: Identities resubmitted as hits.
HIT_POOL = 12
#: The submitter sleeps until this long before a due time and spins
#: the rest: the event loop's timers wake ~1 ms late (epoll waits in
#: whole milliseconds), a quarter of a hit's latency.
SPIN_S = 0.002

#: Seed ranges: reference jobs use DEFAULT_SEED, the rest never collide.
HIT_SEEDS = range(1_000_000, 2_000_000)
MISS_SEEDS = range(2_000_000, 3_000_000)


def payload(scheduler: str, root_seed: int) -> Dict[str, Any]:
    from repro.core.config import SystemSpec, VMSpec, WorkloadSpec

    spec = SystemSpec(
        vms=[VMSpec(n, WorkloadSpec(sync_ratio=5)) for n in (2, 1, 1)],
        scheduler=scheduler,
        **JOB_SIZE,
    )
    return {
        "spec": spec.to_dict(),
        "root_seed": root_seed,
        "min_replications": JOB_REPLICATIONS,
        "max_replications": JOB_REPLICATIONS,
        "tenant": "perfbench",
    }


def result_view(body: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a finished job that identify its numbers."""
    return {"metrics": body.get("metrics"), "replications": body.get("replications")}


# -- the server process -----------------------------------------------------------


class ServerProcess:
    """``serve.py`` in a child process; ``setup`` is the (start, end) on
    the host clock from spawning it until /healthz answers."""

    def __init__(self, work: Any, index: int, trace: bool) -> None:
        self.cache_dir = work / f"service-cache{index}"
        self.dump = work / f"service{index}.json"
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                str(HERE / "serve.py"),
                "--cache-dir",
                str(self.cache_dir),
                "--dump",
                str(self.dump),
                "--trace",
                str(int(trace)),
            ],
            stdout=subprocess.PIPE,
            cwd=str(ROOT),
            env=python_env(),
            text=True,
        )
        try:
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or line[0] != "port":
                raise BenchError(f"server did not start (said {line!r})")
            self.port = int(line[1])
            deadline = time.perf_counter() + 30
            while not self._healthy():
                if time.perf_counter() > deadline:
                    raise BenchError("server never answered /healthz")
                time.sleep(0.005)
        except BaseException:
            self.kill()
            raise
        self.setup = (start, time.perf_counter())

    def _healthy(self) -> bool:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            connection.request("GET", "/healthz")
            return connection.getresponse().status == 200
        except OSError:
            return False
        finally:
            connection.close()

    def stop(self) -> Tuple[int, Dict[str, Any]]:
        """SIGTERM, wait for the drain; returns (exit code, server report)."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        finally:
            self.kill()
        self.proc.stdout.close()
        with open(self.dump, "r", encoding="utf-8") as handle:
            return code, json.load(handle)

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


# -- client phases ------------------------------------------------------------------


async def _reference_phase(client: Any, ledger: Ledger, label: str) -> Dict[str, Any]:
    """The default seed's jobs, then their resubmissions (all hits)."""
    start = time.perf_counter()
    first, again = {}, {}
    for scheduler in SCHEDULERS:
        body = await client.submit_and_wait(payload(scheduler, DEFAULT_SEED))
        first[scheduler] = body
    for scheduler in SCHEDULERS:
        again[scheduler] = await client.submit_and_wait(payload(scheduler, DEFAULT_SEED))
    wall = time.perf_counter() - start
    for scheduler in SCHEDULERS:
        miss, hit = first[scheduler], again[scheduler]
        ledger.check(
            f"{label}: reference {scheduler} job ran {JOB_REPLICATIONS} replications",
            miss.get("status") == "done" and miss.get("executed") == JOB_REPLICATIONS,
            {k: miss.get(k) for k in ("status", "executed", "error")},
        )
        ledger.check(
            f"{label}: reference {scheduler} resubmission is a hit == the miss",
            hit.get("status") == "done"
            and hit.get("executed") == 0
            and result_view(hit) == result_view(miss),
            {k: hit.get(k) for k in ("status", "executed", "cache_hits")},
        )
    return {
        "outputs": {s: result_view(first[s]) for s in SCHEDULERS},
        "cache": (await client.stats())["cache"],
        "wall": wall,
    }


async def _prewarm(client: Any, ledger: Ledger, pool: List[Tuple[str, int]]) -> Dict[tuple, Dict]:
    outputs = {}
    for scheduler, seed in pool:
        body = await client.submit_and_wait(payload(scheduler, seed))
        ledger.check(
            f"prewarm {scheduler}/{seed} executed {JOB_REPLICATIONS} replications",
            body.get("status") == "done" and body.get("executed") == JOB_REPLICATIONS,
            {k: body.get(k) for k in ("status", "executed", "error")},
        )
        outputs[(scheduler, seed)] = result_view(body)
    return outputs


def plan_traffic(rng: random.Random, seconds: float, pool: List[Tuple[str, int]]) -> List[Dict]:
    """Due offsets and identities of every job in the window."""
    blocks = max(1, int(round(RATE * seconds / BLOCK)))
    miss_seeds = iter(rng.sample(MISS_SEEDS, blocks * MISSES))
    jobs: List[Dict] = []
    misses = 0
    for _block in range(blocks):
        for kind in ["miss"] * MISSES + ["hit"] * (BLOCK - MISSES):
            if kind == "miss":
                identity = (SCHEDULERS[misses % len(SCHEDULERS)], next(miss_seeds))
                misses += 1
            else:
                identity = rng.choice(pool)
            jobs.append({"kind": kind, "identity": identity, "due": len(jobs) / RATE})
    return jobs


async def _traffic(client: Any, jobs: List[Dict]) -> float:
    """Open loop: submit at due times, follow each job to its result."""
    followed: asyncio.Queue = asyncio.Queue()

    async def submitter(t0: float) -> None:
        for job in jobs:
            due_at = t0 + job["due"]
            delay = due_at - time.perf_counter() - SPIN_S
            if delay > 0:
                await asyncio.sleep(delay)
            while time.perf_counter() < due_at:
                pass
            job["due_at"] = due_at
            job["sent"] = time.perf_counter()
            status, body = await client.submit(payload(*job["identity"]))
            job["ack"] = time.perf_counter()
            job["http"] = status
            if status == 202:
                job["id"] = body["job"]
                await followed.put(job)
        await followed.put(None)

    async def poller() -> None:
        while True:
            job = await followed.get()
            if job is None:
                return
            job["events"] = [
                (record.kind, record.t, record.data)
                async for record in client.stream_events(job["id"])
            ]
            job["body"] = await client.job(job["id"])
            job["seen"] = time.perf_counter()

    t0 = time.perf_counter() + 0.05
    await asyncio.gather(submitter(t0), poller())
    return t0


# -- metrics from the jobs -------------------------------------------------------------


def _event_times(job: Dict) -> Dict[str, float]:
    """Server-side seconds since acceptance of each event kind's first record."""
    times: Dict[str, float] = {}
    for kind, t, _data in job.get("events", []):
        times.setdefault(kind, t)
    return times


def _retries(jobs: List[Dict]) -> int:
    """Dispatches of a replication a job had dispatched before."""
    retries = 0
    for job in jobs:
        seen = set()
        for kind, _t, data in job.get("events", []):
            if kind == "job.progress" and data.get("event") == "dispatch":
                key = (data.get("point"), data.get("replication"))
                retries += key in seen
                seen.add(key)
    return retries


def run(seed: int, seconds: float, trace: bool, work: Any, ledger: Ledger,
        reference: Optional[Dict[str, Any]], gauge: SpeedGauge) -> Dict[str, Any]:
    from repro.service import ServiceClient

    rng = random.Random(seed)
    pool = [
        (SCHEDULERS[i % len(SCHEDULERS)], s)
        for i, s in enumerate(rng.sample(HIT_SEEDS, HIT_POOL))
    ]
    jobs = plan_traffic(rng, seconds, pool)

    # Set-up is timed on fresh servers; in the traced run the first of
    # them, untraced, answers the reference jobs for the comparison.
    setups: List[Tuple[float, float]] = []
    servers_mb: List[float] = []
    untraced: Dict[str, Any] = {}
    for index in range(SETUP_REPEATS - 1):
        server = ServerProcess(work, index, trace=False)
        setups.append(server.setup)
        try:
            if trace and index == 0:
                client = ServiceClient("127.0.0.1", server.port)
                untraced = asyncio.run(_reference_phase(client, ledger, "untraced server"))
        finally:
            code, report = server.stop()
        servers_mb.append(report["rss_mb"])
        ledger.check(f"set-up server {index} exits 0", code == 0, code)
        if trace and index == 0:
            untraced["sims"] = _reference_sims(report)
    server = ServerProcess(work, SETUP_REPEATS - 1, trace=trace)
    setups.append(server.setup)
    try:
        client = ServiceClient("127.0.0.1", server.port)
        ref = asyncio.run(_reference_phase(client, ledger, "server"))
        if reference is not None:
            difference = first_difference(reference, ref["outputs"])
            ledger.check("job results == reference (default seed)", difference is None, difference)
        warm = asyncio.run(_prewarm(client, ledger, pool))
        t0 = asyncio.run(_traffic(client, jobs))
        stats = asyncio.run(client.stats())
    finally:
        code, report = server.stop()
    servers_mb.append(report["rss_mb"])
    ledger.check("server exits 0 after draining", code == 0, code)
    ledger.check(
        "no child process left by the server",
        report["live_children"] == 0,
        report["live_children"],
    )

    failed = 0
    for job in jobs:
        body = job.get("body", {})
        ok = job.get("http") == 202 and body.get("status") == "done"
        failed += not ok
        if not ok:
            continue
        if job["kind"] == "hit":
            ledger.check(
                f"hit job {job['id']} executed 0 replications and == its miss",
                body.get("executed") == 0
                and body.get("cache_hits") == JOB_REPLICATIONS
                and result_view(body) == warm[job["identity"]],
                {k: body.get(k) for k in ("executed", "cache_hits")},
            )
        else:
            ledger.check(
                f"miss job {job['id']} executed {JOB_REPLICATIONS} replications",
                body.get("executed") == JOB_REPLICATIONS,
                body.get("executed"),
            )
    ledger.ops(len(jobs), failed, "service jobs not done")

    done = [job for job in jobs if "seen" in job]
    _attach_runs(jobs, report["job_runs"], t0, ledger)
    latency = {
        kind: [j["ready"] - j["due_at"] for j in done if j["kind"] == kind]
        for kind in ("hit", "miss")
    }
    makespan = max(j["seen"] for j in done) - t0 if done else 0.0
    # The job thread's wall-clock busy time (printed, and the traced
    # sweeps.worker_busy_frac); wall_s counts CPU seconds instead.
    busy = sum(_event_times(j)["job.done"] - _event_times(j)["job.start"] for j in done)
    miss_seeds = {job["identity"][1] for job in jobs if job["kind"] == "miss"}
    completions = sum(
        sim["run"]["completions"] for sim in report["sims"] if sim["root_seed"] in miss_seeds
    )
    result: Dict[str, Any] = {
        "setups": timed_setups(gauge, setups),
        "children_mb": servers_mb,
        "missing": report["missing"],
        "samples": {
            "units": 1,
            "jobs": len(done),
            "miss_jobs": len(latency["miss"]),
            "hit_jobs": len(latency["hit"]),
        },
        "reference_outputs": ref["outputs"],
    }
    if not trace:
        # A job's latency is compute on this host (HTTP over loopback,
        # queueing, its run), so it is scaled like the other workloads'
        # times, less the time its run spent off the CPU (the host took
        # the core away, another process held it).  README.md says why
        # the service counts CPU time.
        factor = gauge.factor(t0, t0 + makespan)
        scaled = {
            kind: [
                (j["ready"] - j["due_at"] - j["off_cpu"]) * factor
                for j in done
                if j["kind"] == kind
            ]
            for kind in ("hit", "miss")
        }
        every = scaled["hit"] + scaled["miss"]
        cpu = sum(j["cpu"] for j in done)
        result["e2e"] = {
            "wall_s": cpu * factor,
            "events_per_s": completions / (cpu * factor),
            "job_p50_s": percentile(every, 0.50),
            "job_p90_s": percentile(every, 0.90),
            "miss_job_p90_s": percentile(scaled["miss"], 0.90),
        }
        result["info"] = {
            "hit_job_p50_s": percentile(scaled["hit"], 0.50),
            "hit_job_p90_s": percentile(scaled["hit"], 0.90),
            "host_job_p50_s": percentile(latency["hit"] + latency["miss"], 0.50),
            "host_job_p90_s": percentile(latency["hit"] + latency["miss"], 0.90),
            "host_miss_job_p90_s": percentile(latency["miss"], 0.90),
            "host_delivery_s": median([j["seen"] - j["ready"] for j in done]),
            "host_busy_s": busy,
            "host_cpu_s": cpu,
            "host_off_cpu_s": sum(j["off_cpu"] for j in done),
            "makespan_s": makespan,
            "rate_per_s": RATE,
            "speed_factor": factor,
        }
    else:
        difference = first_difference(
            {key: untraced[key] for key in ("outputs", "cache", "sims")},
            {"outputs": ref["outputs"], "cache": ref["cache"], "sims": _reference_sims(report)},
        )
        ledger.check(
            "traced outputs, Simulation.stats() and cache stats == the untraced server",
            difference is None,
            difference,
        )
        result["totals"] = report
        result["extra"] = _service_extra(
            done, stats, report["tasks"], ref["wall"] - untraced["wall"], busy, makespan
        )
    return result


def _attach_runs(jobs: List[Dict], runs: List[List[float]], t0: float, ledger: Ledger) -> None:
    """Give each accepted job its run's CPU and off-CPU host seconds and
    the host time its result was ready (``ready``, the run's end).

    The one job thread runs jobs first come, first served, so the
    window's runs (``serve.time_job_runs``) belong to the accepted jobs
    in submission order.  Without them (the program has no such
    boundary, or the counts differ, a failed check) a job's whole
    server time counts as CPU, and its result as ready at the ack plus
    the server's time to ``job.done``.
    """
    accepted = [job for job in jobs if job.get("http") == 202]
    window = [run for run in runs if run[0] >= t0]
    matched = bool(runs) and ledger.check(
        "one job run per accepted job", len(window) == len(accepted),
        f"{len(window)} runs for {len(accepted)} jobs",
    )
    ledger.check(
        "jobs ran in the server process, whose CPU seconds are counted",
        not any(run[3] for run in window),
        f"{max([run[3] for run in window], default=0)} child processes",
    )
    for index, job in enumerate(accepted):
        if matched:
            start, end, cpu, _children = window[index]
            job["cpu"], job["off_cpu"] = cpu, max(0.0, end - start - cpu)
            job["ready"] = end
        elif "events" in job:
            times = _event_times(job)
            job["cpu"], job["off_cpu"] = times["job.done"] - times["job.start"], 0.0
            job["ready"] = job["ack"] + times["job.done"]


def _reference_sims(report: Dict[str, Any]) -> List[Dict[str, Any]]:
    return [sim for sim in report["sims"] if sim["root_seed"] == DEFAULT_SEED]


def _service_extra(done: List[Dict], stats: Dict[str, Any], tasks: List[float],
                   overhead: float, busy: float, makespan: float) -> Dict[str, float]:
    extra: Dict[str, float] = {"trace_overhead_s": overhead}
    parts: Dict[str, List[float]] = {}
    for job in done:
        times = _event_times(job)
        kind = job["kind"]
        parts.setdefault(f"service.submit_s.{kind}", []).append(job["ack"] - job["sent"])
        parts.setdefault(f"service.queue_wait_s.{kind}", []).append(
            times["job.start"] - times["job.accepted"]
        )
        parts.setdefault(f"service.exec_s.{kind}", []).append(
            times["job.done"] - times["job.start"]
        )
        parts.setdefault("service.delivery_s", []).append(
            job["seen"] - job["ack"] - times["job.done"]
        )
        parts.setdefault("loadgen.late", []).append(job["sent"] - job["due_at"])
    for name, values in parts.items():
        if name != "loadgen.late":
            extra[name] = median(values)
    extra["loadgen.late_s"] = percentile(parts.get("loadgen.late", []), 0.90)
    hits = [j["ready"] - j["due_at"] for j in done if j["kind"] == "hit"]
    extra["service.hit_job_p50_s"] = percentile(hits, 0.50)
    extra["service.hit_job_p90_s"] = percentile(hits, 0.90)
    # One job thread runs replications in-process (no pool children), so
    # dispatch to result is the replication call itself.
    cache = stats.get("cache") or {}
    looked = cache.get("hits", 0) + cache.get("misses", 0)
    extra.update(
        {
            "sweeps.dispatches": len(tasks),
            "sweeps.worker_busy_frac": busy / makespan if makespan else 0.0,
            "sweeps.dispatch_to_result_p50_s": percentile(tasks, 0.50),
            "sweeps.dispatch_to_result_p90_s": percentile(tasks, 0.90),
            "executor.retries": _retries(done),
            "cache.hit_ratio": cache.get("hits", 0) / looked if looked else 0.0,
        }
    )
    return extra
