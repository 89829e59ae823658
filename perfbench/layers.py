"""Per-layer metrics of the traced run, from the recorder's totals.

Every self-time label a span can carry maps to exactly one metric
below, so the self times plus ``unaccounted_s`` add up to
``trace.timeline_s`` (the summed timelines, see ``tracing.py``).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from common import ratio

SCHEDULERS = ("rrs", "scs", "rcs")

#: Span label -> self-time metric.  ``san.run.*`` and
#: ``schedulers.decide.*`` carry the scheduler and are summed below.
SELF_TIME = {
    "vmm.build": "vmm.build_s",
    "san.build": "san.build_s",
    "san.reset": "san.reset_s",
    "metrics.rewards": "metrics.rewards_s",
    "metrics.stats": "metrics.stats_s",
    "core.sim_setup": "core.sim_setup_self_s",
    "core.sim_run": "core.sim_run_self_s",
    "core.experiment": "core.experiment_self_s",
    "core.sweep": "core.sweep_self_s",
    "executor": "executor.self_s",
    "cache.load": "cache.load_s",
    "cache.store": "cache.store_s",
    "unaccounted": "unaccounted_s",
}

#: Metrics the workload supplies itself (dispatch, service, overhead).
EXTRA = (
    ("sweeps.dispatches", "count"),
    ("sweeps.worker_busy_frac", "ratio"),
    ("sweeps.dispatch_to_result_p50_s", "s"),
    ("sweeps.dispatch_to_result_p90_s", "s"),
    ("executor.retries", "count"),
    ("cache.hit_ratio", "ratio"),
    ("service.submit_s.hit", "s"),
    ("service.submit_s.miss", "s"),
    ("service.queue_wait_s.hit", "s"),
    ("service.queue_wait_s.miss", "s"),
    ("service.exec_s.hit", "s"),
    ("service.exec_s.miss", "s"),
    ("service.delivery_s", "s"),
    ("service.hit_job_p50_s", "s"),
    ("service.hit_job_p90_s", "s"),
    ("loadgen.late_s", "s"),
    ("trace_overhead_s", "s"),
)


def per_layer_units() -> List[Tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    units = [(name, "s") for name in SELF_TIME.values()]
    units += [("san.run_self_s", "s"), ("schedulers.decide_s", "s")]
    for scheduler in SCHEDULERS:
        units += [
            (f"san.run_self_s.{scheduler}", "s"),
            (f"schedulers.decide_s.{scheduler}", "s"),
            (f"schedulers.calls.{scheduler}", "count"),
        ]
    units += [
        ("trace.timeline_s", "s"),
        ("vmm.builds", "count"),
        ("core.simulations", "count"),
        ("core.model_reuse_ratio", "ratio"),
        ("san.completions", "count"),
        ("san.gate_evaluations", "count"),
        ("san.gate_evals_per_completion", "ratio"),
        ("san.ticks_fast_forwarded_ratio", "ratio"),
        ("des.events_popped", "count"),
        ("schedulers.calls", "count"),
        ("executor.executed", "count"),
        ("executor.cache_hits", "count"),
    ]
    units += list(EXTRA)
    return units


def layer_metrics(totals: Dict[str, Any], extra: Dict[str, float]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics plus a list of accounting problems (empty = ok)."""
    problems: List[str] = []
    metrics: Dict[str, float] = {name: 0.0 for name in SELF_TIME.values()}
    metrics.update({"san.run_self_s": 0.0, "schedulers.decide_s": 0.0})
    for scheduler in SCHEDULERS:
        metrics[f"san.run_self_s.{scheduler}"] = 0.0
        metrics[f"schedulers.decide_s.{scheduler}"] = 0.0
        metrics[f"schedulers.calls.{scheduler}"] = 0
    calls = totals["calls"]
    schedule_calls = 0
    for label, seconds in totals["self_s"].items():
        if label in SELF_TIME:
            metrics[SELF_TIME[label]] += seconds
        elif label.startswith("san.run."):
            metrics["san.run_self_s"] += seconds
            key = f"san.run_self_s.{label[len('san.run.'):]}"
            if key in metrics:
                metrics[key] += seconds
        elif label.startswith("schedulers.decide."):
            scheduler = label[len("schedulers.decide."):]
            metrics["schedulers.decide_s"] += seconds
            metrics[f"schedulers.decide_s.{scheduler}"] += seconds
            metrics[f"schedulers.calls.{scheduler}"] += calls.get(label, 0)
            schedule_calls += calls.get(label, 0)
        else:
            problems.append(f"span label {label!r} maps to no metric")
    timeline = sum(totals["timelines"])
    metrics["trace.timeline_s"] = timeline
    covered = sum(totals["self_s"].values())
    if abs(covered - timeline) > 1e-6 * max(1.0, timeline):
        problems.append(
            f"self times {covered!r} s do not add up to the timelines {timeline!r} s"
        )

    sims = totals["sims"]
    stats = [sim["run"] for sim in sims]
    completions = sum(s["completions"] for s in stats)
    gate_evaluations = sum(s["gate_evaluations"] for s in stats)
    fired = sum(s["ticks_fired"] for s in stats)
    skipped = sum(s["ticks_fast_forwarded"] for s in stats)
    builds = calls.get("vmm.build", 0)
    metrics.update(
        {
            "vmm.builds": builds,
            "core.simulations": len(sims),
            "core.model_reuse_ratio": 1.0 - ratio(builds, len(sims)) if sims else 0.0,
            "san.completions": completions,
            "san.gate_evaluations": gate_evaluations,
            "san.gate_evals_per_completion": ratio(gate_evaluations, completions),
            "san.ticks_fast_forwarded_ratio": ratio(skipped, fired + skipped),
            "des.events_popped": sum(s["events_popped"] for s in stats),
            "schedulers.calls": schedule_calls,
            "executor.executed": totals["counts"].get("executed", 0),
            "executor.cache_hits": totals["counts"].get("cache_hits", 0),
        }
    )
    for name, _unit in EXTRA:
        metrics[name] = extra.get(name, 0.0)
    return metrics, problems
