"""Golden-trace regression tooling: normalize, compare, regenerate.

A *golden trace* is a committed fixture holding the normalized
scheduler-level event stream of one deterministic run (fixed spec,
seed, replication).  The regression suite replays the run and demands
an **exact match** — any drift in scheduling behavior, tie-breaking,
random-stream consumption, or engine semantics fails loudly, which is
the correctness harness reward-level assertions cannot provide.

Normalization keeps fixtures stable across unrelated schema growth:

* only the kinds in :data:`GOLDEN_KINDS` are kept (engine-internal
  records such as ``activity.fire``, ``engine.schedule``/``cancel``
  and ``engine.fastforward`` are deliberately excluded — they are
  hot-path noise, and schedule-level behavior is what the paper's
  figures pin down).  This projection is also what makes golden
  fixtures engine-independent: the compiled engine *coalesces* runs of
  idle clock ticks into a single ``engine.fastforward`` record instead
  of k ``activity.fire`` records, so its raw trace differs from the
  other engines exactly and only in those engine-internal kinds.  No
  *decision* record can fall inside a coalesced span (fast-forward is
  only legal while the hypervisor provably makes no decision); the one
  scheduler-level kind a decision-free call emits, rcs's per-tick
  ``sched.skew``, is re-emitted for every skipped tick by the
  algorithm's ``skip_ticks`` at that tick's time, after the span's
  ``engine.fastforward`` record.  So normalized traces — and therefore
  golden fixtures — are identical across all four engines;
* each kind is projected onto its :data:`GOLDEN_SCHEMA` field list, so
  *adding* a record field or a new record kind later never breaks a
  fixture, while changing or removing an asserted field does.

Refresh fixtures deliberately with ``pytest tests/golden
--regen-golden`` after an intentional behavior change, and review the
fixture diff like code.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from . import trace as _trace
from .trace import RecordLike, as_record

#: Record kinds included in golden fixtures (scheduler-level behavior).
GOLDEN_KINDS = (
    _trace.SCHED_IN,
    _trace.SCHED_OUT,
    _trace.SCHED_SKEW,
    _trace.PCPU_FAIL,
    _trace.PCPU_REPAIR,
    _trace.PCPU_DEGRADE,
    _trace.MAINT_START,
    _trace.MAINT_DONE,
    _trace.HV_OVERHEAD,
)

#: The exact fields each golden kind asserts on, in fixture key order.
GOLDEN_SCHEMA: Dict[str, tuple] = {
    _trace.SCHED_IN: ("vcpu", "vm", "vcpu_index", "pcpu", "timeslice"),
    _trace.SCHED_OUT: ("vcpu", "vm", "vcpu_index", "pcpu", "reason"),
    _trace.SCHED_SKEW: ("vm", "max_lag", "catching_up"),
    _trace.PCPU_FAIL: ("pcpu", "victim"),
    _trace.PCPU_REPAIR: ("pcpu",),
    _trace.PCPU_DEGRADE: ("pcpu", "from_health", "to_health", "capacity"),
    _trace.MAINT_START: ("pcpu", "policy", "health", "victim"),
    _trace.MAINT_DONE: ("pcpu", "policy"),
    _trace.HV_OVERHEAD: ("vcpu", "pcpu", "cost"),
}


def normalize(records: Iterable[RecordLike]) -> List[Dict[str, Any]]:
    """Project a trace onto the golden schema (ordered, plain dicts).

    Unknown kinds are dropped and unknown fields ignored, so traces
    emitted by a *newer* schema still normalize to the same fixture.
    """
    normalized: List[Dict[str, Any]] = []
    for raw in records:
        record = as_record(raw)
        schema = GOLDEN_SCHEMA.get(record.kind)
        if schema is None:
            continue
        entry: Dict[str, Any] = {"kind": record.kind, "t": round(float(record.t), 9)}
        for name in schema:
            if name in record.data:
                value = record.data[name]
                entry[name] = round(value, 9) if isinstance(value, float) else value
        normalized.append(entry)
    return normalized


def diff_traces(
    actual: List[Dict[str, Any]], golden: List[Dict[str, Any]]
) -> Optional[str]:
    """First divergence between two normalized traces, or ``None``.

    The message names the record index and both sides, which is enough
    to locate the drift in the fixture file (line ``index + 1``).
    """
    for index, (got, want) in enumerate(zip(actual, golden)):
        if got != want:
            return (
                f"trace diverges at record {index} (fixture line {index + 1}):\n"
                f"  expected: {json.dumps(want, sort_keys=True)}\n"
                f"  actual:   {json.dumps(got, sort_keys=True)}"
            )
    if len(actual) != len(golden):
        longer, n_a, n_g = (
            ("actual", len(actual), len(golden))
            if len(actual) > len(golden)
            else ("golden", len(actual), len(golden))
        )
        extra = (actual if longer == "actual" else golden)[min(n_a, n_g)]
        return (
            f"trace length mismatch: actual {n_a} records vs golden {n_g}; "
            f"first extra ({longer}): {json.dumps(extra, sort_keys=True)}"
        )
    return None


def dump_jsonl(path: str, normalized: List[Dict[str, Any]]) -> None:
    """Write a normalized trace as a sorted-key JSONL fixture."""
    with open(path, "w", encoding="utf-8") as handle:
        for entry in normalized:
            handle.write(json.dumps(entry, sort_keys=True))
            handle.write("\n")


def load_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a fixture written by :func:`dump_jsonl`."""
    entries: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries
