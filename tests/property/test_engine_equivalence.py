"""Differential tests: the four enablement engines must agree bit-for-bit.

The incremental engine caches per-gate verdicts; the compiled engine
lowers the model to flat arrays and fast-forwards idle clock ticks; the
batch engine drives compiled lanes in waves over one shared calendar;
the rescan engine re-evaluates everything every step and is the
semantic reference.  For a fixed ``(root_seed, replication)`` all four
must be *bit-for-bit* identical — same metrics, same completion count —
for every registered scheduler, with and without the resilience layers
(decision guard, chaos injection) and the PCPU fail/repair extension.
The batch *dispatch* layer additionally falls back to serial compiled
runs under guard/chaos; tests below assert the fallback is actually
taken (via :func:`repro.core.framework.batch_dispatch_stats`), not just
that the numbers come out right.

Any divergence here means an engine skipped work that mattered: the
incremental tracker missed a write, or the compiled fast-forward
certified a span in which some gate would actually have opened.  Both
are correctness bugs, not tolerance issues — hence exact ``==``.

Trace-level equality is two-tiered: incremental and rescan emit the
same records one for one, while compiled coalesces idle clock firings
(one ``engine.fastforward`` record replaces k fire records), so its
stream is compared after the golden normalization documented in
:mod:`repro.observability.golden`.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import Simulation, clear_model_cache, simulate_once
from repro.core.registry import list_schedulers
from repro.des import StreamFactory
from repro.errors import ConfigurationError
from repro.metrics import mean_goodput, mean_spin_fraction, spin_tick_counts
from repro.observability import SimTracer, check_trace, tracing
from repro.observability import golden
from repro.resilience import ChaosSpec, GuardPolicy
from repro.san import ENGINES, build_simulator, resolve_engine
from repro.schedulers import BUILTIN_ALGORITHMS
from repro.vmm import build_virtual_system
from repro.vmm.vcpu_scheduler import ClockFastForward
from repro.workloads import LockingWorkloadModel

from ..conftest import make_spec

# The engines under test, measured against the rescan reference.
FAST_ENGINES = tuple(engine for engine in ENGINES if engine != "rescan")

# Aggressive health parameters so degradation, terminal failures and
# maintenance all actually fire inside a 300-tick run.
DEGRADATION = {"p": 0.3, "h_max": 3, "mtbe": 40.0}
MAINTENANCE = {"policy": "condition_based", "crews": 1, "mttr": 15.0,
               "threshold": 2}


def assert_engines_agree(spec, replication=0, root_seed=7, **kwargs):
    reference = simulate_once(
        spec, replication=replication, root_seed=root_seed,
        engine="rescan", **kwargs,
    )
    for engine in FAST_ENGINES:
        fast = simulate_once(
            spec, replication=replication, root_seed=root_seed,
            engine=engine, **kwargs,
        )
        assert fast.metrics == reference.metrics, engine
        assert fast.completions == reference.completions, engine
        assert fast.degraded == reference.degraded, engine
        assert len(fast.failures) == len(reference.failures), engine


def _traced(spec, engine, replication=0, root_seed=7, **kwargs):
    tracer = SimTracer()
    simulate_once(spec, replication=replication, root_seed=root_seed,
                  engine=engine, tracer=tracer, **kwargs)
    return tracer


def assert_engine_traces_identical(spec, replication=0, root_seed=7, **kwargs):
    """Stronger than metric equality: the *event streams* must match.

    Incremental vs rescan is record-for-record (only the ``engine``
    label in ``run.start`` may differ).  Compiled coalesces idle clock
    firings, so its raw stream is shorter; the golden normalization
    must erase exactly that difference and nothing else — and the raw
    compiled stream must still satisfy every scheduling invariant.
    """
    tracers = {
        engine: _traced(spec, engine, replication, root_seed, **kwargs)
        for engine in ENGINES
    }
    fast = tracers["incremental"].to_dicts()
    reference = tracers["rescan"].to_dicts()
    for payload in fast + reference:
        payload.pop("engine", None)
    assert len(fast) == len(reference)
    for index, (got, want) in enumerate(zip(fast, reference)):
        assert got == want, (
            f"engine traces diverge at record {index}:\n"
            f"  incremental: {got}\n  rescan:      {want}"
        )
    want_norm = golden.normalize(tracers["rescan"].records)
    for engine in ("compiled", "batch"):
        got_norm = golden.normalize(tracers[engine].records)
        assert got_norm == want_norm, f"{engine} trace normalizes differently"
        violations = check_trace(tracers[engine].records)
        assert not violations, "\n".join(str(v) for v in violations[:10])


def small_spec(scheduler, **overrides):
    # Small but non-trivial: one SMP VM (co-scheduling paths) plus a
    # UP VM, on a starved host so scheduling decisions actually bind.
    defaults = dict(sim_time=300, warmup=50)
    defaults.update(overrides)
    return make_spec([2, 1], pcpus=2, scheduler=scheduler, **defaults)


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", list_schedulers())
class TestEverySchedulerBitIdentical:
    def test_plain(self, scheduler):
        # No extra probes: impulse rewards would disable the compiled
        # fast-forward, and this cell is the one that exercises it.
        assert_engines_agree(small_spec(scheduler))

    def test_with_extra_probes(self, scheduler):
        assert_engines_agree(small_spec(scheduler), extra_probes=True)

    def test_under_decision_guard(self, scheduler):
        assert_engines_agree(
            small_spec(scheduler), guard=GuardPolicy(mode="degrade")
        )

    def test_under_chaos_injection(self, scheduler):
        # Corrupt decisions are absorbed by the degrade-mode guard; the
        # injected faults are deterministic, so all engines see the
        # same sabotage at the same simulated times.
        chaos = ChaosSpec(
            corrupt_replications=(0,),
            corrupt_kind="double_assign",
            inject_after=100.0,
        )
        assert_engines_agree(
            small_spec(scheduler),
            guard=GuardPolicy(mode="degrade", quarantine_after=2),
            chaos=chaos,
        )

    def test_with_pcpu_failures(self, scheduler):
        spec = small_spec(scheduler)
        spec = dataclasses.replace(
            spec, pcpu_failures={"mtbf": 80.0, "mttr": 20.0}
        )
        assert_engines_agree(spec)

    def test_with_degradation(self, scheduler):
        spec = dataclasses.replace(small_spec(scheduler), degradation=DEGRADATION)
        assert_engines_agree(spec)

    def test_with_maintenance(self, scheduler):
        spec = dataclasses.replace(
            small_spec(scheduler), degradation=DEGRADATION, maintenance=MAINTENANCE
        )
        assert_engines_agree(spec)

    def test_with_hv_overhead(self, scheduler):
        spec = dataclasses.replace(small_spec(scheduler), hv_overhead={"cost": 2})
        assert_engines_agree(spec)

    def test_traces_identical(self, scheduler):
        # Event-stream equality subsumes metric equality: the engines
        # must make every intermediate decision identically, not just
        # land on the same aggregates.
        assert_engine_traces_identical(small_spec(scheduler))

    def test_traces_identical_under_faults(self, scheduler):
        spec = dataclasses.replace(
            small_spec(scheduler), pcpu_failures={"mtbf": 80.0, "mttr": 20.0}
        )
        assert_engine_traces_identical(
            spec,
            guard=GuardPolicy(mode="degrade", quarantine_after=2),
            chaos=ChaosSpec(corrupt_replications=(0,), inject_after=100.0),
        )

    def test_traces_identical_under_degradation(self, scheduler):
        # The full health stack at once: Markov degradation, bounded
        # repair crews, and per-world-switch overhead.  The invariant
        # checker runs inside, so crew exclusivity and health/capacity
        # accounting are asserted on every scheduler's trace too.
        spec = dataclasses.replace(
            small_spec(scheduler),
            degradation=DEGRADATION,
            maintenance=MAINTENANCE,
            hv_overhead={"cost": 2},
        )
        assert_engine_traces_identical(spec)


@pytest.mark.slow
@settings(max_examples=15, deadline=None)
@given(
    topology=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=3),
    pcpus=st.integers(min_value=1, max_value=4),
    scheduler=st.sampled_from(list_schedulers()),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_specs_bit_identical(topology, pcpus, scheduler, seed):
    spec = make_spec(topology, pcpus=pcpus, scheduler=scheduler,
                     sim_time=200, warmup=20)
    assert_engines_agree(spec, root_seed=seed)


def test_engine_flag_reaches_the_simulator():
    for engine in ENGINES:
        sim = Simulation(small_spec("rrs"), engine=engine)
        assert sim.simulator.engine == engine
    # Legacy spelling still works and loses to the explicit name.
    assert Simulation(small_spec("rrs"), incremental=False).simulator.engine == "rescan"
    assert (
        Simulation(small_spec("rrs"), incremental=False, engine="compiled")
        .simulator.engine
        == "compiled"
    )


def test_resolve_engine_rejects_unknown_names():
    with pytest.raises(ConfigurationError):
        resolve_engine("vectorized")
    with pytest.raises(ConfigurationError):
        simulate_once(small_spec("rrs"), engine="vectorized")


# -- compiled-engine specifics: clock-tick fast-forward -----------------------


def _compiled_stats(spec, fast_forward=True, **kwargs):
    sim = Simulation(spec, root_seed=7, engine="compiled", **kwargs)
    sim.simulator.fast_forward = fast_forward
    result = sim.run()
    return result, sim.simulator.stats()


def test_fast_forward_skips_ticks_and_counts_them():
    result_on, stats_on = _compiled_stats(small_spec("rrs"))
    result_off, stats_off = _compiled_stats(small_spec("rrs"), fast_forward=False)
    # The ablation must not change a single bit of the outcome...
    assert result_on.metrics == result_off.metrics
    assert result_on.completions == result_off.completions
    # ...only how many clock ticks were individually dispatched.
    assert stats_off["ticks_fast_forwarded"] == 0
    assert stats_on["ticks_fast_forwarded"] > 0
    assert (
        stats_on["ticks_fired"] + stats_on["ticks_fast_forwarded"]
        == stats_off["ticks_fired"]
    )


def test_fast_forward_off_for_unsafe_schedulers():
    # sedf does per-tick deadline bookkeeping, so it never certifies a skip.
    _result, stats = _compiled_stats(small_spec("sedf"))
    assert stats["ticks_fast_forwarded"] == 0


def test_fast_forward_off_under_guard_and_chaos():
    # Wrappers hide the algorithm's tick_skip_safe flag by design: a
    # guarded or sabotaged scheduler must be consulted every tick.
    _result, stats = _compiled_stats(
        small_spec("rrs"), guard=GuardPolicy(mode="degrade")
    )
    assert stats["ticks_fast_forwarded"] == 0


def test_fast_forward_ablation_exact_under_degradation():
    # Degraded health disables the certificate (capacity withholding
    # changes per-tick arithmetic), but spans where every PCPU is still
    # pristine may legally skip.  Either way the ablation is exact.
    spec = dataclasses.replace(
        small_spec("rrs"),
        degradation=DEGRADATION,
        maintenance=MAINTENANCE,
        hv_overhead={"cost": 2},
    )
    result_on, stats_on = _compiled_stats(spec)
    result_off, stats_off = _compiled_stats(spec, fast_forward=False)
    assert result_on.metrics == result_off.metrics
    assert result_on.completions == result_off.completions
    assert stats_off["ticks_fast_forwarded"] == 0
    assert (
        stats_on["ticks_fired"] + stats_on["ticks_fast_forwarded"]
        == stats_off["ticks_fired"]
    )


def test_fast_forward_off_with_impulse_rewards():
    # Impulse rewards observe individual completions, which a skipped
    # span would never report; the engine must notice and stay exact.
    _result, stats = _compiled_stats(small_spec("rrs"), extra_probes=True)
    assert stats["ticks_fast_forwarded"] == 0


# -- rcs fast-forward: the exact skip horizon ---------------------------------


def test_rcs_fast_forward_engages_and_is_exact():
    result_on, stats_on = _compiled_stats(small_spec("rcs"))
    result_off, stats_off = _compiled_stats(small_spec("rcs"), fast_forward=False)
    assert result_on.metrics == result_off.metrics
    assert result_on.completions == result_off.completions
    assert stats_on["ticks_fast_forwarded"] > 0
    assert (
        stats_on["ticks_fired"] + stats_on["ticks_fast_forwarded"]
        == stats_off["ticks_fired"]
    )


def test_health_aware_rcs_fast_forwards_exactly():
    # The wrapper forwards the inner horizon, so at pristine health it
    # coalesces ticks exactly as bare rcs does.
    spec = small_spec("health_aware", inner="rcs")
    assert_engines_agree(spec)
    _result, stats = _compiled_stats(spec)
    assert stats["ticks_fast_forwarded"] > 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"guard": GuardPolicy(mode="degrade")},
        {
            "guard": GuardPolicy(mode="degrade", quarantine_after=2),
            "chaos": ChaosSpec(corrupt_replications=(0,), inject_after=100.0),
        },
    ],
    ids=["guard", "chaos"],
)
def test_rcs_fast_forward_off_under_guard_and_chaos(kwargs):
    # The wrappers override no horizon hook, so rcs's exact horizon is
    # hidden behind them like every other algorithm's flag.
    _result, stats = _compiled_stats(small_spec("rcs"), **kwargs)
    assert stats["ticks_fast_forwarded"] == 0


def _profiled_declines(spec):
    sim = Simulation(spec, root_seed=7, engine="compiled", reuse=True, profile=True)
    sim.run()
    prefix = "engine.ff_declined."
    counters = sim.stats()["profile"]["counters"]
    declines = {
        name[len(prefix):]: count
        for name, count in counters.items()
        if name.startswith(prefix)
    }
    return sim, declines


def test_fast_forward_declines_are_counted_and_reset():
    sim, declines = _profiled_declines(small_spec("rcs"))
    assert declines and sum(declines.values()) > 0
    assert set(declines) <= set(ClockFastForward.DECLINE_REASONS)
    by_reason = {
        reason: declines.get(reason, 0) for reason in ClockFastForward.DECLINE_REASONS
    }
    spec = sim.simulator._ff_spec
    assert spec.declines == by_reason
    # A reused model starts the next replication from zero counts.
    again, again_declines = _profiled_declines(small_spec("rcs"))
    assert again.simulator._ff_spec is spec
    assert again_declines == declines
    assert spec.declines == by_reason
    clear_model_cache()


@pytest.mark.slow
class TestRcsVariantsBitIdentical:
    """rcs shapes where its skip horizon, not the countdown, ends spans."""

    def test_single_pcpu(self):
        # Figure 8's starved end: the 2-VCPU VM runs one sibling at a
        # time, so catch-up co-stops recur all run long.
        spec = make_spec([2, 1, 1], pcpus=1, scheduler="rcs",
                         sim_time=400, warmup=50)
        assert_engines_agree(spec)
        assert_engine_traces_identical(spec)

    def test_tight_thresholds(self):
        spec = make_spec([2, 2], pcpus=1, scheduler="rcs", sim_time=400,
                         warmup=50, skew_threshold=3, relax_threshold=1)
        assert_engines_agree(spec)
        assert_engine_traces_identical(spec)


def _critical_section_run(scheduler, engine):
    """A locking workload (critical jobs spin on a VM lock), traced."""
    topology = (2, 3)
    system = build_virtual_system(
        [(n, LockingWorkloadModel(critical_ratio=2)) for n in topology],
        BUILTIN_ALGORITHMS[scheduler](),
        4,
        StreamFactory(3),
    )
    sim = build_simulator(system, StreamFactory(3), engine=engine)
    spin = sim.add_reward(mean_spin_fraction(system, warmup=50))
    goodput = sim.add_reward(mean_goodput(system, warmup=50))
    tracer = SimTracer()
    with tracing(tracer):
        sim.run(until=500)
    outcome = (spin.result(), goodput.result(), spin_tick_counts(system),
               sim.completions)
    return outcome, tracer


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", ["rrs", "scs", "rcs"])
def test_critical_sections_bit_identical(scheduler):
    # A slot inside its critical section refuses fast-forward; the spans
    # around the sections still coalesce and must stay exact.
    reference, reference_trace = _critical_section_run(scheduler, "rescan")
    want = golden.normalize(reference_trace.records)
    for engine in FAST_ENGINES:
        outcome, tracer = _critical_section_run(scheduler, engine)
        assert outcome == reference, engine
        assert golden.normalize(tracer.records) == want, engine
        assert not check_trace(tracer.records), engine


# -- batch engine: grouped replications over one shared calendar ---------------


def _serial_compiled(spec, replications, **kwargs):
    return [
        simulate_once(spec, replication=rep, root_seed=7, engine="compiled", **kwargs)
        for rep in replications
    ]


def assert_runs_identical(got, want):
    assert len(got) == len(want)
    for fast, reference in zip(got, want):
        assert fast.metrics == reference.metrics
        assert fast.completions == reference.completions
        assert fast.degraded == reference.degraded
        assert len(fast.failures) == len(reference.failures)


@pytest.mark.slow
@pytest.mark.parametrize("scheduler", list_schedulers())
def test_simulate_batch_matches_serial_compiled(scheduler):
    from repro.core.framework import simulate_batch

    spec = small_spec(scheduler)
    replications = list(range(5))
    batched = simulate_batch(spec, replications, root_seed=7, width=2)
    assert_runs_identical(batched, _serial_compiled(spec, replications))


def test_simulate_batch_lane_width_is_irrelevant():
    # Lanes are independent: any grouping must give the same bits.
    from repro.core.framework import simulate_batch

    spec = small_spec("rcs")
    replications = list(range(4))
    want = _serial_compiled(spec, replications)
    for width in (1, 2, 3, 4, 8):
        assert_runs_identical(
            simulate_batch(spec, replications, root_seed=7, width=width), want
        )


def test_simulate_batch_width_and_window_are_irrelevant():
    # The wave window only tunes interleaving granularity; combined
    # with any lane grouping the per-lane sample paths must not move.
    from repro.core.framework import simulate_batch

    spec = small_spec("rrs")
    replications = list(range(4))
    want = _serial_compiled(spec, replications)
    for width in (1, 3, 8):
        for window in (0.5, 2.0, 16.0, 1e9):
            assert_runs_identical(
                simulate_batch(
                    spec,
                    replications,
                    root_seed=7,
                    width=width,
                    wave_window=window,
                ),
                want,
            )


def test_batch_dispatch_counts_groups():
    from repro.core import framework

    spec = small_spec("rrs")
    framework.reset_batch_dispatch_stats()
    framework.simulate_batch(spec, list(range(5)), root_seed=7, width=2)
    stats = framework.batch_dispatch_stats()
    assert stats["groups"] == 3  # 2 + 2 + 1
    assert stats["batched"] == 5
    assert stats["fallback"] == 0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"guard": GuardPolicy(mode="degrade")},
        {
            "guard": GuardPolicy(mode="degrade", quarantine_after=2),
            "chaos": ChaosSpec(corrupt_replications=(0,), inject_after=100.0),
        },
    ],
    ids=["guard", "chaos"],
)
def test_batch_dispatch_falls_back_under_guard_and_chaos(kwargs):
    # Guarded/sabotaged runs must not share a calendar: the dispatcher
    # degrades to serial compiled replications, and says so.
    from repro.core import framework

    spec = small_spec("rrs")
    replications = list(range(3))
    framework.reset_batch_dispatch_stats()
    runs = framework.simulate_batch(spec, replications, root_seed=7, **kwargs)
    stats = framework.batch_dispatch_stats()
    assert stats["fallback"] == len(replications)
    assert stats["groups"] == 0
    assert_runs_identical(runs, _serial_compiled(spec, replications, **kwargs))


def test_batch_dispatch_falls_back_under_active_tracer():
    # Wave interleaving would shuffle the lanes' records into one
    # stream; with a tracer active the dispatcher must degrade to
    # serial compiled so every replication's trace stays well-formed
    # (run.start header first, then only that replication's events).
    from repro.core import framework
    from repro.observability.trace import tracing

    spec = small_spec("rrs")
    replications = list(range(3))
    framework.reset_batch_dispatch_stats()
    tracer = SimTracer()
    with tracing(tracer):
        runs = framework.simulate_batch(spec, replications, root_seed=7, width=3)
    stats = framework.batch_dispatch_stats()
    assert stats["fallback"] == len(replications)
    assert stats["groups"] == 0
    records = tracer.to_dicts()
    assert sum(r["kind"] == "run.start" for r in records) == len(replications)
    assert sum(r["kind"] == "run.end" for r in records) == len(replications)
    assert not check_trace(tracer.records)
    assert_runs_identical(runs, _serial_compiled(spec, replications))


def test_batch_engine_single_run_equals_compiled_trace_for_trace():
    # One lane through the batch driver is the degenerate case: its raw
    # trace must normalize to the compiled engine's.
    tracer_batch = _traced(small_spec("rrs"), "batch")
    tracer_compiled = _traced(small_spec("rrs"), "compiled")
    assert golden.normalize(tracer_batch.records) == golden.normalize(
        tracer_compiled.records
    )


# -- cross-replication model reuse --------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_reuse_is_bit_identical_to_fresh_builds(engine):
    spec = small_spec("scs")
    clear_model_cache()
    fresh = [
        simulate_once(spec, replication=rep, root_seed=7, engine=engine)
        for rep in range(3)
    ]
    clear_model_cache()
    reused = [
        simulate_once(spec, replication=rep, root_seed=7, engine=engine, reuse=True)
        for rep in range(3)
    ]
    clear_model_cache()
    for fresh_run, reused_run in zip(fresh, reused):
        assert fresh_run.metrics == reused_run.metrics
        assert fresh_run.completions == reused_run.completions


def _fig10_specs():
    """Every Fig-10 configuration (VM sets x sync ratios x schedulers)."""
    from repro.paper import (
        FIG9_VM_SETS,
        FIG10_SYNC_RATIOS,
        PAPER_PCPUS,
        PAPER_SCHEDULERS,
    )

    return [
        make_spec(topology, PAPER_PCPUS, scheduler=scheduler,
                  sync_ratio=ratio, sim_time=120, warmup=20)
        for ratio in FIG10_SYNC_RATIOS
        for topology in FIG9_VM_SETS.values()
        for scheduler in PAPER_SCHEDULERS
    ]


@pytest.mark.parametrize("engine", ["compiled", "rescan", "incremental"])
def test_reused_model_reports_fresh_build_stats(engine):
    # A cache checkout must be indistinguishable from a fresh build,
    # Simulation.stats() included: event-queue counters, refresh and
    # rescan counters, and gate evaluations (learned watcher edges and
    # observed read sets are rebuilt, not carried over).  The last spec
    # adds the health stack, whose maintenance trigger is a closure gate
    # that learns its read set at run time.
    specs = _fig10_specs() + [
        dataclasses.replace(small_spec("rcs"), degradation=DEGRADATION,
                            maintenance=MAINTENANCE)
    ]
    clear_model_cache()
    try:
        for spec in specs:
            for rep in range(3):
                fresh = Simulation(spec, replication=rep, root_seed=3,
                                   engine=engine)
                fresh_result = fresh.run()
                reused = Simulation(spec, replication=rep, root_seed=3,
                                    engine=engine, reuse=True)
                reused_result = reused.run()
                assert reused.stats() == fresh.stats(), (spec.scheduler, rep)
                assert reused_result.metrics == fresh_result.metrics
    finally:
        clear_model_cache()


def test_reuse_shares_one_model_per_spec():
    from repro.core import framework

    spec = small_spec("rrs")
    clear_model_cache()
    first = Simulation(spec, replication=0, engine="compiled", reuse=True)
    first.run()
    second = Simulation(spec, replication=1, engine="compiled", reuse=True)
    assert second.simulator is first.simulator
    assert second.system is first.system
    second.run()
    assert len(framework._MODEL_CACHE) == 1
    clear_model_cache()


def test_reuse_reseeds_captured_streams_in_place():
    # The VM builder closures capture stream objects at construction;
    # reuse must re-arm those same objects (a fresh factory would split
    # the closure's stream from the simulator's).
    spec = small_spec("rrs")
    clear_model_cache()
    sim = Simulation(spec, replication=0, engine="compiled", reuse=True)
    for key, rng in sim.system.stream_bindings:
        assert sim.streams.stream(key) is rng
    sim.run()
    again = Simulation(spec, replication=1, engine="compiled", reuse=True)
    for key, rng in again.system.stream_bindings:
        assert again.streams.stream(key) is rng
    again.run()
    clear_model_cache()
