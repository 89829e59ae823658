"""Unit tests for the simulation facade."""

import pytest

from repro.core import Simulation, SystemSpec, VMSpec, build_system, simulate_once


class TestSimulateOnce:
    def test_produces_standard_metrics(self, small_spec):
        result = simulate_once(small_spec)
        for name in ("vcpu_availability", "pcpu_utilization", "vcpu_utilization"):
            assert 0.0 <= result.metrics[name] <= 1.0

    def test_extra_probes_add_metrics(self, small_spec):
        result = simulate_once(small_spec, extra_probes=True)
        assert any(name.startswith("blocked_fraction[") for name in result.metrics)
        assert any(name.startswith("workloads_generated[") for name in result.metrics)

    def test_metric_lookup_helper(self, small_spec):
        result = simulate_once(small_spec)
        assert result.metric("pcpu_utilization") == result.metrics["pcpu_utilization"]
        with pytest.raises(KeyError, match="available"):
            result.metric("latency_p99")

    def test_reproducible_for_same_replication(self, small_spec):
        a = simulate_once(small_spec, replication=3, root_seed=11)
        b = simulate_once(small_spec, replication=3, root_seed=11)
        assert a.metrics == b.metrics

    def test_replications_differ(self, small_spec):
        a = simulate_once(small_spec, replication=0)
        b = simulate_once(small_spec, replication=1)
        assert a.metrics != b.metrics

    def test_records_run_metadata(self, small_spec):
        result = simulate_once(small_spec, replication=2, root_seed=5)
        assert result.replication == 2
        assert result.root_seed == 5
        assert result.completions > 0
        assert result.spec is small_spec


class TestSimulation:
    def test_runs_exactly_once(self, small_spec):
        sim = Simulation(small_spec)
        sim.run()
        with pytest.raises(RuntimeError, match="exactly once"):
            sim.run()

    def test_validates_spec(self):
        bad = SystemSpec(vms=[], pcpus=1, sim_time=10, warmup=0)
        with pytest.raises(Exception):
            Simulation(bad)

    def test_every_scheduler_runs_end_to_end(self, small_spec):
        from repro.core import list_schedulers

        builtins = [n for n in list_schedulers() if not n.startswith("test-")]
        assert {"rrs", "scs", "rcs", "balance", "credit", "sedf",
                "hybrid", "fifo"} <= set(builtins)
        for name in builtins:
            spec = small_spec.with_overrides(scheduler=name)
            result = simulate_once(spec)
            assert 0.0 <= result.metrics["pcpu_utilization"] <= 1.0


    def test_default_engine_is_compiled(self, small_spec):
        assert Simulation(small_spec).simulator.engine == "compiled"
        assert Simulation(small_spec, incremental=False).simulator.engine == "rescan"

    def test_rebuilding_a_spec_compiles_no_new_ir_code(self, small_spec):
        # Generated IR source is memoized by its text: the second build
        # of one spec (gates, rewards and the compiled engine's fused
        # conjunctions) adds no compile() call.
        from repro.san import exprs

        Simulation(small_spec, engine="compiled")
        misses = exprs._code_for.cache_info().misses
        Simulation(small_spec, replication=1, engine="compiled")
        assert exprs._code_for.cache_info().misses == misses


class TestBuildSystem:
    def test_returns_inspectable_model(self, small_spec):
        system = build_system(small_spec)
        assert system.vm_names == ["VM_2VCPU_1", "VM_1VCPU_2"]
        assert len(system.join_place_table()) > 0

    def test_respects_spec_topology(self):
        spec = SystemSpec(
            vms=[VMSpec(2), VMSpec(1), VMSpec(1)], pcpus=3, sim_time=10, warmup=0
        )
        system = build_system(spec)
        assert system.topology == [2, 1, 1]
        assert system.num_pcpus == 3
