"""The Machine facade: config validation, assembly, counters."""

import gc
import weakref

import pytest

from repro.config import tiny_machine
from repro.errors import ConfigError
from repro.machine import Machine, MachineConfig
from repro.workloads.spec import SPEC_PROFILES

SHORT = SPEC_PROFILES["exchange2_s"].replace(duration_ms=5)


class TestMachineConfig:
    def test_unknown_machine_rejected(self):
        with pytest.raises(ConfigError, match="unknown machine"):
            MachineConfig(machine="pdp11")

    @pytest.mark.parametrize("field, value", [
        ("sanitizers", "bogus"),
        ("sanitizers", True),
        ("sanitizers", ""),
        ("trace_capacity", "5"),
        ("trace_capacity", True),
        ("trace_capacity", 2.5),
        ("defense_params", [1]),
    ])
    def test_knobs_raise_typed_errors(self, field, value):
        with pytest.raises(ConfigError, match=field):
            MachineConfig(machine="tiny", **{field: value})

    def test_unknown_defense_rejected_at_build(self):
        config = MachineConfig(machine="tiny", defense="prayer")
        with pytest.raises(ConfigError, match="unknown defense"):
            Machine(config)

    def test_defense_params_normalised_to_dict(self):
        class View(dict):
            pass

        config = MachineConfig(machine="tiny",
                               defense_params=View(timer_inr_ns=1))
        assert type(config.defense_params) is dict

    def test_one_disturbance_engine_no_store_knob(self):
        from repro.dram import DisturbanceEngine

        machine = Machine(machine="tiny")
        assert type(machine.dram.engine) is DisturbanceEngine
        with pytest.raises(TypeError):
            Machine(machine="tiny", dense=True)

    def test_seed_override_flows_into_spec(self):
        a = MachineConfig(machine="tiny", seed=7).build_spec()
        b = MachineConfig(machine="tiny", seed=8).build_spec()
        assert a.seed == 7 and b.seed == 8

    @pytest.mark.parametrize("seed", [True, 1.0, "1"])
    def test_seed_must_be_an_int(self, seed):
        # derive_rng stringifies the seed, so each would give its own
        # flip map while comparing equal to (or instead of) seed=1.
        with pytest.raises(ConfigError, match="seed must be an int"):
            MachineConfig(machine="tiny", seed=seed)


class TestMachineFacade:
    def test_boot_and_properties_alias_kernel(self):
        m = Machine(machine="tiny")
        assert m.clock is m.kernel.clock
        assert m.dram is m.kernel.dram
        assert m.mmu is m.kernel.mmu
        assert m.softtrr is None
        assert m.module("softtrr") is None
        assert (m.config.machine, m.config.defense) == ("tiny", "vanilla")

    def test_keyword_overrides_compose_with_config(self):
        base = MachineConfig(machine="tiny")
        m = Machine(base, defense="catt")
        assert m.config.defense == "catt"
        assert base.defense == "vanilla"

    def test_defense_route_installs_warm_softtrr(self):
        # defense="softtrr" is the Table II semantics: install() advances
        # two timer intervals, so the tracer has already ticked.
        m = Machine(machine="tiny", defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000})
        assert m.softtrr is not None
        assert m.softtrr.stats().ticks >= 1

    def test_load_softtrr_is_cold(self):
        # load_softtrr() is the overhead-measurement path: no warm-up.
        m = Machine(machine="tiny")
        module = m.load_softtrr()
        assert module is m.softtrr
        assert module.stats().ticks == 0

    def test_sanitizer_knobs(self):
        assert Machine(machine="tiny").sanitizers is None
        assert Machine(machine="tiny", sanitizers="off").sanitizers is None
        report = Machine(machine="tiny", sanitizers="report")
        assert report.sanitizers is not None
        assert report.sanitizers.strict is False
        strict = Machine(machine="tiny", sanitizers="strict")
        assert strict.sanitizers.strict is True

    def test_from_parts_takes_prebuilt_spec(self):
        m = Machine.from_parts(tiny_machine())
        assert m.config is None
        assert m.spec.name == "tiny-test-machine"
        assert m.sanitizers is None
        assert m.fault_injector is None

    def test_from_parts_takes_no_knobs(self):
        # MachineConfig is the one place knobs are set and checked.
        for knob in ({"sanitizers": "strict"},
                     {"trace": "events", "trace_capacity": 0}):
            with pytest.raises(TypeError):
                Machine.from_parts(tiny_machine(), **knob)

    def test_run_workload_deterministic_across_machines(self):
        first = Machine(machine="tiny").run_workload(SHORT, seed=99)
        second = Machine(machine="tiny").run_workload(SHORT, seed=99)
        assert first.runtime_ns == second.runtime_ns
        assert first.slices == second.slices

    def test_dropped_vanilla_machine_is_freed_by_refcount(self):
        # No reference cycle holds a vanilla machine's parts, so they go
        # with the last reference, not at the next cyclic collection.
        gc.disable()
        try:
            m = Machine(machine="tiny")
            dram = weakref.ref(m.dram)
            kernel = weakref.ref(m.kernel)
            del m
            assert dram() is None
            assert kernel() is None
        finally:
            gc.enable()


class TestTelemetry:
    EXPECTED = {
        "clock.now_ns", "kernel.faults_handled", "kernel.forks",
        "timers.fired", "tlb.hits", "tlb.misses", "cache.hits",
        "dram.reads", "dram.writes", "dram.total_activations",
        "dram.applied_flips", "dram.flip_events",
        "engine.total_deposits", "trr.targeted_refreshes",
    }

    def test_expected_keys_present_and_integral(self):
        counters = Machine(machine="tiny").telemetry.as_flat_dict()
        assert self.EXPECTED <= set(counters)
        assert all(isinstance(v, int) for v in counters.values())

    def test_one_bank_entry_per_dram_bank(self):
        m = Machine(machine="tiny")
        activations = [k for k in m.telemetry.as_flat_dict()
                       if k.startswith("bank.") and k.endswith(".activations")]
        assert len(activations) == m.dram.geometry.num_banks

    def test_softtrr_layer_appears_when_loaded(self):
        m = Machine(machine="tiny")
        assert not any(k.startswith("softtrr.")
                       for k in m.telemetry.as_flat_dict())
        m.load_softtrr()
        assert "softtrr.protected_pages" in m.telemetry.as_flat_dict()

    def test_counters_move_with_work(self):
        m = Machine(machine="tiny")
        before = m.telemetry.as_flat_dict()
        m.run_workload(SHORT, seed=3)
        after = m.telemetry.as_flat_dict()
        assert after["clock.now_ns"] > before["clock.now_ns"]
        assert after["dram.reads"] >= before["dram.reads"]
        assert after["kernel.faults_handled"] > before["kernel.faults_handled"]

    def test_counter_and_group_views(self):
        m = Machine(machine="tiny")
        flat = m.telemetry.as_flat_dict()
        assert m.telemetry.counter("tlb.misses") == flat["tlb.misses"]
        dram = m.telemetry.group("dram")
        assert dram["reads"] == flat["dram.reads"]
        with pytest.raises(KeyError):
            m.telemetry.counter("no.such.counter")

    def test_legacy_counters_shim_is_gone(self):
        assert not hasattr(Machine(machine="tiny"), "counters")

    def test_tracker_layer_appears_when_defense_subscribes(self):
        m = Machine(machine="tiny", defense="para")
        flat = m.telemetry.as_flat_dict()
        assert flat["tracker.0.para.triggers"] == 0
        assert flat["tracker.0.para.sram_bits"] == 0
        assert flat["actuator.refreshes"] == 0
