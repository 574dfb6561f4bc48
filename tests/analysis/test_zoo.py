"""Zoo cells: specs, fleet gates, live cells, determinism."""

import pytest

from repro.analysis.zoo import (
    PATTERNS,
    ZOO_DEFENSES,
    build_machine,
    run_zoo_cell,
    zoo_specs,
)
from repro.errors import ConfigError, SanitizerViolationError
from repro.fleet.report import GROUP_GATES, summarise_zoo
from repro.mmu.tlb import Tlb
from repro.scenarios.registry import scenario_group
from repro.scenarios.runner import run_sweep
from repro.scenarios.spec import results_to_json


class TestSpecs:
    def test_grid_covers_every_defense_and_pattern(self):
        specs = zoo_specs()
        assert len(specs) == len(ZOO_DEFENSES) * (len(PATTERNS) + 1)
        names = {spec.name for spec in specs}
        assert "zoo-vanilla-one_sided" in names
        assert "zoo-dapper-spray" in names
        assert all(spec.kind == "zoo" and spec.group == "zoo"
                   for spec in specs)

    def test_unknown_defense_rejected(self):
        with pytest.raises(ConfigError):
            zoo_specs(defenses=("not-a-defense",))

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            zoo_specs(patterns=("ten_sided",))

    def test_registry_group_registered(self):
        specs = scenario_group("zoo")
        assert len(specs) == len(ZOO_DEFENSES) * (len(PATTERNS) + 1)
        assert all(spec.kind == "zoo" for spec in specs)


class TestSummarise:
    """The zoo's ``repro-fleet status --check`` gates, over records."""

    @staticmethod
    def _record(defense, protected, refreshes=5, activations=1000,
                sram_bits=64):
        return {"status": "ok", "payload": {
            "defense": defense, "protected": protected,
            "refreshes": refreshes, "activations": activations,
            "sram_bits": sram_bits}}

    def test_rates_and_gates(self):
        digest = summarise_zoo([
            self._record("vanilla", False, refreshes=0, sram_bits=0),
            self._record("vanilla", False, refreshes=0, sram_bits=0),
            self._record("para", True),
            self._record("para", False),
        ])
        assert GROUP_GATES["zoo"] is summarise_zoo
        assert digest["summary"]["para"]["protection_rate"] == 0.5
        assert digest["summary"]["para"]["sram_bits"] == 64
        assert digest["summary"]["vanilla"]["protection_rate"] == 0.0
        assert digest["gates"] == {
            "vanilla_flips_somewhere": True,
            "all_trackers_actuate": True,
            "some_tracker_beats_vanilla": True,
        }

    def test_dead_tracker_fails_the_gate(self):
        gates = summarise_zoo([
            self._record("vanilla", False, refreshes=0),
            self._record("ptmp", False, refreshes=0),
        ])["gates"]
        assert gates["all_trackers_actuate"] is False
        assert gates["some_tracker_beats_vanilla"] is False

    def test_toothless_bench_fails_the_gate(self):
        gates = summarise_zoo([
            self._record("vanilla", True, refreshes=0),
            self._record("para", True),
        ])["gates"]
        assert gates["vanilla_flips_somewhere"] is False


class TestLiveCells:
    def test_vanilla_cell_flips_and_is_deterministic(self):
        first = run_zoo_cell("vanilla", "one_sided")
        second = run_zoo_cell("vanilla", "one_sided")
        assert first == second
        assert first["flip_events"] > 0
        assert first["protected"] is False
        assert first["refreshes"] == 0
        assert first["sram_bits"] == 0

    def test_tracker_cell_protects_where_vanilla_flips(self):
        cell = run_zoo_cell("misra_gries", "one_sided")
        assert cell["protected"] is True
        assert cell["refreshes"] > 0
        assert cell["sram_bits"] > 0
        assert cell["tracker_counters"][
            "tracker.0.misra_gries.mitigations"] > 0

    def test_many_sided_is_chiptrr_blind_spot(self):
        cell = run_zoo_cell("chiptrr", "many_sided")
        assert cell["aggressors"] > 2  # wider than the tracker
        assert cell["protected"] is False
        two_sided = run_zoo_cell("chiptrr", "double_sided")
        assert two_sided["protected"] is True

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            run_zoo_cell("vanilla", "ten_sided")

    def test_sweep_parallel_matches_serial(self):
        specs = zoo_specs(defenses=("vanilla", "chiptrr"),
                          patterns=("one_sided", "many_sided"))
        serial = run_sweep(specs, workers=1)
        parallel = run_sweep(specs, workers=2)
        assert results_to_json(serial) == results_to_json(parallel)


class TestCellSanitizers:
    """Unfaulted cells run strict sanitizers; faulted cells report."""

    def test_unfaulted_cell_fails_on_a_violation(self, monkeypatch):
        # A buggy flush keeps the translation of a freshly armed PTE
        # cached, so the spray leg breaks the TLB invariant.
        monkeypatch.setattr(Tlb, "invlpg", lambda self, vaddr: None)
        with pytest.raises(SanitizerViolationError, match="invlpg"):
            run_zoo_cell("softtrr", "spray")

    def test_only_a_non_empty_fault_plan_keeps_report_mode(self):
        drop = {"specs": [{"site": "timers", "mode": "drop",
                           "probability": 0.5}]}
        assert build_machine("vanilla").sanitizers.strict is True
        assert build_machine(
            "vanilla", fault_plan={"specs": []}).sanitizers.strict is True
        assert build_machine(
            "vanilla", fault_plan=drop).sanitizers.strict is False
