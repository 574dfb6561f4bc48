"""Chaos cells: specs, fleet gates, one cheap live cell."""

import pytest

from repro.analysis.chaos import (
    DEFAULT_INTENSITY,
    run_chaos_cell,
    site_spec,
)
from repro.errors import ConfigError
from repro.faults import FAULT_SITES
from repro.fleet.report import GROUP_GATES, group_gates, summarise_chaos
from repro.scenarios.registry import scenario_group

#: Small enough that templating finds nothing and the attack is blocked
#: quickly — the cell's bookkeeping is what is under test here.
CHEAP = {"m": 1, "region_pages": 64, "template_rounds": 200,
         "hammer_ns": 200_000}


class TestSpecs:
    def test_grid_covers_sites_and_both_columns(self):
        specs = scenario_group("chaos")
        names = {spec.name for spec in specs}
        assert names == {f"chaos-{site}-{label}" for site in FAULT_SITES
                         for label in ("healed", "raw")}
        assert all(spec.kind == "chaos" and spec.defense == "softtrr"
                   for spec in specs)

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            site_spec("cache")

    def test_registry_group_registered(self):
        specs = scenario_group("chaos")
        assert len(specs) == len(FAULT_SITES) * 2
        assert all(spec.kind == "chaos" for spec in specs)
        healed = [s for s in specs if s.params["healing"]]
        assert len(healed) == len(FAULT_SITES)


class TestSummarise:
    """The chaos harness's ``repro-fleet status --check`` gates."""

    @staticmethod
    def _record(site, healing, flips, erosion):
        return {"status": "ok", "payload": {
            "site": site, "healing": healing,
            "l1pt_flip_events": flips, "erosion_ns": erosion}}

    def test_clean_matrix(self):
        digest = summarise_chaos([
            self._record("timers", True, 0, 0),
            self._record("timers", False, 0, 400_000),
        ])
        assert GROUP_GATES["chaos"] is summarise_chaos
        assert digest["gates"] == {"healed_clean": True,
                                   "raw_erosion_seen": True}
        assert digest["summary"]["timers"]["raw_erosion_ns"] == 400_000

    def test_healed_flip_fails_the_gate(self):
        gates = summarise_chaos([
            self._record("mmu", True, 1, 0),
            self._record("mmu", False, 2, 100_000),
        ])["gates"]
        assert gates["healed_clean"] is False

    def test_dead_injection_fails_the_gate(self):
        gates = summarise_chaos([
            self._record("tlb", True, 0, 0),
            self._record("tlb", False, 0, 0),
        ])["gates"]
        assert gates["raw_erosion_seen"] is False

    def test_crashed_healed_cell_fails_the_group(self):
        # The raw cell alone still passes both chaos gates; the crashed
        # healed cell must not simply drop out of the group.
        manifest = {"spec": {"runner": "scenario"}, "cells": [
            {"cell_id": "h", "scenario": "chaos-timers-healed"},
            {"cell_id": "r", "scenario": "chaos-timers-raw"}]}
        records = {
            "h": {"status": "quarantined", "error": {"type": "Timeout"}},
            "r": self._record("timers", False, 0, 400_000)}
        assert group_gates(manifest, records)["chaos"]["gates"] == {
            "all_cells_ok": False, "healed_clean": True,
            "raw_erosion_seen": True}
        del records["h"]
        assert not group_gates(
            manifest, records)["chaos"]["gates"]["all_cells_ok"]


class TestLiveCell:
    def test_cell_payload_shape_and_determinism(self):
        first = run_chaos_cell("tlb", healing=False, attack_params=CHEAP)
        second = run_chaos_cell("tlb", healing=False, attack_params=CHEAP)
        assert first == second
        assert first["site"] == "tlb"
        assert first["mode"] == "lost_invlpg"
        assert first["intensity"] == DEFAULT_INTENSITY
        assert first["verdict"] in ("blocked", "bypassed")
        assert first["faults"]["opportunities"] > 0
        assert first["erosion_ns"] >= 0
        for key in ("l1pt_flip_events", "healing_stats",
                    "sanitizer_violations"):
            assert key in first

    def test_unknown_site_rejected(self):
        with pytest.raises(ConfigError):
            run_chaos_cell("cache", attack_params=CHEAP)
