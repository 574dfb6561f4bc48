"""Sweep execution: parallel == serial, byte for byte; CLI behaviour."""

import json

import pytest

from repro.scenarios import (
    ScenarioSpec,
    results_to_json,
    run_scenario,
    run_scenario_guarded,
    run_sweep,
    scenario_group,
)
from repro.scenarios.cli import main

SMOKE = ["smoke-spray-vanilla", "smoke-spray-softtrr",
         "smoke-overhead-exchange2", "smoke-stress-clone", "smoke-lamp-d1"]


class TestRunScenario:
    def test_accepts_registered_names(self):
        result = run_scenario("smoke-stress-clone")
        assert result.name == "smoke-stress-clone"
        assert result.payload["passed"] is True
        assert result.payload["iterations"] == 2

    def test_attack_verdicts_match_the_paper(self):
        bypassed = run_scenario("smoke-spray-vanilla")
        blocked = run_scenario("smoke-spray-softtrr")
        assert bypassed.payload["verdict"] == "bypassed"
        assert blocked.payload["verdict"] == "blocked"

    def test_result_payload_is_json_stable(self):
        result = run_scenario("smoke-overhead-exchange2")
        text = results_to_json([result])
        assert json.loads(text)[0]["payload"] == result.payload


class TestRunSweep:
    def test_serial_run_preserves_input_order(self):
        results = run_sweep(SMOKE, workers=1)
        assert [r.name for r in results] == SMOKE

    def test_two_workers_byte_identical_to_serial(self):
        serial = results_to_json(run_sweep(SMOKE, workers=1))
        parallel = results_to_json(run_sweep(SMOKE, workers=2))
        assert serial == parallel

    def test_repeated_serial_runs_are_deterministic(self):
        once = results_to_json(run_sweep(["smoke-stress-clone"]))
        twice = results_to_json(run_sweep(["smoke-stress-clone"]))
        assert once == twice


#: A spec that raises inside the runner (bad workload suite), for the
#: failure-containment tests.
BROKEN = ScenarioSpec(
    name="broken-cell", kind="overhead", group="smoke",
    workload="no-such-suite:prog")


class TestGuardedSweep:
    def test_guarded_turns_a_raise_into_an_error_result(self):
        result = run_scenario_guarded(BROKEN)
        assert result.name == "broken-cell"
        assert result.kind == "overhead"
        error = result.payload["error"]
        assert error["type"] == "ConfigError"
        assert "no-such-suite" in error["message"]

    def test_guarded_passes_through_a_healthy_cell(self):
        healthy = run_scenario("smoke-stress-clone")
        guarded = run_scenario_guarded("smoke-stress-clone")
        assert results_to_json([guarded]) == results_to_json([healthy])

    def test_failing_cell_never_sinks_its_siblings(self):
        mixed = ["smoke-spray-vanilla", BROKEN, "smoke-stress-clone"]
        results = run_sweep(mixed, workers=1)
        assert [r.name for r in results] == [
            "smoke-spray-vanilla", "broken-cell", "smoke-stress-clone"]
        assert "error" not in results[0].payload
        assert results[1].payload["error"]["type"] == "ConfigError"
        assert results[2].payload["passed"] is True

    def test_failure_results_identical_serial_and_parallel(self):
        mixed = ["smoke-spray-vanilla", BROKEN, "smoke-stress-clone"]
        serial = results_to_json(run_sweep(mixed, workers=1))
        parallel = results_to_json(run_sweep(mixed, workers=2))
        assert serial == parallel


class TestCli:
    def test_list_exits_zero_and_names_groups(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for group in ("table2:", "baselines:", "smoke:"):
            assert group in out

    def test_nothing_to_run_is_an_error(self, capsys):
        assert main([]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_scenario_is_an_error(self, capsys):
        assert main(["table9-nope"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_worker_count_is_an_error(self, capsys):
        assert main(["smoke-stress-clone", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_runs_named_scenarios_to_stdout(self, capsys):
        assert main(["smoke-stress-clone"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "smoke-stress-clone"

    def test_output_file_matches_stdout_bytes(self, tmp_path, capsys):
        assert main(["smoke-stress-clone"]) == 0
        stdout_text = capsys.readouterr().out
        target = tmp_path / "sweep.json"
        assert main(["smoke-stress-clone", "--out", str(target)]) == 0
        assert target.read_text() == stdout_text
