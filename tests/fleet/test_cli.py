"""``repro-fleet`` CLI flows, driven in-process through ``main``."""

import json

import pytest

from repro.cli_common import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE
from repro.fleet import ResultDir
from repro.fleet.cli import main
from repro.scenarios import (
    SCENARIOS,
    list_groups,
    results_to_json,
    run_sweep,
    scenario_group,
)


def _run_tiny(tmp_path, capsys, extra=()):
    out = str(tmp_path / "fleet")
    code = main([
        "run", "--out", out, "--runner", "synthetic",
        "--scenarios", "synth-000", "synth-001",
        "--seeds", "1", "2", "--shards", "2", "--backoff", "0.01",
        "--json", *extra])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip())
    return out, summary


class TestRun:
    def test_run_completes_and_reports_summary(self, tmp_path, capsys):
        out, summary = _run_tiny(tmp_path, capsys)
        assert summary["cells"] == 4
        assert summary["ok"] == 4
        assert summary["result_dir"] == out
        assert ResultDir(out).exists()

    def test_run_requires_out(self, capsys):
        assert main(["run", "--scenarios", "x",
                     "--runner", "synthetic"]) == EXIT_USAGE
        assert "--out" in capsys.readouterr().err

    def test_run_requires_scenarios(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "f"),
                     "--runner", "synthetic"])
        assert code == EXIT_USAGE
        assert "nothing to run" in capsys.readouterr().err

    def test_nothing_to_run_is_an_error(self, tmp_path, capsys):
        # The default scenario runner with no --scenarios/--group.
        out = tmp_path / "f"
        assert main(["run", "--out", str(out)]) == EXIT_USAGE
        assert "nothing to run" in capsys.readouterr().err
        assert not out.exists()

    def test_run_from_spec_file(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenarios": ["synth-000"], "runner": "synthetic",
            "shards": 1}), encoding="utf-8")
        code = main(["run", "--spec", str(spec_path),
                     "--out", str(tmp_path / "f"), "--json"])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out.strip())["ok"] == 1

    def test_unreadable_spec_file(self, tmp_path, capsys):
        code = main(["run", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "f")])
        assert code == EXIT_USAGE
        assert "cannot read fleet spec" in capsys.readouterr().err

    def test_seeds_range_expands_inclusively(self, tmp_path, capsys):
        out, summary = _run_tiny(
            tmp_path, capsys, extra=["--seeds-range", "5", "7"])
        # 2 scenarios x (2 listed + 3 ranged seeds).
        assert summary["cells"] == 10
        spec = ResultDir(out).load_spec()
        assert spec.seeds == (1, 2, 5, 6, 7)

    def test_bad_seeds_range(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "f"),
                     "--runner", "synthetic", "--scenarios", "x",
                     "--seeds-range", "9", "2"])
        assert code == EXIT_USAGE

    def test_fault_sites_build_plans_plus_baseline(self, tmp_path,
                                                   capsys):
        out, summary = _run_tiny(
            tmp_path, capsys, extra=["--fault-sites", "timers"])
        # The fault axis gains a None baseline + one single-site plan.
        assert summary["cells"] == 8
        spec = ResultDir(out).load_spec()
        assert spec.fault_plans[0] is None
        assert spec.fault_plans[1]["specs"][0]["site"] == "timers"

    def test_unknown_fault_site(self, tmp_path, capsys):
        code = main(["run", "--out", str(tmp_path / "f"),
                     "--runner", "synthetic", "--scenarios", "x",
                     "--fault-sites", "cosmic-rays"])
        assert code == EXIT_USAGE
        assert "unknown fault site" in capsys.readouterr().err

    def test_unknown_scenario_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "f"
        code = main(["run", "--scenarios", "table9-nope",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "unknown scenario" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_jobs_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "f"
        code = main(["run", "--group", "smoke", "--jobs", "0",
                     "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_existing_result_dir_is_an_error(self, tmp_path, capsys):
        out, _ = _run_tiny(tmp_path, capsys)
        code = main(["run", "--out", out, "--runner", "synthetic",
                     "--scenarios", "synth-000"])
        assert code == EXIT_USAGE
        assert "already holds" in capsys.readouterr().err


class TestStatusReportResume:
    def test_status_check_gates_on_completion(self, tmp_path, capsys):
        out, _ = _run_tiny(tmp_path, capsys)
        assert main(["status", out, "--check"]) == EXIT_OK
        capsys.readouterr()
        assert main(["status", out, "--json"]) == EXIT_OK
        status = json.loads(capsys.readouterr().out)
        assert status["complete"] and status["cells"] == 4

    def test_status_check_fails_on_partial_dir(self, tmp_path, capsys):
        from repro.fleet import FleetSpec

        spec = FleetSpec(scenarios=("synth-000", "synth-001"),
                         runner="synthetic")
        rd = ResultDir(str(tmp_path / "f"))
        rd.initialise(spec, spec.expand())
        assert main(["status", rd.root, "--check"]) == EXIT_CHECK_FAILED
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_status_on_missing_dir(self, tmp_path, capsys):
        code = main(["status", str(tmp_path / "nope")])
        assert code == EXIT_USAGE
        assert "no fleet manifest" in capsys.readouterr().err

    def test_report_writes_into_result_dir(self, tmp_path, capsys):
        out, _ = _run_tiny(tmp_path, capsys)
        assert main(["report", out]) == EXIT_OK
        report = ResultDir(out).read_report()
        assert report["fleet"]["ok"] == 4
        assert "fleet: 4/4 cells ok" in capsys.readouterr().out

    def test_report_out_override_and_json(self, tmp_path, capsys):
        out, _ = _run_tiny(tmp_path, capsys)
        target = str(tmp_path / "custom_report.json")
        assert main(["report", out, "--out", target, "--json"]) \
            == EXIT_OK
        printed = json.loads(capsys.readouterr().out)
        on_disk = json.loads(open(target, encoding="utf-8").read())
        assert printed == on_disk
        assert ResultDir(out).read_report() is None

    def test_resume_noop_round_trip(self, tmp_path, capsys):
        out, _ = _run_tiny(tmp_path, capsys)
        assert main(["resume", out, "--json"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["already_done"] == 4 and summary["ran"] == 0

    def test_resume_missing_dir(self, tmp_path, capsys):
        assert main(["resume", str(tmp_path / "nope")]) == EXIT_USAGE


def test_progress_lines_go_to_stderr(tmp_path, capsys):
    out = str(tmp_path / "fleet")
    code = main(["run", "--out", out, "--runner", "synthetic",
                 "--scenarios", "synth-000", "--shards", "1"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "[1/1]" in captured.err
    assert "fleet: 1 ok" in captured.out


def test_group_flag_pulls_registered_scenarios(tmp_path, capsys):
    out = str(tmp_path / "fleet")
    code = main(["run", "--out", out, "--group", "smoke",
                 "--shards", "1", "--timeout", "120", "--json"])
    assert code == EXIT_OK
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["ok"] == summary["cells"] >= 2
    # Each payload is the in-process sweep's, plus the kind/defense
    # keys the fleet adds where the scenario's payload lacks them.
    sweep = {result["name"]: result["payload"] for result in json.loads(
        results_to_json(run_sweep(scenario_group("smoke"))))}
    records = ResultDir(out).load_records().values()
    assert sorted(record["scenario"] for record in records) \
        == sorted(sweep)
    for record in records:
        expected = sweep[record["scenario"]]
        assert {key: value for key, value in record["payload"].items()
                if key in expected or key not in ("kind", "defense")} \
            == expected


def test_list_names_every_group_and_scenario(capsys):
    assert main(["list"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line[:-1] for line in lines if not line.startswith(" ")] \
        == list_groups()
    assert [line.split()[0] for line in lines if line.startswith(" ")] \
        == [spec.name for group in list_groups()
            for spec in scenario_group(group)]
    assert len(lines) == len(list_groups()) + len(SCENARIOS)


class TestGroupGates:
    """``status --check`` also enforces the gates of fleet groups."""

    @staticmethod
    def _run_zoo_pair(tmp_path, capsys):
        out = str(tmp_path / "zoo")
        assert main(["run", "--out", out, "--scenarios",
                     "zoo-vanilla-double_sided", "zoo-para-double_sided",
                     "--shards", "1", "--json"]) == EXIT_OK
        capsys.readouterr()
        return out

    @staticmethod
    def _rewrite_vanilla_record(out, rewrite):
        shard = ResultDir(out).shard_path(0)
        records = [json.loads(line)
                   for line in open(shard, encoding="utf-8")]
        for record in records:
            if record["payload"]["defense"] == "vanilla":
                rewrite(record)
        with open(shard, "w", encoding="utf-8") as handle:
            handle.writelines(json.dumps(r) + "\n" for r in records)

    def test_zoo_fleet_gates_pass_then_fail_on_a_rewritten_record(
            self, tmp_path, capsys):
        out = self._run_zoo_pair(tmp_path, capsys)
        assert main(["status", out, "--check"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "group zoo: 4/4 gates pass" in printed
        for gate in ("all_cells_ok", "vanilla_flips_somewhere",
                     "all_trackers_actuate", "some_tracker_beats_vanilla"):
            assert f"PASS {gate}" in printed
        # Claim vanilla protected its cell: the bench loses its teeth.
        self._rewrite_vanilla_record(
            out, lambda record: record["payload"].update(protected=True))
        assert main(["status", out, "--check"]) == EXIT_CHECK_FAILED
        assert ("zoo gate vanilla_flips_somewhere failed"
                in capsys.readouterr().err)

    @staticmethod
    def _quarantine(record):
        record.update(status="quarantined", error={
            "type": "KernelPanic", "message": "injected"})
        del record["payload"]

    def test_a_quarantined_member_fails_its_group(self, tmp_path, capsys):
        out = self._run_zoo_pair(tmp_path, capsys)
        # Every cell is accounted for, so only the group gate can fail
        # the check for the crashed cell.
        self._rewrite_vanilla_record(out, self._quarantine)
        assert main(["status", out, "--check"]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert "zoo gate all_cells_ok failed" in err
        assert "not yet accounted for" not in err

    @pytest.mark.parametrize("group, run_args", [
        ("window", ("--runner", "window", "--scenarios", "one_sided",
                    "--defenses", "vanilla")),
        ("fuzz", ("--runner", "fuzz", "--scenarios", "point-0",
                  "--defenses", "vanilla")),
        ("smoke", ("--scenarios", "smoke-spray-vanilla")),
    ], ids=["window", "fuzz", "ungated-scenario-group"])
    def test_every_non_synthetic_fleet_fails_on_a_quarantined_cell(
            self, tmp_path, capsys, group, run_args):
        out = str(tmp_path / "fleet")
        assert main(["run", "--out", out, *run_args, "--shards", "1",
                     "--json"]) == EXIT_OK
        capsys.readouterr()
        assert main(["status", out, "--check"]) == EXIT_OK
        assert f"group {group}: 1/1 gates pass" in capsys.readouterr().out
        self._rewrite_vanilla_record(out, self._quarantine)
        assert main(["status", out, "--check"]) == EXIT_CHECK_FAILED
        err = capsys.readouterr().err
        assert f"{group} gate all_cells_ok failed" in err
        assert "not yet accounted for" not in err

    def test_synthetic_fleet_has_no_gates(self, tmp_path, capsys):
        # The CI fleet-smoke spec's shape, minus its pacing.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "scenarios": [f"synth-{i:03d}" for i in range(20)],
            "seeds": [1, 2, 3], "runner": "synthetic",
            "runner_params": {"poison": ["synth-007@2"]},
            "shards": 4, "timeout_s": 30.0, "max_attempts": 3,
            "backoff_s": 0.01}), encoding="utf-8")
        out = str(tmp_path / "fleet")
        assert main(["run", "--spec", str(spec_path), "--out", out,
                     "--json"]) == EXIT_OK
        capsys.readouterr()
        assert main(["status", out, "--check"]) == EXIT_OK
        assert "group" not in capsys.readouterr().out
        assert main(["status", out, "--json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["groups"] == {}
