"""repro-trace CLI: record → report → export roundtrip + acceptance bar.

The acceptance property from the issue: a smoke run with
``trace="spans"`` yields at least six distinct event sites, and the
protection-window timeline shows a complete arm→access→refresh chain
for every refreshed L1PT row.
"""

import json

import pytest

from repro.trace import build_timeline, read_jsonl, events_to_chrome
from repro.trace.cli import main, record_smoke

WINDOW_NS = 50_000


@pytest.fixture(scope="module")
def smoke_machine():
    return record_smoke(seed=11, level="spans")


@pytest.fixture(scope="module")
def smoke_timeline(smoke_machine):
    return build_timeline(smoke_machine.telemetry.events(), WINDOW_NS)


class TestAcceptance:
    def test_at_least_six_distinct_sites(self, smoke_machine):
        assert len(smoke_machine.telemetry.trace_sites()) >= 6

    def test_every_refreshed_row_has_a_complete_chain(self, smoke_timeline):
        assert smoke_timeline["refreshes"] > 0
        assert (smoke_timeline["complete_chains"]
                == smoke_timeline["refreshes"])

    def test_chains_are_ordered_inside_the_window(self, smoke_timeline):
        for window in smoke_timeline["windows"]:
            for row in window["rows"]:
                assert row["arm_ns"] <= row["access_ns"] <= row["refresh_ns"]

    def test_span_sites_recorded(self, smoke_machine):
        names = smoke_machine.telemetry.span_histograms()
        assert "span.softtrr.tick_ns" in names
        assert "span.dram.hammer_batch_ns" in names
        assert "span.collector.initial_collect_ns" in names


class TestCliRoundtrip:
    def test_record_report_export(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        assert main(["record", "--out", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] > 0
        assert len(summary["sites"]) >= 6

        assert main(["report", str(trace), "--check"]) == 0
        err = capsys.readouterr().err
        assert "check passed" in err

        chrome = tmp_path / "trace_chrome.json"
        assert main(["export", str(trace), "--out", str(chrome)]) == 0
        capsys.readouterr()
        payload = json.loads(chrome.read_text())
        assert len(payload["traceEvents"]) == summary["events"]
        phases = {record["ph"] for record in payload["traceEvents"]}
        assert {"i", "B", "E"} <= phases

    def test_jsonl_roundtrip_lossless(self, tmp_path, smoke_machine):
        from repro.trace import write_jsonl

        trace = tmp_path / "trace.jsonl"
        events = smoke_machine.telemetry.events()
        assert write_jsonl(events, str(trace)) == len(events)
        assert read_jsonl(str(trace)) == events

    def test_report_check_fails_on_thin_trace(self, tmp_path, capsys):
        trace = tmp_path / "thin.jsonl"
        trace.write_text(
            '{"ns": 1, "site": "timer.fire", "kind": "event", "payload": {}}\n')
        assert main(["report", str(trace), "--check"]) == 1
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_missing_trace_is_a_usage_error(self, capsys):
        assert main(["report", "/nonexistent/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ['{"bad": 1}', "[1, 2]"])
    @pytest.mark.parametrize("command", ["report", "export"])
    def test_malformed_line_is_a_usage_error(self, tmp_path, capsys,
                                             line, command):
        # Such lines once escaped as KeyError/TypeError tracebacks with
        # exit 1, the code a failed --check uses.
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"ns": 1, "site": "timer.fire"}\n' + line + "\n")
        argv = [command, str(trace)]
        if command == "export":
            argv += ["--out", str(tmp_path / "out.json")]
        assert main(argv) == 2
        assert f"{trace}:2:" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_chrome_instants_carry_global_scope(self):
        from repro.trace import TraceEvent

        chrome = events_to_chrome(
            [TraceEvent(ns=1500, site="pte.arm", payload={"x": 1})])
        record = chrome["traceEvents"][0]
        assert record["ph"] == "i"
        assert record["s"] == "g"
        assert record["ts"] == 1.5
