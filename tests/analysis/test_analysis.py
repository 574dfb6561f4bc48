"""Tests for the analysis harness (small-scale versions of the benches)."""

import dataclasses

import pytest

from repro.analysis.overhead import OverheadRow, measure_overhead
from repro.analysis.tables import (
    overhead_rows,
    render_lamp_series,
    render_matrix,
    render_overhead_table,
    render_table,
    render_table2,
    render_table5,
    save_result,
)
from repro.config import tiny_machine
from repro.scenarios import (
    ScenarioResult,
    run_scenario,
    run_sweep,
    scenario,
    scenario_group,
)
from repro.workloads.base import WorkloadProfile

FAST = WorkloadProfile(name="fast", duration_ms=25, hot_pages=8,
                       cold_pool_pages=64, cold_touches=2, churn_prob=0.1)


def on_tiny(group, **params):
    """A registry group moved to the tiny machine with ``params`` laid over."""
    return [dataclasses.replace(spec, machine="tiny",
                                params={**spec.params, **params})
            for spec in scenario_group(group)]


def result(name, payload):
    """A hand-built result for a registered scenario."""
    spec = scenario(name)
    return ScenarioResult(name=name, kind=spec.kind, group=spec.group,
                          payload=payload)


@pytest.fixture(scope="module")
def tiny_lamp():
    return run_sweep(on_tiny("lamp", minutes=5, workers=2,
                             requests_per_minute=8))


class TestOverhead:
    def test_measure_overhead_noise_free(self):
        row = measure_overhead(FAST, spec_factory=tiny_machine,
                               noise_sigma_pct=0.0)
        assert row.vanilla_ns > 0
        assert row.delta6_ns >= row.vanilla_ns  # noise-free: never negative
        assert row.delta1_ns >= row.vanilla_ns
        assert 0.0 <= row.delta6_pct < 5.0

    def test_noise_is_deterministic(self):
        a = measure_overhead(FAST, spec_factory=tiny_machine, seed=5)
        b = measure_overhead(FAST, spec_factory=tiny_machine, seed=5)
        assert a.delta6_pct == b.delta6_pct

    def test_suite_appends_mean(self):
        fast = measure_overhead(FAST, spec_factory=tiny_machine,
                                noise_sigma_pct=0.0)
        slow = dataclasses.replace(fast, name="slow", delta1_pct=3.0,
                                   delta6_pct=fast.delta6_pct + 2.0)
        rows = overhead_rows([
            result("table3-gcc_s", dataclasses.asdict(fast)),
            result("table3-mcf_s", dataclasses.asdict(slow)),
        ])
        assert [r.name for r in rows] == ["fast", "slow", "Mean"]
        mean = rows[-1]
        assert mean.delta1_pct == pytest.approx(
            (fast.delta1_pct + 3.0) / 2)
        assert mean.delta6_pct == pytest.approx(fast.delta6_pct + 1.0)
        assert mean.vanilla_ns == fast.vanilla_ns

    def test_duration_override(self):
        spec = scenario("table3-exchange2_s")
        spec = dataclasses.replace(spec, machine="tiny", params={
            **spec.params, "duration_ms": 10, "noise_sigma_pct": 0.0})
        payload = run_scenario(spec).payload
        assert payload["vanilla_ns"] >= 10_000_000
        assert payload["vanilla_ns"] < 25_000_000


class TestRobustness:
    def test_table5_all_pass_on_tiny_machine(self):
        results = run_sweep(on_tiny("table5", iterations=6))
        assert len(results) == 60
        for r in results:
            assert r.payload["passed"], (r.name, r.payload["error"])
            assert r.payload["iterations"] == 6
        text = render_table5(results)
        assert "FAIL" not in text
        assert len(text.splitlines()) == 4 + 20


class TestMemorySeries:
    def test_lamp_series_and_summary(self, tiny_lamp):
        series = {r.payload["distance"]: r.payload for r in tiny_lamp}
        assert set(series) == {1, 6}
        for payload in series.values():
            assert len(payload["series"]) == 5
            summary = payload["summary"]
            assert summary["ringbuf_kib"] == 396.0
            assert summary["final_memory_kib"] > 396.0
        assert (series[6]["series"][-1]["traced_pages"]
                >= series[1]["series"][-1]["traced_pages"])


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "long-header"], [["x", 1], ["yy", 22]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "long-header" in lines[2]
        assert len({len(l) for l in lines[2:4]}) <= 2  # consistent widths

    def test_render_table2(self):
        attack = {"m": 2, "flipped_pt_pages": [3, 9],
                  "bit_flip_failed": False}
        defended = {"m": 2, "flipped_pt_pages": [], "bit_flip_failed": True}
        text = render_table2([
            result("table2-memory_spray-vanilla", attack),
            result("table2-memory_spray-softtrr", defended),
        ])
        assert "Table II" in text
        row = text.splitlines()[-1].split()
        assert row[:3] == ["Dell", "Optiplex", "390"]
        assert row[-5:] == ["memory_spray", "2", "2", "0", "yes"]

    def test_render_overhead(self):
        row = OverheadRow(name="p", vanilla_ns=100, delta1_ns=101,
                          delta6_ns=102, delta1_pct=1.0, delta6_pct=2.0)
        text = render_overhead_table(
            [result("table3-gcc_s", dataclasses.asdict(row))], "T3")
        assert "+1.00%" in text and "+2.00%" in text
        assert text.splitlines()[-1].split() == ["Mean", "+1.00%", "+2.00%"]

    def test_render_table5(self):
        text = render_table5([
            result(f"table5-open-{label}",
                   {"test": "open", "distance": distance, "passed": passed})
            for label, distance, passed in (
                ("vanilla", None, True), ("d1", 1, True), ("d6", 6, False))
        ])
        assert text.splitlines()[-1].split() == [
            "File", "open", "pass", "pass", "FAIL"]

    def test_render_matrix(self):
        text = render_matrix([
            result("baselines-catt-cattmew",
                   {"verdict": "bypassed", "m": 1, "flipped_pt_pages": [5]}),
            # A structural block records only its verdict and detail.
            result("baselines-catt-memory_spray",
                   {"verdict": "blocked",
                    "detail": "DefenseError: structural"}),
        ])
        lines = text.splitlines()
        assert lines[-2].split() == [
            "catt", "cattmew", "bypassed", "1/1", "PTs", "flipped"]
        assert lines[-1].split() == [
            "catt", "memory_spray", "blocked", "DefenseError:", "structural"]

    def test_render_lamp_series(self, tiny_lamp):
        text = render_lamp_series(tiny_lamp, "memory_bytes", "Fig4",
                                  unit_divisor=1024.0, unit="KiB")
        assert "Fig4" in text and "minute" in text
        assert "D+-1 KiB" in text and "D+-6 KiB" in text
        assert "ring buffer 396" in text

    def test_save_result(self, tmp_path):
        path = save_result("x.txt", "hello", results_dir=str(tmp_path))
        assert open(path).read() == "hello\n"
