"""The campaign benchmark's own tests, on tiny campaign slices (~1 min).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402
from campaigns import cell_error  # noqa: E402

#: Metrics run.py adds on top of the child's per-layer table.
DRIVER_LAYER_METRICS = {"trace.overhead_s", "trace.overhead_pct"}


def _names(kind: str) -> set:
    return {metric["name"] for metric in BENCHMARK[kind]}


@pytest.fixture(scope="module", params=run.WORKLOADS)
def launches(request, tmp_path_factory):
    """Two untraced, one traced and one other-seed tiny launch."""
    workload = request.param
    work = tmp_path_factory.mktemp(workload)
    runner = run.Runner(workload, 11, work / "seed11", tiny=True)
    other = run.Runner(workload, 12, work / "seed12", tiny=True)
    return {
        "plain": [runner.launch(), runner.launch()],
        "traced": runner.launch(traced=True),
        "other_seed": other.launch(),
    }


def test_two_runs_give_the_same_digest(launches):
    first, second = launches["plain"]
    assert first["digest"] == second["digest"]


def test_traced_digest_equals_untraced(launches):
    assert launches["traced"]["digest"] == launches["plain"][0]["digest"]


def test_seed_reaches_the_campaign(launches):
    assert launches["other_seed"]["digest"] != \
        launches["plain"][0]["digest"]


def test_gates_hold_with_no_failed_cells(launches):
    for rep in launches["plain"] + [launches["traced"],
                                    launches["other_seed"]]:
        assert rep["failed"] == 0
        assert rep["gates"] and all(rep["gates"].values()), rep["gates"]


def test_traced_run_emits_every_per_layer_metric(launches):
    emitted = set(launches["traced"]["layers"]) | DRIVER_LAYER_METRICS
    assert emitted == _names("per_layer")


def test_units_match_benchmark_json():
    for kind in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[kind]:
            assert run.unit_of(metric["name"]) == metric["unit"], metric


def test_cell_error_needs_an_error_dict():
    assert not cell_error({"error": None, "passed": True})
    assert not cell_error({"verdict": "blocked"})
    assert cell_error({"error": {"type": "KernelPanic", "message": "x"}})


def _drive(*extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "zoo_fleet",
         "--seed", "11", "--seconds", "0", *extra],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"),
                                        ("1", "per_layer")])
def test_driver_prints_every_metric_with_its_unit(trace, kind):
    proc = _drive("--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == _names(kind)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == run.unit_of(name)
        assert isinstance(entry["value"], (int, float))


def test_driver_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _drive("--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
