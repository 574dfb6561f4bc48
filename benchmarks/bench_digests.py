"""Output digests: the byte-identity gate over every campaign payload.

Writes ``results/digests.json``: one sha256 per scenario-registry group
over its canonical sweep JSON, ``results_to_json(run_sweep(group))``,
one over the ``repro-fuzz --smoke`` report, one, ``window/smoke``,
over the window-cell payloads of the two window fleets the CI
fleet-smoke job runs (:data:`WINDOW_SPECS`), and one, ``trace/record``,
over the JSONL trace ``repro-trace record`` writes at its defaults
(:func:`~repro.trace.cli.record_smoke`: seed 11, ``spans`` level, the
tiny machine's memory spray under SoftTRR).  The rounded
``results/*.txt`` tables can hide a payload change; these digests
cannot, so the ``git diff -- results/`` that follows the paper-table
benches turns any change to a simulated output into a failure until
the new manifest is committed.

Skipped under ``REPRO_FULL=1``: the manifest pins the default scale.
"""

import hashlib
import json

import pytest
from conftest import FULL

from repro.analysis.tables import save_result
from repro.faults import SITE_MODES
from repro.fleet.runners import run_fleet_cell
from repro.fleet.spec import FleetSpec
from repro.patterns import cli as fuzz_cli
from repro.scenarios import (
    list_groups,
    results_to_json,
    run_sweep,
    scenario_group,
)
from repro.trace.cli import record_smoke
from repro.trace.export import write_jsonl


#: The window fleets of CI's fleet-smoke job: the 18-cell unfaulted
#: grid and the 8-cell ``--fault-sites timers`` grid (an unfaulted
#: point plus the CLI's single-site plan at probability 0.1).
WINDOW_SPECS = (
    FleetSpec(scenarios=("one_sided", "double_sided", "many_sided"),
              seeds=(1, 2), defenses=("vanilla", "chiptrr", "softtrr"),
              runner="window"),
    FleetSpec(scenarios=("double_sided", "many_sided"), seeds=(1, 2),
              defenses=("softtrr",), runner="window",
              fault_plans=(None, {"specs": [{
                  "site": "timers", "mode": SITE_MODES["timers"][0],
                  "probability": 0.1}], "seed": 0})),
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def window_payloads() -> list:
    """Every :data:`WINDOW_SPECS` cell's payload, in expansion order."""
    return [run_fleet_cell(cell.to_dict(), spec.runner, spec.runner_params)
            for spec in WINDOW_SPECS for cell in spec.expand()]


@pytest.mark.skipif(FULL, reason="digests pin the default scale")
def test_output_digests(tmp_path, capsys):
    manifest = {
        f"sweep/{group}": _sha256(
            results_to_json(run_sweep(scenario_group(group))).encode())
        for group in list_groups()
    }
    fuzz_path = tmp_path / "fuzz.json"
    assert fuzz_cli.main(
        ["--smoke", "--jobs", "1", "--out", str(fuzz_path)]) == 0
    manifest["fuzz/smoke"] = _sha256(fuzz_path.read_bytes())
    manifest["window/smoke"] = _sha256(json.dumps(
        window_payloads(), sort_keys=True, separators=(",", ":")).encode())
    trace_path = tmp_path / "trace.jsonl"
    write_jsonl(record_smoke().telemetry.events(), str(trace_path))
    manifest["trace/record"] = _sha256(trace_path.read_bytes())
    save_result("digests.json", json.dumps(manifest, sort_keys=True,
                                           indent=2))
    with capsys.disabled():
        print(f"\n[{len(manifest)} digests saved to results/digests.json]")
