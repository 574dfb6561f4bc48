"""Output digests: the byte-identity gate over every campaign payload.

Writes ``results/digests.json``: one sha256 per scenario-registry group
over its canonical sweep JSON, ``results_to_json(run_sweep(group))``,
plus one over the ``repro-fuzz --smoke`` report.  The rounded
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
from repro.patterns import cli as fuzz_cli
from repro.scenarios import (
    list_groups,
    results_to_json,
    run_sweep,
    scenario_group,
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    save_result("digests.json", json.dumps(manifest, sort_keys=True,
                                           indent=2))
    with capsys.disabled():
        print(f"\n[{len(manifest)} digests saved to results/digests.json]")
