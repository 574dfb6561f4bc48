"""Output digests: the byte-identity gate over every campaign payload.

Writes ``results/digests.json``: one sha256 per scenario-registry group
over the canonical JSON that ``repro-sweep --group G --jobs 1`` writes,
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
from repro.scenarios import cli as sweep_cli
from repro.scenarios import list_groups


def _digest(main, argv, path) -> str:
    assert main([*argv, "--out", str(path)]) == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.skipif(FULL, reason="digests pin the default scale")
def test_output_digests(tmp_path, capsys):
    manifest = {
        f"sweep/{group}": _digest(
            sweep_cli.main, ["--group", group, "--jobs", "1"],
            tmp_path / f"{group}.json")
        for group in list_groups()
    }
    manifest["fuzz/smoke"] = _digest(
        fuzz_cli.main, ["--smoke", "--jobs", "1"], tmp_path / "fuzz.json")
    save_result("digests.json", json.dumps(manifest, sort_keys=True,
                                           indent=2))
    with capsys.disabled():
        print(f"\n[{len(manifest)} digests saved to results/digests.json]")
