"""Fixture-package tests for the flow rules RPR009..RPR014.

Each known-bad mini-package under ``fixtures/`` seeds exactly the
violations its rule must catch (including an aliasing case and a
cross-module re-export case for RPR010); each known-good twin exercises
the same shapes done right and must stay silent.

Fixtures are copied to ``tmp_path`` before analysis: the rules exempt
``tests/`` paths (so linting the repo never trips over these deliberate
violations), and the copy moves them out from under that umbrella.
"""

import shutil
from pathlib import Path

import pytest

from repro.checkers.flow import Program, flow_rules, run_flow_rules
from repro.checkers.lint import load_sources, package_sources

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def build_program(root):
    """The Program ``repro-lint ROOT --deep`` builds for package ``root``."""
    (members,) = package_sources(load_sources([str(root)])).values()
    return Program.from_sources(members)


def analyze_fixture(tmp_path, name, rule_id=None):
    """Copy fixture ``name`` out of tests/ and run the flow rules."""
    root = tmp_path / name
    shutil.copytree(FIXTURES / name, root)
    program = build_program(root)
    rules = flow_rules()
    if rule_id is not None:
        rules = tuple(r for r in rules if r.rule_id == rule_id)
    return root, program, run_flow_rules(program, rules)


# ------------------------------------------------------- RPR009 (trace)
def test_rpr009_fires_on_transitive_clock_read(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr009_bad", "RPR009")
    clock_hits = [f for f in findings if "now_ns" in f.message]
    assert clock_hits, findings
    hit = clock_hits[0]
    assert hit.rule_id == "RPR009"
    assert hit.path.endswith("emitter.py")
    # Anchored at the emission site, naming the transitive culprit and
    # the call chain that reaches it.
    assert "rpr009_bad.helpers.transitive" in hit.message
    assert "describe" in hit.message


def test_rpr009_fires_on_direct_rng_draw_in_payload(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr009_bad", "RPR009")
    rng_hits = [f for f in findings if "randint" in f.message]
    assert rng_hits, findings
    assert rng_hits[0].symbol.endswith("Roller.roll")


def test_rpr009_silent_on_pure_payload(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr009_good", "RPR009")
    assert findings == []


# --------------------------------------------------------- RPR010 (rng)
def test_rpr010_catches_cross_module_alias_laundering(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr010_bad", "RPR010")
    # Two constructions: through the re-exported stored factory
    # (rnglib alias -> reexport -> user attribute) and the direct one.
    assert {f.symbol.rsplit(".", 1)[-1] for f in findings} == \
        {"make", "direct"}
    assert all(f.rule_id == "RPR010" for f in findings)
    assert all("random.Random" in f.message for f in findings)


def test_rpr010_silent_when_derived(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr010_good", "RPR010")
    assert findings == []


def test_rpr010_suppression_comment_honoured(tmp_path):
    root = tmp_path / "rpr010_bad"
    shutil.copytree(FIXTURES / "rpr010_bad", root)
    user = root / "user.py"
    patched = user.read_text().replace(
        "return random.Random(1)",
        "return random.Random(1)  # repro-lint: disable=RPR010")
    user.write_text(patched)
    program = build_program(root)
    findings = run_flow_rules(program)
    assert {f.symbol.rsplit(".", 1)[-1] for f in findings} == {"make"}


# ---------------------------------------------------- RPR011 (snapshot)
def test_rpr011_fires_on_unregistered_installer(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr011_bad", "RPR011")
    assert len(findings) == 1
    hit = findings[0]
    assert hit.rule_id == "RPR011"
    assert hit.symbol.endswith("Widget.install")
    assert "closure" in hit.message
    assert "not uninstalled by Machine.snapshot" in hit.message


def test_rpr011_silent_when_registered_or_cleared(tmp_path):
    # Widget is uninstalled by Machine.snapshot; Hooker's hook attribute
    # is cleared by the registered Widget.uninstall.
    _, _, findings = analyze_fixture(tmp_path, "rpr011_good", "RPR011")
    assert findings == []


# -------------------------------------------------------- RPR012 (pool)
def test_rpr012_fires_on_each_unpicklable_shape(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr012_bad", "RPR012")
    by_symbol = {f.symbol.rsplit(".", 1)[-1]: f.message for f in findings}
    assert "lambda" in by_symbol["run_lambda"]
    assert "nested" in by_symbol["run_nested"]
    assert "bound method" in by_symbol["run"]
    assert "_MODE" in by_symbol["run_capture"]
    assert len(findings) == 4


def test_rpr012_silent_on_toplevel_capture_free_worker(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr012_good", "RPR012")
    assert findings == []


# ---------------------------------------------------- RPR013 (layering)
def test_rpr013_fires_on_each_layering_breach(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr013_bad", "RPR013")
    by_symbol = {}
    for finding in findings:
        by_symbol.setdefault(
            finding.symbol.rsplit(".", 2)[-2], []).append(finding.message)
    # Substrate method call on a typed attribute.
    assert any("DramModule" in m for m in by_symbol["DirectHealer"])
    # BankState poking, and a transitive Tracker subclass.
    assert any("BankState" in m for m in by_symbol["BankPeeker"])
    assert any("constructs" in m for m in by_symbol["DeepTracker"])
    assert all(f.rule_id == "RPR013" for f in findings)


def test_rpr013_silent_on_feed_mediated_policy(tmp_path):
    # The feed itself may drive the substrate — only Tracker subclasses
    # are held to the interface.
    _, _, findings = analyze_fixture(tmp_path, "rpr013_good", "RPR013")
    assert findings == []


# ------------------------------------------------- RPR014 (pattern DSL)
def test_rpr014_fires_on_direct_clock_read_in_compile(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr014_bad", "RPR014")
    clock_hits = [f for f in findings if "now_ns" in f.message]
    assert clock_hits, findings
    hit = clock_hits[0]
    assert hit.rule_id == "RPR014"
    assert hit.path.endswith("patterns/compile.py")
    assert hit.symbol.endswith("compile.resolve")


def test_rpr014_fires_on_transitive_rng_draw(tmp_path):
    _, _, findings = analyze_fixture(tmp_path, "rpr014_bad", "RPR014")
    rng_hits = [f for f in findings if "randint" in f.message]
    assert rng_hits, findings
    hit = rng_hits[0]
    # Anchored at the helper that draws, with the chain from the seed.
    assert hit.path.endswith("timing.py")
    assert "rpr014_bad.patterns.compile.unroll" in hit.message
    assert "rpr014_bad.timing.jitter" in hit.message


def test_rpr014_permits_derive_rng_and_execution_effects(tmp_path):
    # The good twin derives a named stream at compile (sanctioned) and
    # keeps clock/RNG use in the execution module (not a seed).
    _, _, findings = analyze_fixture(tmp_path, "rpr014_good", "RPR014")
    assert findings == []


# ------------------------------------------------------- cross-fixture
@pytest.mark.parametrize("name", [
    "rpr009_good", "rpr010_good", "rpr011_good", "rpr012_good",
    "rpr013_good", "rpr014_good"])
def test_good_fixtures_clean_under_all_rules(tmp_path, name):
    _, _, findings = analyze_fixture(tmp_path, name)
    assert findings == []


def test_call_graph_resolves_cross_module_edges(tmp_path):
    _, program, _ = analyze_fixture(tmp_path, "rpr009_bad")
    step = "rpr009_bad.emitter.Engine.step"
    assert "rpr009_bad.helpers.describe" in program.callees(step)
    assert "rpr009_bad.helpers.transitive" in \
        program.callees("rpr009_bad.helpers.describe")
