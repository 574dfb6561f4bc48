"""CLI tests for the flow pass behind ``repro-lint --deep`` / ``--graph``.

Covers the acceptance bar: ``repro-lint src/repro --deep`` exits 0 on
the real tree; a seeded violation turns the exit non-zero; a tree the
flow pass cannot analyse is a usage error rather than a vacuous pass;
and the deep pass reuses the shallow pass's parsed ASTs (one
``ast.parse`` per file, total).
"""

import ast
import json
import shutil
from pathlib import Path

from repro.checkers import framework
from repro.checkers.lint import main as lint_main
from repro.cli_common import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE

REPO_ROOT = Path(__file__).resolve().parents[3]
SRC_REPRO = REPO_ROOT / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures"
#: The flow rules alone: the mini-fixtures skip ``__all__`` in their
#: package inits, which the shallow RPR005 would flag.
FLOW_RULES = "RPR009,RPR010,RPR011,RPR012,RPR013,RPR014"


def copy_fixture(tmp_path, name):
    root = tmp_path / name
    shutil.copytree(FIXTURES / name, root)
    return root


# ------------------------------------------------------------ self-check
def test_analyze_check_clean_on_real_tree(capsys):
    """The committed src/repro tree carries zero unsuppressed findings."""
    assert lint_main([str(SRC_REPRO), "--deep"]) == EXIT_OK
    assert capsys.readouterr().out == ""


def test_seeded_violation_fails_the_gate(tmp_path, capsys):
    """A clock read smuggled into a trace payload flips the exit code."""
    root = copy_fixture(tmp_path, "rpr009_good")
    assert lint_main([str(root), "--deep", "--rules", FLOW_RULES]) == EXIT_OK
    helpers = root / "helpers.py"
    helpers.write_text(helpers.read_text().replace(
        "return value + 1", "return value + value.now_ns"))
    assert lint_main([str(root), "--deep", "--rules", FLOW_RULES]) \
        == EXIT_CHECK_FAILED
    out = capsys.readouterr()
    assert "RPR009" in out.out


# ------------------------------------------------------------ output modes
def test_json_report_shape(tmp_path, capsys):
    root = copy_fixture(tmp_path, "rpr010_bad")
    assert lint_main([str(root), "--deep", "--rules", FLOW_RULES,
                      "--format", "json"]) == EXIT_CHECK_FAILED
    report = json.loads(capsys.readouterr().out)
    assert report["count"] == 2
    assert report["files"] == len(list(root.rglob("*.py")))
    assert report["deep"] is True
    assert report["wall_time_s"] >= 0
    assert {f["rule_id"] for f in report["findings"]} == {"RPR010"}
    assert all("symbol" in f for f in report["findings"])


def test_graph_dump_contains_resolved_edges(tmp_path, capsys):
    root = copy_fixture(tmp_path, "rpr009_bad")
    assert lint_main([str(root), "--graph"]) == EXIT_OK
    graph = json.loads(capsys.readouterr().out)
    edges = graph["edges"]["rpr009_bad.helpers.describe"]
    assert "rpr009_bad.helpers.transitive" in edges
    # One graph per run: two packages under PATHS are a usage error.
    other = copy_fixture(tmp_path, "rpr010_bad")
    assert lint_main([str(root), str(other), "--graph"]) == EXIT_USAGE
    assert "exactly one package" in capsys.readouterr().err


def test_list_rules_and_rule_selection(tmp_path, capsys):
    assert lint_main(["--list-rules"]) == EXIT_OK
    listed = capsys.readouterr().out
    for rule_id in FLOW_RULES.split(","):
        assert f"{rule_id}  [flow]" in listed
    root = copy_fixture(tmp_path, "rpr010_bad")
    # Selecting a different rule silences the RPR010 findings.
    assert lint_main([str(root), "--deep", "--rules", "RPR011"]) == EXIT_OK
    assert lint_main([str(root), "--deep", "--rules", "RPR999"]) \
        == EXIT_USAGE
    capsys.readouterr()


def test_bad_root_is_a_usage_error(tmp_path, capsys):
    assert lint_main([str(tmp_path / "missing"), "--deep"]) == EXIT_USAGE
    # A directory with nothing to lint is rejected, naming it.
    plain = tmp_path / "plain"
    plain.mkdir()
    assert lint_main([str(plain), "--deep"]) == EXIT_USAGE
    assert str(plain) in capsys.readouterr().err


def test_deep_outside_a_package_is_a_usage_error(tmp_path, capsys):
    """The flow pass never skips a file it cannot analyse."""
    plain = tmp_path / "plain"
    plain.mkdir()
    (plain / "mod.py").write_text(
        "import random\n\n\ndef make():\n    return random.Random(7)\n")
    for flags in (["--deep", "--rules", "RPR010"], ["--graph"]):
        assert lint_main([str(plain)] + flags) == EXIT_USAGE
        err = capsys.readouterr().err
        assert (plain / "mod.py").as_posix() in err and "package" in err


# -------------------------------------------------- repro-lint --deep
def test_lint_deep_runs_flow_rules(tmp_path, capsys):
    root = copy_fixture(tmp_path, "rpr010_bad")
    assert lint_main([str(root), "--deep", "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["deep"] is True
    assert report["wall_time_s"] >= 0
    assert any(f["rule_id"] == "RPR010" for f in report["findings"])


def test_lint_deep_selecting_flow_rule_requires_deep(tmp_path, capsys):
    root = copy_fixture(tmp_path, "rpr010_good")
    assert lint_main([str(root), "--rules", "RPR010"]) == 2
    assert "--deep" in capsys.readouterr().err
    assert lint_main([str(root), "--deep", "--rules", "RPR010"]) == 0


def test_lint_list_rules_shows_both_kinds(capsys):
    assert lint_main(["--list-rules"]) == 0
    listed = capsys.readouterr().out
    assert "RPR001" in listed and "[shallow]" in listed
    assert "RPR012" in listed and "[flow]" in listed


def test_deep_pass_parses_each_file_exactly_once(tmp_path, monkeypatch):
    """The AST cache: shallow + flow passes share one parse per file."""
    root = copy_fixture(tmp_path, "rpr009_good")
    py_files = list(root.rglob("*.py"))
    calls = []
    real_parse = ast.parse

    def counting_parse(source, *args, **kwargs):
        calls.append(kwargs.get("filename") or (args[0] if args else "?"))
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(framework.ast, "parse", counting_parse)
    # RPR001 keeps the shallow walk, RPR009 forces the flow pass; the
    # copied fixture is clean under both (RPR005 wants __all__ in real
    # package inits, which the mini-fixtures deliberately skip).
    assert lint_main(
        [str(root), "--deep", "--rules", "RPR001,RPR009"]) == 0
    assert len(calls) == len(py_files)
