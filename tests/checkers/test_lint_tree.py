"""Tree-level and CLI tests for ``repro-lint``.

The acceptance bar for the lint pass: exit 0 on the repository's own
``src/`` tree, and a non-zero exit naming rule ID and file:line when a
violation is seeded into a scratch tree.
"""

import json
from pathlib import Path

import pytest

from repro.checkers.lint import collect_files, lint_paths, main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


def seed_tree(tmp_path):
    """A scratch package with one violation per rule."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import helper\n__all__ = ['helper', 'phantom']\n")
    (pkg / "mod.py").write_text(
        "import time\n"
        "import random\n"
        "MASK = 1 << 51\n"
        "def helper(ops):\n"
        "    ops.write_entry(0, 0, MASK)\n")
    return pkg


class TestOwnTree:
    def test_src_tree_is_clean(self):
        assert lint_paths([str(SRC)]) == []

    def test_cli_exits_zero_on_src(self, capsys):
        assert main([str(SRC)]) == 0
        assert capsys.readouterr().out == ""

    def test_collect_files_finds_sources(self):
        files = collect_files([str(SRC)])
        names = {f.name for f in files}
        assert "lint.py" in names and "kernel.py" in names


class TestSeededTree:
    def test_all_rules_fire(self, tmp_path):
        pkg = seed_tree(tmp_path)
        findings = lint_paths([str(pkg)])
        assert {f.rule_id for f in findings} == {
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005"}

    def test_cli_reports_id_and_location(self, tmp_path, capsys):
        pkg = seed_tree(tmp_path)
        assert main([str(pkg)]) == 1
        out = capsys.readouterr().out
        mod = (pkg / "mod.py").as_posix()
        assert f"{mod}:1:" in out and "RPR001" in out
        assert f"{mod}:3:" in out and "RPR003" in out
        assert f"{mod}:5:" in out and "RPR004" in out

    def test_json_format(self, tmp_path, capsys):
        pkg = seed_tree(tmp_path)
        assert main([str(pkg), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == len(payload["findings"]) >= 5
        sample = payload["findings"][0]
        assert {"rule_id", "path", "line", "col", "message"} <= set(sample)

    def test_rule_selection(self, tmp_path):
        pkg = seed_tree(tmp_path)
        findings = lint_paths([str(pkg / "mod.py")])
        assert len(findings) == 4
        assert main([str(pkg / "mod.py"), "--rules", "RPR003"]) == 1


class TestCliErrors:
    def test_missing_path_exits_2(self, capsys):
        assert main(["definitely/not/here"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_unknown_rule_exits_2(self, capsys):
        assert main([str(SRC), "--rules", "RPR999"]) == 2
        assert "RPR999" in capsys.readouterr().err

    def test_empty_rule_list_exits_2(self, tmp_path, capsys):
        """Selecting zero rules is a usage error, not a clean pass."""
        pkg = seed_tree(tmp_path)
        for spec in (",", ""):
            assert main([str(pkg), "--rules", spec]) == 2
            assert "names no rule IDs" in capsys.readouterr().err

    def test_no_python_files_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        assert main([str(bad)]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("RPR001", "RPR002", "RPR003", "RPR004", "RPR005"):
            assert rule_id in out
