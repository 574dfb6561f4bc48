"""The atomic-write helpers every artifact writer goes through."""

import json
import os

import pytest

from repro.cli_common import atomic_write_json, atomic_write_text


class TestAtomicWriteText:
    def test_writes_exact_bytes(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "hello\n")
        assert target.read_bytes() == b"hello\n"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(str(target), "new\n")
        assert target.read_text() == "new\n"

    def test_leaves_no_temp_droppings(self, tmp_path):
        target = tmp_path / "out.txt"
        atomic_write_text(str(target), "x\n")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failed_write_preserves_the_old_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("precious")
        with pytest.raises(TypeError):
            atomic_write_text(str(target), 12345)  # not a str
        assert target.read_text() == "precious"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_missing_parent_dir_is_an_error(self, tmp_path):
        with pytest.raises(OSError):
            atomic_write_text(str(tmp_path / "no" / "dir.txt"), "x")


class TestAtomicWriteJson:
    def test_canonical_json_with_trailing_newline(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(str(target), {"b": 1, "a": 2})
        text = target.read_text()
        assert text == json.dumps({"a": 2, "b": 1}, sort_keys=True,
                                  indent=2) + "\n"

    def test_round_trips(self, tmp_path):
        target = tmp_path / "out.json"
        payload = {"nested": {"list": [1, 2, 3]}, "flag": True}
        atomic_write_json(str(target), payload)
        assert json.loads(target.read_text()) == payload


class TestCanonicalSpellings:
    def test_retired_aliases_exit_2(self, tmp_path, capsys):
        """``--workers``/``--output`` are gone: only ``--jobs``/``--out``."""
        from repro.patterns.cli import main

        for argv in (["--workers", "1"],
                     ["--output", str(tmp_path / "fuzz.json")]):
            with pytest.raises(SystemExit) as exc:
                main(["--points", "1", "--defenses", "vanilla"] + argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


class TestWritersGoThroughTheHelper:
    """The --out paths of the artifact-writing CLIs stay atomic."""

    def test_trace_jsonl_writer_is_atomic(self, tmp_path, monkeypatch):
        calls = []
        import repro.cli_common as cli_common
        real = cli_common.atomic_write_text
        monkeypatch.setattr(
            cli_common, "atomic_write_text",
            lambda path, text, **kw: calls.append(path) or
            real(path, text, **kw))
        from repro.trace.events import TraceEvent
        from repro.trace.export import write_chrome, write_jsonl

        events = [TraceEvent(ns=1, site="refresh.row", kind="event",
                             payload={"bank": 0, "row": 1})]
        write_jsonl(events, str(tmp_path / "t.jsonl"))
        write_chrome(events, str(tmp_path / "t.chrome.json"))
        assert [os.path.basename(p) for p in calls] == [
            "t.jsonl", "t.chrome.json"]

    def test_fuzz_cli_out_is_atomic(self, tmp_path, monkeypatch, capsys):
        calls = []
        import repro.cli_common as cli_common
        real = cli_common.atomic_write_text
        monkeypatch.setattr(
            cli_common, "atomic_write_text",
            lambda path, text, **kw: calls.append(path) or
            real(path, text, **kw))
        from repro.patterns.cli import main

        target = tmp_path / "fuzz.json"
        assert main(["--points", "1", "--defenses", "vanilla",
                     "--out", str(target)]) == 0
        assert calls == [str(target)]
        assert json.loads(target.read_text())["points"] == 1
