"""Tests for the ``REPRO_BATCH`` knob (:mod:`repro.batching`)."""

import pytest

from repro.batching import batch_enabled
from repro.errors import ConfigError
from repro.workloads.base import WorkloadProfile


class TestBatchEnabled:
    def test_default_on_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_BATCH", raising=False)
        assert batch_enabled()
        assert not batch_enabled(default=False)

    @pytest.mark.parametrize("value", ["0", "false", "no", "off",
                                       " OFF ", "False"])
    def test_off_values(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        assert not batch_enabled()

    @pytest.mark.parametrize("value", ["1", "true", "yes", "on", ""])
    def test_everything_else_is_on(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_BATCH", value)
        assert batch_enabled()

    def test_read_at_call_time_not_import_time(self, monkeypatch):
        monkeypatch.setenv("REPRO_BATCH", "0")
        assert not batch_enabled()
        monkeypatch.setenv("REPRO_BATCH", "1")
        assert batch_enabled()


class TestHotTouchRepeat:
    def test_default_is_one(self):
        assert WorkloadProfile(name="p").hot_touch_repeat == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="p", hot_touch_repeat=0)
