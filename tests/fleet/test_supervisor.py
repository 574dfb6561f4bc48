"""Supervisor robustness: retry, quarantine, timeout, resume no-op.

The retry, quarantine and timeout cases run at ``jobs=1`` (every
attempt in the test's own process, timed by ``ITIMER_REAL``) and at
``jobs=2`` (a forked worker pool).
"""

import signal
from multiprocessing.process import BaseProcess

import pytest

from repro.config import tiny_machine
from repro.dram.address import _build_tables, linear_mapping
from repro.dram.disturbance import shared_cell_map
from repro.errors import ConfigError
from repro.fleet import FleetSpec, ResultDir, resume_fleet, run_fleet
from repro.fleet import supervisor


def _spec(n=6, **overrides):
    base = dict(
        scenarios=tuple(f"synth-{i:03d}" for i in range(n)),
        runner="synthetic",
        shards=2,
        timeout_s=30.0,
        max_attempts=3,
        backoff_s=0.01,
    )
    base.update(overrides)
    return FleetSpec(**base)


def test_clean_fleet_completes_every_cell(tmp_path):
    out = str(tmp_path / "fleet")
    events = []
    summary = run_fleet(_spec(), out, jobs=2, progress=events.append)
    assert summary["cells"] == summary["ok"] == summary["ran"] == 6
    assert summary["quarantined"] == summary["retries"] == 0
    records = ResultDir(out).load_records()
    assert len(records) == 6
    assert all(r["attempts"] == 1 for r in records.values())
    assert sum(1 for e in events if e["event"] == "ok") == 6


@pytest.mark.parametrize("jobs", [1, 2])
def test_poison_cell_is_retried_then_quarantined(tmp_path, jobs):
    out = str(tmp_path / "fleet")
    events = []
    spec = _spec(runner_params={"poison": ["synth-002"]},
                 max_attempts=3)
    summary = run_fleet(spec, out, jobs=jobs, progress=events.append)
    assert summary["ok"] == 5
    assert summary["quarantined"] == 1
    # A poison cell burns max_attempts - 1 retries, exactly.
    assert summary["retries"] == 2
    retried = [e for e in events if e["event"] == "retry"]
    assert len(retried) == 2
    assert {e["cell_id"] for e in retried} == {
        next(c.cell_id for c in spec.expand()
             if c.scenario == "synth-002")}

    records = ResultDir(out).load_records()
    bad = [r for r in records.values() if r["status"] == "quarantined"]
    assert len(bad) == 1
    assert bad[0]["scenario"] == "synth-002"
    assert bad[0]["attempts"] == 3
    assert bad[0]["error"]["type"] == "RuntimeError"
    assert "poison" in bad[0]["error"]["message"]
    # Quarantine never contaminates siblings.
    assert all(r["attempts"] == 1 for r in records.values()
               if r["status"] == "ok")


@pytest.mark.parametrize("jobs", [1, 2])
def test_flaky_cell_recovers_with_attempt_count(tmp_path, jobs):
    out = str(tmp_path / "fleet")
    spec = _spec(runner_params={"flaky": {"synth-001": 2}})
    summary = run_fleet(spec, out, jobs=jobs)
    assert summary["ok"] == 6 and summary["quarantined"] == 0
    assert summary["retries"] == 2
    records = ResultDir(out).load_records()
    by_name = {r["scenario"]: r for r in records.values()}
    assert by_name["synth-001"]["attempts"] == 3
    assert by_name["synth-001"]["status"] == "ok"
    assert all(by_name[f"synth-{i:03d}"]["attempts"] == 1
               for i in (0, 2, 3, 4, 5))


def _previous_alarm(signum, frame):
    raise AssertionError("the caller's SIGALRM fired during the test")


@pytest.mark.parametrize("jobs", [1, 2])
def test_hung_cell_times_out_and_is_quarantined(tmp_path, jobs):
    out = str(tmp_path / "fleet")
    spec = _spec(n=4, runner_params={"hang": ["synth-003"]},
                 timeout_s=0.3, max_attempts=2, backoff_s=0.01)
    # Memos a timed-out in-process attempt must clear.
    tiny = tiny_machine()
    shared_cell_map(tiny.disturbance, tiny.geometry.row_bytes)
    _build_tables(linear_mapping(tiny.geometry))
    # A caller's own alarm, which the in-process drive must hand back.
    previous = signal.signal(signal.SIGALRM, _previous_alarm)
    signal.setitimer(signal.ITIMER_REAL, 3600.0, 1800.0)
    try:
        summary = run_fleet(spec, out, jobs=jobs)
        handler = signal.getsignal(signal.SIGALRM)
        delay, interval = signal.getitimer(signal.ITIMER_REAL)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert handler is _previous_alarm
    assert 3500.0 < delay <= 3600.0 and interval == 1800.0
    if jobs == 1:
        assert shared_cell_map.cache_info().currsize == 0
        assert _build_tables.cache_info().currsize == 0
    assert summary["ok"] == 3
    assert summary["quarantined"] == 1
    assert summary["timeouts"] == 2  # one per attempt
    records = ResultDir(out).load_records()
    bad = next(r for r in records.values()
               if r["status"] == "quarantined")
    assert bad["scenario"] == "synth-003"
    assert bad["error"]["type"] == "CellTimeout"
    assert "wall-clock budget" in bad["error"]["message"]


def test_serial_fleet_starts_no_process(tmp_path, monkeypatch):
    def no_process(self):
        raise AssertionError("a jobs=1 fleet must not start a process")

    calls = []
    worker_entry = supervisor.run_fleet_cell

    def counting(*args, **kwargs):
        calls.append(args)
        return worker_entry(*args, **kwargs)

    monkeypatch.setattr(BaseProcess, "start", no_process)
    monkeypatch.setattr(supervisor, "run_fleet_cell", counting)
    out = str(tmp_path / "fleet")
    spec = _spec(runner_params={"flaky": {"synth-001": 1}})
    summary = run_fleet(spec, out, jobs=1)
    assert summary["ok"] == summary["ran"] == 6
    assert summary["retries"] == 1
    assert summary["worker_deaths"] == 0
    assert len(ResultDir(out).load_records()) == 6
    # The in-process path calls the runner directly, never the pool
    # workers' entry point.
    assert calls == []


def test_resume_of_complete_fleet_is_a_no_op(tmp_path):
    out = str(tmp_path / "fleet")
    run_fleet(_spec(), out, jobs=2)
    summary = resume_fleet(out)
    assert summary["already_done"] == 6
    assert summary["ran"] == 0
    assert summary["repaired_shard_tails"] == 0


def test_resume_finishes_a_partial_fleet(tmp_path):
    out = str(tmp_path / "fleet")
    spec = _spec()
    cells = spec.expand()
    rd = ResultDir(out)
    rd.initialise(spec, cells)
    # Pre-complete two cells by hand, as if a kill landed after them.
    with rd:
        for cell in cells[:2]:
            rd.append_record({
                "cell_id": cell.cell_id, "index": cell.index,
                "shard": cell.shard, "scenario": cell.scenario,
                "seed": cell.seed, "defense": cell.defense,
                "attempts": 1, "status": "ok",
                "payload": {"marker": "pre-kill"},
            })
    summary = resume_fleet(out, jobs=2)
    assert summary["already_done"] == 2
    assert summary["ran"] == summary["ok"] == 4
    records = ResultDir(out).load_records()
    assert len(records) == 6
    # Resume never re-runs (or overwrites) checkpointed cells.
    assert records[cells[0].cell_id]["payload"] == {"marker": "pre-kill"}


def test_run_refuses_existing_result_dir(tmp_path):
    out = str(tmp_path / "fleet")
    run_fleet(_spec(n=1), out)
    with pytest.raises(ConfigError, match="already holds"):
        run_fleet(_spec(n=1), out)


def test_jobs_must_be_positive(tmp_path):
    with pytest.raises(ConfigError, match="jobs"):
        run_fleet(_spec(n=1), str(tmp_path / "fleet"), jobs=0)
