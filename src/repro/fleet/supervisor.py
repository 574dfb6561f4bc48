"""The fleet supervisor: timeout/retry/quarantine over one cell ledger.

The supervisor is the only process that touches the result dir.  It
finalises every cell exactly once:

* a completed cell is appended to its shard JSONL immediately
  (flush + fsync — the append *is* the checkpoint);
* a failing cell is retried with exponential backoff
  (``backoff_s * 2^(attempt-1)``) up to ``max_attempts``;
* a cell that exhausts its budget is **quarantined**: recorded as a
  structured failure and the fleet keeps going — graceful
  degradation, never sink the run;
* a hung cell is stopped at its per-cell deadline and treated as one
  failed attempt.

Cells run in one of two places:

* at ``jobs == 1`` (after clamping to the pending cell count) every
  attempt runs in this process, one after another, so a serial
  fleet's peak memory is one interpreter's.  An ``ITIMER_REAL``
  interval timer raises :class:`_CellDeadline` into a cell that
  outlives ``timeout_s``.  A cell that kills the interpreter ends the
  fleet; ``resume_fleet`` continues it from the shard checkpoint;
* at ``jobs >= 2`` the supervisor forks a worker pool over one shared
  queue (idle workers pull the next available cell — work-stealing
  without a scheduler), watches each cell's deadline from the moment a
  worker announces it, terminates and replaces a worker whose cell
  hangs, and refills the pool when a worker dies.

Wall-clock time in this module is deliberate and lint-sanctioned: the
supervisor operates in the *host* time domain (timeouts, backoff) and
none of it ever reaches a record — records are pure functions of the
cell, which is what makes a killed fleet resume byte-identically.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import queue as queue_mod
import signal
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

from ..errors import ConfigError
from . import runners
from .checkpoint import ResultDir
from .runners import run_fleet_cell
from .spec import FleetCell, FleetSpec

__all__ = ["FleetSummary", "resume_fleet", "run_fleet"]

#: Supervisor poll interval while waiting on worker results (seconds).
_POLL_S = 0.02

#: Shortest delay a restored ``ITIMER_REAL`` timer is re-armed with
#: (a zero delay would disarm it).
_MIN_TIMER_S = 1e-6

FleetSummary = Dict[str, object]
_Progress = Optional[Callable[[Mapping], None]]


def _worker_main(spec_dict: dict, work_q, result_q) -> None:
    """Worker loop: pull cells until the ``None`` sentinel arrives."""
    spec = FleetSpec.from_dict(spec_dict)
    pid = os.getpid()
    while True:
        item = work_q.get()
        if item is None:
            break
        cell = item["cell"]
        attempt = item["attempt"]
        result_q.put(("started", pid, cell["cell_id"], attempt, None))
        try:
            payload = run_fleet_cell(
                cell, spec.runner, spec.runner_params, attempt)
        except Exception as exc:  # noqa: BLE001 — the worker boundary
            result_q.put(("failed", pid, cell["cell_id"], attempt,
                          _error_of(exc)))
        else:
            result_q.put(("ok", pid, cell["cell_id"], attempt, payload))


def _error_of(exc: Exception) -> dict:
    return {"type": type(exc).__name__, "message": str(exc)[:200]}


def run_fleet(spec: FleetSpec, out_dir: str, jobs: int = 1,
              progress: _Progress = None) -> FleetSummary:
    """Expand ``spec``, initialise ``out_dir`` and drive every cell."""
    spec.validate_names()
    cells = spec.expand()
    result_dir = ResultDir(out_dir)
    result_dir.initialise(spec, cells)
    return _drive(result_dir, spec, cells, {}, jobs, progress)


def resume_fleet(out_dir: str, jobs: int = 1,
                 progress: _Progress = None) -> FleetSummary:
    """Pick a killed fleet back up from its manifest and shards."""
    result_dir = ResultDir(out_dir)
    cells = result_dir.verify_expansion()
    spec = result_dir.load_spec()
    repaired = result_dir.repair_shards()
    done = result_dir.load_records()
    summary = _drive(result_dir, spec, cells, done, jobs, progress)
    summary["repaired_shard_tails"] = repaired
    return summary


def _drive(result_dir: ResultDir, spec: FleetSpec,
           cells: List[FleetCell], done: Dict[str, dict], jobs: int,
           progress: _Progress) -> FleetSummary:
    if jobs < 1:
        raise ConfigError("jobs must be >= 1")
    pending = [cell for cell in cells if cell.cell_id not in done]
    summary: FleetSummary = {
        "cells": len(cells),
        "already_done": len(cells) - len(pending),
        "ran": 0,
        "ok": 0,
        "quarantined": 0,
        "retries": 0,
        "timeouts": 0,
        "worker_deaths": 0,
    }
    if not pending:
        result_dir.close()
        return summary
    with result_dir:
        _Supervisor(result_dir, spec, pending, jobs, progress,
                    summary).run()
    return summary


class _CellDeadline(BaseException):
    """Raised into an in-process cell whose ``timeout_s`` ran out.

    A ``BaseException``, so a cell's ``except Exception`` cannot
    swallow it.
    """


class _CellTimer:
    """The in-process per-cell deadline: ``ITIMER_REAL`` + ``SIGALRM``.

    Entering installs the handler, saving the previous handler and
    timer; leaving restores both, the timer less the time spent
    inside.  :meth:`running` arms the timer around one attempt.  Only
    the main thread may install a signal handler, so a ``jobs=1``
    fleet is driven from there (another thread gets ``ValueError``).
    """

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self._armed = False

    def __enter__(self) -> "_CellTimer":
        self._entered_at = time.monotonic()
        self._saved_timer = signal.setitimer(signal.ITIMER_REAL, 0)
        self._saved_handler = signal.signal(signal.SIGALRM, self._expire)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        saved = self._saved_handler
        signal.signal(signal.SIGALRM,
                      signal.SIG_DFL if saved is None else saved)
        delay, interval = self._saved_timer
        if delay > 0:
            left = delay - (time.monotonic() - self._entered_at)
            signal.setitimer(signal.ITIMER_REAL,
                             max(left, _MIN_TIMER_S), interval)

    def _expire(self, signum, frame) -> None:
        # A signal that lands after the attempt disarmed is stale.
        if self._armed:
            self._armed = False
            raise _CellDeadline

    @contextlib.contextmanager
    def running(self):
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False


def _forget_process_memos() -> None:
    """Clear the process-wide memos an interrupted cell may have left
    half-written (``CellMap.put`` writes two tables); a replaced
    worker process used to provide this clean state."""
    from ..dram.address import _build_tables
    from ..dram.disturbance import shared_cell_map

    shared_cell_map.cache_clear()
    _build_tables.cache_clear()


class _Supervisor:
    """One fleet drive: owns the deadlines, the retries and the ledger."""

    def __init__(self, result_dir: ResultDir, spec: FleetSpec,
                 pending: List[FleetCell], jobs: int,
                 progress: _Progress, summary: FleetSummary) -> None:
        self.result_dir = result_dir
        self.spec = spec
        self.spec_dict = spec.to_dict()
        self.progress = progress
        self.summary = summary
        self.cells = {cell.cell_id: cell for cell in pending}
        self.outstanding = len(pending)
        self.finalized: set = set()
        #: attempts already *dispatched* per cell id.
        self.attempts: Dict[str, int] = {}
        #: (cell_id, attempt) dispatched and not yet started, in order.
        self.ready: Deque[Tuple[str, int]] = deque()
        #: (due, sequence, cell_id) retry heap.
        self.retries: List[Tuple[float, int, str]] = []
        self._retry_seq = 0
        self.jobs = max(1, min(jobs, len(pending)))

    # ----------------------------------------------------------- control
    def run(self) -> None:
        for cell_id in self.cells:
            self._dispatch(cell_id)
        if self.jobs == 1:
            self._run_in_process()
        else:
            self._run_pool()

    def _dispatch(self, cell_id: str) -> None:
        attempt = self.attempts.get(cell_id, 0) + 1
        self.attempts[cell_id] = attempt
        self.ready.append((cell_id, attempt))

    def _pump_retries(self) -> None:
        now = time.monotonic()
        while self.retries and self.retries[0][0] <= now:
            _, _, cell_id = heapq.heappop(self.retries)
            if cell_id in self.finalized:
                continue
            self._dispatch(cell_id)

    # -------------------------------------------------------- in process
    def _run_in_process(self) -> None:
        """Run every attempt here, under the per-cell interval timer."""
        # The spec exactly as a pool worker rebuilds it.
        spec = FleetSpec.from_dict(self.spec_dict)
        with _CellTimer(spec.timeout_s) as timer:
            while self.outstanding > 0:
                self._pump_retries()
                if not self.ready:
                    # Every open cell waits on a retry's backoff.
                    time.sleep(max(0.0, self.retries[0][0]
                                   - time.monotonic()))
                    continue
                cell_id, attempt = self.ready.popleft()
                try:
                    with timer.running():
                        payload = runners.run_fleet_cell(
                            self.cells[cell_id].to_dict(), spec.runner,
                            spec.runner_params, attempt)
                except _CellDeadline:
                    _forget_process_memos()
                    self._timed_out(cell_id, attempt)
                except Exception as exc:  # noqa: BLE001 — the cell boundary
                    self._attempt_failed(cell_id, attempt, _error_of(exc))
                else:
                    self._finalize_ok(cell_id, attempt, payload)

    # -------------------------------------------------------------- pool
    def _run_pool(self) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context()
        self.work_q = self._ctx.Queue()
        self.result_q = self._ctx.Queue()
        self.workers: Dict[int, multiprocessing.process.BaseProcess] = {}
        #: pid -> (cell_id, attempt, wall deadline).
        self.in_flight: Dict[int, Tuple[str, int, float]] = {}
        self._feed_workers()
        for _ in range(self.jobs):
            self._spawn_worker()
        try:
            while self.outstanding > 0:
                self._pump_retries()
                self._feed_workers()
                self._pump_results()
                self._reap_timeouts()
                self._reap_dead_workers()
        finally:
            self._shutdown()

    def _feed_workers(self) -> None:
        while self.ready:
            cell_id, attempt = self.ready.popleft()
            self.work_q.put({
                "cell": self.cells[cell_id].to_dict(),
                "attempt": attempt,
            })

    def _spawn_worker(self) -> None:
        worker = self._ctx.Process(
            target=_worker_main,
            args=(self.spec_dict, self.work_q, self.result_q),
            daemon=True,
        )
        worker.start()
        self.workers[worker.pid] = worker

    def _shutdown(self) -> None:
        for _ in self.workers:
            self.work_q.put(None)
        deadline = time.monotonic() + 5.0
        for worker in self.workers.values():
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=1.0)
        self.work_q.close()
        self.result_q.close()

    def _pump_results(self) -> None:
        try:
            kind, pid, cell_id, attempt, extra = self.result_q.get(
                timeout=_POLL_S)
        except queue_mod.Empty:
            return
        if kind == "started":
            if cell_id in self.finalized:
                # A stale duplicate dispatch (late result raced a
                # retry); let it run, its result will be ignored.
                return
            self.in_flight[pid] = (
                cell_id, attempt,
                time.monotonic() + self.spec.timeout_s)
            return
        self.in_flight.pop(pid, None)
        if cell_id in self.finalized:
            return
        if kind == "ok":
            self._finalize_ok(cell_id, attempt, extra)
        else:
            self._attempt_failed(cell_id, attempt, extra)

    def _reap_timeouts(self) -> None:
        now = time.monotonic()
        expired = [(pid, entry) for pid, entry in self.in_flight.items()
                   if entry[2] <= now]
        for pid, (cell_id, attempt, _) in expired:
            del self.in_flight[pid]
            self._kill_worker(pid)
            self._timed_out(cell_id, attempt)
            self._spawn_worker()

    def _reap_dead_workers(self) -> None:
        dead = [pid for pid, worker in self.workers.items()
                if not worker.is_alive()]
        for pid in dead:
            self.workers.pop(pid).join(timeout=0.1)
            entry = self.in_flight.pop(pid, None)
            self.summary["worker_deaths"] = (
                int(self.summary["worker_deaths"]) + 1)
            if entry is not None:
                cell_id, attempt, _ = entry
                if cell_id not in self.finalized:
                    self._attempt_failed(cell_id, attempt, {
                        "type": "WorkerDied",
                        "message": "worker process died mid-cell",
                    })
            if self.outstanding > 0:
                self._spawn_worker()

    def _kill_worker(self, pid: int) -> None:
        worker = self.workers.pop(pid, None)
        if worker is None:
            return
        worker.terminate()
        worker.join(timeout=2.0)
        if worker.is_alive():
            worker.kill()
            worker.join(timeout=1.0)

    # ---------------------------------------------------------- finalise
    def _record_base(self, cell_id: str, attempts: int) -> dict:
        cell = self.cells[cell_id]
        return {
            "cell_id": cell.cell_id,
            "index": cell.index,
            "shard": cell.shard,
            "scenario": cell.scenario,
            "seed": cell.seed,
            "defense": cell.defense,
            "attempts": attempts,
        }

    def _finalize_ok(self, cell_id: str, attempt: int,
                     payload: Mapping) -> None:
        record = self._record_base(cell_id, attempt)
        record["status"] = "ok"
        record["payload"] = payload
        self._finalize(cell_id, record)
        self.summary["ok"] = int(self.summary["ok"]) + 1

    def _timed_out(self, cell_id: str, attempt: int) -> None:
        self.summary["timeouts"] = int(self.summary["timeouts"]) + 1
        if cell_id not in self.finalized:
            self._attempt_failed(cell_id, attempt, {
                "type": "CellTimeout",
                "message": (f"exceeded the {self.spec.timeout_s}s "
                            "per-cell wall-clock budget"),
            })

    def _attempt_failed(self, cell_id: str, attempt: int,
                        error: Mapping) -> None:
        if attempt < self.spec.max_attempts:
            self.summary["retries"] = int(self.summary["retries"]) + 1
            delay = self.spec.backoff_s * (2 ** (attempt - 1))
            self._retry_seq += 1
            heapq.heappush(
                self.retries,
                (time.monotonic() + delay, self._retry_seq, cell_id))
            self._emit({"event": "retry", "cell_id": cell_id,
                        "attempt": attempt, "error": dict(error),
                        "delay_s": delay})
            return
        record = self._record_base(cell_id, attempt)
        record["status"] = "quarantined"
        record["error"] = dict(error)
        self._finalize(cell_id, record)
        self.summary["quarantined"] = (
            int(self.summary["quarantined"]) + 1)

    def _finalize(self, cell_id: str, record: dict) -> None:
        self.result_dir.append_record(record)
        self.finalized.add(cell_id)
        self.outstanding -= 1
        self.summary["ran"] = int(self.summary["ran"]) + 1
        self._emit({"event": record["status"], "cell_id": cell_id,
                    "attempts": record["attempts"],
                    "done": len(self.finalized),
                    "total": len(self.cells)})

    def _emit(self, event: Mapping) -> None:
        if self.progress is not None:
            self.progress(event)
