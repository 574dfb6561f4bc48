"""Campaign benchmark: real ``repro`` campaigns timed end to end.

    python3 perfbench/run.py --workload fuzz --seed 11 --seconds 15 --trace 0

Run from the root of a source checkout (``src/repro`` must exist; there
is nothing to build).  Every campaign runs in a fresh interpreter
(``perfbench/child.py``), serially, one at a time.

``--trace 0`` first launches a few set-up-only children (they stop as
soon as the campaign's inputs exist), then repeats the whole campaign
(at least twice, then as long as another repeat still ends within
``--seconds``), and reports medians over the repeats:
``wall_s`` (child process start to exit), ``setup_s`` (child start to
inputs ready, over probes and repeats) and ``peak_rss_mb``.

``--trace 1`` alternates untraced and traced repeats (one pair, more
while another still ends within ``--seconds``) and reports the per-layer metrics of :mod:`layertrace` (medians
over the traced repeats) plus the tracing overhead: traced minus
untraced median wall time.  The spans of the last traced repeat are
kept in ``.perfbench/traces/``.

Every repeat's output must pass the campaign's gates and hash to the
same digest; for the seed in ``golden.json`` the digest must also equal
the committed one.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("fuzz", "spec_overhead", "zoo_fleet")

#: Set-up-only launches per untraced run (set-up samples beyond the
#: one each full repeat gives).
SETUP_PROBES = 3

#: Whole-campaign repeats per untraced run, at least.
MIN_REPEATS = 2

#: Every child must have ended this long after the run started.
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """A child crashed, timed out or left no result."""


def unit_of(name: str) -> str:
    """The unit a metric is reported in, from its name."""
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ns_per_act"):
        return "ns"
    if name.endswith("_s") or ".cell_s." in name:
        return "s"
    return "count"


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Launches children for one workload and seed under a deadline."""

    def __init__(self, workload: str, seed: int, work: Path,
                 tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.work = work
        self.deadline = time.monotonic() + HARD_LIMIT_S
        self.launches = 0

    def fits(self, estimate_s: float) -> bool:
        """Whether a launch taking about ``estimate_s`` ends in time."""
        return time.monotonic() + 1.5 * estimate_s < self.deadline

    def launch(self, *, setup_only: bool = False, traced: bool = False):
        self.launches += 1
        rundir = self.work / f"{self.launches:03d}"
        rundir.mkdir(parents=True)
        result_path = rundir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--workdir", str(rundir / "out"),
               "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if self.tiny:
            cmd.append("--tiny")
        if traced:
            (rundir / "trace").mkdir()
            cmd += ["--trace-dir", str(rundir / "trace")]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   PYTHONHASHSEED="0")
        stderr_path = rundir / "stderr.txt"
        with open(stderr_path, "wb") as stderr:
            start = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=str(ROOT), env=env, stdout=subprocess.DEVNULL,
                stderr=stderr, start_new_session=True)
            try:
                proc.wait(timeout=max(1.0, self.deadline - start))
            except subprocess.TimeoutExpired:
                _kill_group(proc.pid)
                proc.wait()
                raise BenchError(f"{self.workload}: child timed out")
            finally:
                _kill_group(proc.pid)
            wall = time.monotonic() - start
        if proc.returncode != 0 or not result_path.exists():
            tail = stderr_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"{self.workload}: child exited "
                             f"{proc.returncode}\n{tail}")
        result = json.loads(result_path.read_text())
        result["wall_s"] = wall
        result["setup_s"] = result["ready_monotonic"] - start
        if traced:
            result["spans_path"] = str(rundir / "trace" / "spans.jsonl")
        return result


def _golden(workload: str, seed: int, tiny: bool):
    """(digest, extras) committed for this workload, or (None, {})."""
    golden = json.loads((HERE / "golden.json").read_text())
    if tiny or seed != golden["seed"]:
        return None, {}
    return (golden["digests"].get(workload),
            golden["extras"].get(workload, {}))


def _check(workload: str, seed: int, tiny: bool, reps) -> bool:
    """Gates hold in every repeat; every repeat has one digest; at the
    golden seed, digest and pinned extras equal the committed ones."""
    ok = True
    digests = {rep["digest"] for rep in reps}
    if len(digests) != 1:
        print(f"CHECK FAILED: {len(digests)} distinct output digests",
              file=sys.stderr)
        ok = False
    for rep in reps:
        failing = sorted(gate for gate, held in rep["gates"].items()
                         if not held)
        if failing:
            print(f"CHECK FAILED: gates {failing}", file=sys.stderr)
            ok = False
        if rep["failed"]:
            print(f"CHECK FAILED: {rep['failed']} failed cells",
                  file=sys.stderr)
            ok = False
    digest, extras = _golden(workload, seed, tiny)
    if digest is not None and digests != {digest}:
        print(f"CHECK FAILED: digest {sorted(digests)} != golden {digest}",
              file=sys.stderr)
        ok = False
    for name, value in extras.items():
        if any(rep["extras"].get(name) != value for rep in reps):
            print(f"CHECK FAILED: {name} drifted from golden {value}",
                  file=sys.stderr)
            ok = False
    return ok


def _report(rep) -> None:
    extras = "".join(f" {key}={value}"
                     for key, value in sorted(rep.get("extras", {}).items()))
    print(f"  wall {rep['wall_s']:.3f}s setup {rep['setup_s']:.3f}s "
          f"rss {rep['peak_rss_mb']:.1f}MB cells {rep['cells']} "
          f"failed {rep['failed']} digest {rep['digest']}{extras}"
          + (" [traced]" if "layers" in rep else ""), file=sys.stderr)


def _ends_by(start: float, seconds: float, estimate_s: float) -> bool:
    """Whether a launch taking ``estimate_s`` ends within the run."""
    return time.monotonic() + estimate_s <= start + seconds


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced run: set-up probes, then whole campaigns until time."""
    start = time.monotonic()
    setups = [runner.launch(setup_only=True)["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    while (len(reps) < MIN_REPEATS
           or _ends_by(start, seconds, reps[-1]["wall_s"])):
        if reps and not runner.fits(reps[-1]["wall_s"]):
            break
        rep = runner.launch()
        _report(rep)
        reps.append(rep)
        setups.append(rep["setup_s"])
    return {
        "reps": reps,
        "metrics": {
            "wall_s": statistics.median(rep["wall_s"] for rep in reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                rep["peak_rss_mb"] for rep in reps),
        },
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Traced run: untraced/traced pairs; per-layer medians."""
    start = time.monotonic()
    plain, traced = [], []
    while not traced or _ends_by(
            start, seconds, plain[-1]["wall_s"] + traced[-1]["wall_s"]):
        plain.append(runner.launch())
        _report(plain[-1])
        traced.append(runner.launch(traced=True))
        _report(traced[-1])
    metrics = {
        name: statistics.median(rep["layers"][name] for rep in traced)
        for name in traced[0]["layers"]
    }
    base = statistics.median(rep["wall_s"] for rep in plain)
    overhead = statistics.median(rep["wall_s"] for rep in traced) - base
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_pct"] = 100.0 * overhead / base
    kept = ROOT / ".perfbench" / "traces" / (
        f"{runner.workload}-seed{runner.seed}.spans.jsonl")
    kept.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(traced[-1]["spans_path"], kept)
    print(f"  spans -> {kept.relative_to(ROOT)}", file=sys.stderr)
    return {"reps": plain + traced, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="seconds-scale slice of each campaign (the benchmark's own "
             "tests); no golden digest")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / "work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    runner = Runner(args.workload, args.seed, work, args.tiny)
    print(f"perfbench: {args.workload} seed {args.seed} "
          f"trace {args.trace}", file=sys.stderr)
    try:
        measured = (measure_traced if args.trace else measure)(
            runner, args.seconds)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    reps = measured["reps"]
    result = {
        "correct": _check(args.workload, args.seed, args.tiny, reps),
        "attempted": sum(rep["cells"] for rep in reps),
        "failed": sum(rep["failed"] for rep in reps),
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in measured["metrics"].items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
