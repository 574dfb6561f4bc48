"""``repro-perfbench``: wall-clock throughput of the simulation stack.

Three benchmarks, each timing the same simulated work through the
scalar and the batched execution paths:

* **hammer** — raw DRAM activation throughput on the ``thinkpad_x230``
  profile: a scalar ``DramModule.hammer`` loop vs one
  ``DramModule.hammer_batch`` call, for a one-location stream and a
  double-sided (alternating-aggressor) stream.  The acceptance bar is
  >= 10M act/s batched one-location with double-sided within 2x of it.
* **workload** — slices/second of a memory-bound
  :class:`~repro.workloads.base.SliceWorkload` (``hot_touch_repeat`` >
  1), scalar vs the :meth:`Kernel.user_access_run` replay path.
* **table5** — end-to-end wall runtime of the ``table5`` scenario
  group, the Table V robustness sweep (the heaviest whole-stack
  consumer in the repo).

Every scalar/batched pair is run on freshly built machines and
cross-checked on its simulated observables (clock, activations, flips)
— a cheap guard; the exhaustive byte-level guarantee lives in
``tests/perf/test_differential_equivalence.py`` and the generative
harness.  Results are printed and written to ``BENCH_perf.json`` (see
README's Performance section).

``--check`` turns the run into a CI perf-regression gate: each hammer
case's batched act/s is compared against the committed baseline
snapshot (``benchmarks/perf_baseline.json``, a ``--quick`` run) and the
tool exits non-zero if any case regressed by more than 20 %.  That
snapshot is a single-replay run while the gate reads the best of
:data:`HAMMER_REPEATS` replays, so a case clears the floor with more
headroom than one replay would (the floor is deliberately not
re-based: see README's Performance section).
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, List, Optional, Tuple

from .. import cli_common
from ..config import machine
from ..machine import Machine
from ..workloads.base import SliceWorkload, WorkloadProfile

#: Machine profile the microbenchmarks run on (DDR3, no ChipTRR — the
#: pure disturbance-engine cost, matching the paper's oldest testbed).
BENCH_MACHINE = "thinkpad_x230"

#: Committed baseline snapshot the ``--check`` gate compares against.
DEFAULT_BASELINE = "benchmarks/perf_baseline.json"

#: A case fails the gate below this fraction of its baseline act/s.
REGRESSION_FLOOR = 0.8

#: Replays per leg of each hammer case; each leg reports its fastest.
#: One quick-mode batched replay takes ~1 ms, short enough for host
#: jitter to push a single timing under the gate's floor.  The legs run
#: one after the other, not interleaved: a batched replay timed right
#: after a scalar one ran ~25 % slower on a shared 2-vCPU host.
HAMMER_REPEATS = 5


def _timed(fn: Callable[[], object]) -> float:
    """Wall seconds one call takes (bench code: RPR001-sanctioned)."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _dram_observables(dram) -> tuple:
    return (
        dram.clock.now_ns,
        dram.total_activations,
        len(dram.flip_log),
        dram.applied_flips,
        dram.engine.total_deposits,
    )


def _hammer_case(label: str, items, activations: int) -> Dict[str, object]:
    """Best of :data:`HAMMER_REPEATS` scalar-loop replays of ``items``
    vs best of as many batched replays, each on a fresh machine."""

    def best_of(replay: Callable[[object], object]) -> Tuple[float, object]:
        seconds = float("inf")
        for _ in range(HAMMER_REPEATS):
            dram = Machine.from_parts(machine(BENCH_MACHINE)).dram
            seconds = min(seconds, _timed(lambda: replay(dram)))
        return seconds, dram

    def scalar(dram) -> None:
        for paddr, count in items:
            dram.hammer(paddr, count)

    scalar_s, scalar_dram = best_of(scalar)
    batched_s, batched_dram = best_of(lambda dram: dram.hammer_batch(items))
    if _dram_observables(scalar_dram) != _dram_observables(batched_dram):
        raise AssertionError(
            f"hammer[{label}]: batched run diverged from scalar run; "
            "the differential suite should be failing too"
        )
    return {
        "label": label,
        "activations": activations,
        "scalar_seconds": round(scalar_s, 4),
        "batched_seconds": round(batched_s, 4),
        "scalar_act_per_s": round(activations / scalar_s),
        "batched_act_per_s": round(activations / batched_s),
        "speedup": round(scalar_s / batched_s, 2),
    }


def bench_hammer(quick: bool) -> Dict[str, object]:
    """Activation throughput, one-location and double-sided streams."""
    n = 15_000 if quick else 60_000
    dram = Machine.from_parts(machine(BENCH_MACHINE)).dram
    one_loc = dram.mapping.dram_to_phys(0, 30, 0)
    left = dram.mapping.dram_to_phys(0, 29, 0)
    right = dram.mapping.dram_to_phys(0, 31, 0)
    one_loc_items = [(one_loc, 1)] * n
    double_items = [(left, 1), (right, 1)] * (n // 2)
    cases = [
        _hammer_case("one_location", one_loc_items, n),
        _hammer_case("double_sided", double_items, n),
    ]
    return {"machine": BENCH_MACHINE, "cases": cases}


def bench_workload(quick: bool) -> Dict[str, object]:
    """Slices/second of a memory-bound workload, scalar vs replay."""
    profile = WorkloadProfile(
        name="perfbench-memlat",
        duration_ms=20 if quick else 60,
        hot_pages=12,
        cold_pool_pages=64,
        cold_touches=4,
        write_fraction=0.3,
        hot_touch_repeat=16,
    )
    seconds = {}
    results = {}
    for mode, use_batch in (("scalar", False), ("batched", True)):
        kernel = Machine.from_parts(machine(BENCH_MACHINE)).kernel
        work = SliceWorkload(kernel, profile, seed=1234, use_batch=use_batch)
        seconds[mode] = _timed(lambda: results.__setitem__(mode, work.run()))
    if (results["scalar"].runtime_ns != results["batched"].runtime_ns
            or results["scalar"].touches != results["batched"].touches):
        raise AssertionError(
            "workload: batched run diverged from scalar run; "
            "the differential suite should be failing too"
        )
    return {
        "machine": BENCH_MACHINE,
        "profile": profile.name,
        "slices": profile.duration_ms,
        "hot_touch_repeat": profile.hot_touch_repeat,
        "scalar_seconds": round(seconds["scalar"], 4),
        "batched_seconds": round(seconds["batched"], 4),
        "scalar_slices_per_s": round(
            profile.duration_ms / seconds["scalar"], 1),
        "batched_slices_per_s": round(
            profile.duration_ms / seconds["batched"], 1),
        "speedup": round(seconds["scalar"] / seconds["batched"], 2),
    }


def bench_table5(quick: bool) -> Dict[str, object]:
    """End-to-end wall runtime of the ``table5`` sweep (Table V)."""
    from dataclasses import replace

    from ..scenarios import run_sweep, scenario_group

    iterations = 1 if quick else 3
    specs = [replace(spec, params={**spec.params, "iterations": iterations})
             for spec in scenario_group("table5")]
    results = []
    seconds = _timed(lambda: results.extend(run_sweep(specs)))
    return {
        "iterations": iterations,
        "rows": len({spec.workload for spec in specs}),
        "all_pass": all(r.payload.get("passed") for r in results),
        "wall_seconds": round(seconds, 2),
    }


def run_benchmarks(quick: bool = False) -> Dict[str, object]:
    """Run the whole suite; returns the ``BENCH_perf.json`` payload."""
    return {
        "bench": "repro-perfbench",
        "quick": quick,
        "hammer": bench_hammer(quick),
        "workload": bench_workload(quick),
        "table5": bench_table5(quick),
    }


def _render(payload: Dict[str, object]) -> str:
    lines = [f"repro-perfbench ({'quick' if payload['quick'] else 'full'})"]
    for case in payload["hammer"]["cases"]:
        lines.append(
            "  hammer/{label:<18} scalar {scalar_act_per_s:>9,} act/s   "
            "batched {batched_act_per_s:>10,} act/s   {speedup:>6}x"
            .format(**case))
    wl = payload["workload"]
    lines.append(
        "  workload                 scalar {scalar_slices_per_s:>9,} sl/s  "
        "  batched {batched_slices_per_s:>10,} sl/s    {speedup:>6}x"
        .format(**wl))
    t5 = payload["table5"]
    lines.append(
        f"  table5            {t5['rows']} tests x {t5['iterations']} iter "
        f"in {t5['wall_seconds']} s "
        f"({'all pass' if t5['all_pass'] else 'FAILURES'})")
    return "\n".join(lines)


def check_regression(
    payload: Dict[str, object], baseline: Dict[str, object],
    floor: float = REGRESSION_FLOOR,
) -> List[Tuple[str, int, int, bool]]:
    """Gate rows ``(label, current, required, ok)`` per hammer case.

    A case passes while its batched act/s stays at or above ``floor``
    (default 80 %) of the committed baseline's.  Only labels present in
    both payloads are compared, so adding or retiring a case never
    trips the gate by itself.
    """
    current = {case["label"]: case["batched_act_per_s"]
               for case in payload["hammer"]["cases"]}
    rows = []
    for case in baseline["hammer"]["cases"]:
        label = case["label"]
        if label not in current:
            continue
        required = int(floor * case["batched_act_per_s"])
        rows.append((label, current[label], required,
                     current[label] >= required))
    return rows


def main(argv: Optional[list] = None) -> int:
    """CLI entry point (``repro-perfbench``)."""
    parser = cli_common.build_parser(
        prog="repro-perfbench",
        description="Wall-clock throughput of the simulation stack "
                    "(scalar vs batched execution paths).",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized run (fewer activations/slices/iterations)")
    cli_common.add_out_option(
        parser, default="BENCH_perf.json",
        help_text="output JSON path (default: %(default)s)")
    cli_common.add_check_option(
        parser,
        help_text="gate mode: fail when any hammer case's batched act/s "
                  f"regresses more than {round((1 - REGRESSION_FLOOR) * 100)}"
                  " %% against the baseline snapshot")
    parser.add_argument(
        "--baseline", default=DEFAULT_BASELINE, metavar="PATH",
        help="baseline BENCH_perf.json snapshot for --check "
             "(default: %(default)s)")
    args = parser.parse_args(argv)
    payload = run_benchmarks(quick=args.quick)
    print(_render(payload))
    cli_common.atomic_write_text(
        args.out, json.dumps(payload, indent=2) + "\n")
    print(f"[saved to {args.out}]")
    if not args.check:
        return cli_common.EXIT_OK
    try:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
    except OSError as error:
        print(f"[check] cannot read baseline {args.baseline}: {error}")
        return cli_common.EXIT_CHECK_FAILED
    failed = False
    for label, got, required, ok in check_regression(payload, baseline):
        verdict = "ok" if ok else "REGRESSED"
        print(f"[check] hammer/{label}: {got:,} act/s "
              f"(floor {required:,}) {verdict}")
        failed = failed or not ok
    return cli_common.EXIT_CHECK_FAILED if failed else cli_common.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
