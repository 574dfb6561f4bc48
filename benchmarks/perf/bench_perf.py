"""Perf — host throughput of the batched execution layer.

Runs the ``repro-perfbench`` suite (scalar vs batched DRAM hammering,
workload slice replay, end-to-end ``table5`` sweep wall time) and
archives the JSON payload.  The batched paths must stay semantically invisible —
that is enforced by ``tests/perf/test_differential_equivalence.py`` —
so the only thing at stake here is wall-clock speed; the bench asserts
the one-location hammer stream keeps its >= 5x advantage, the
acceptance bar the batching layer was built against.  It times both
paths explicitly (``use_batch=False`` for the scalar leg); every other
bench runs the batched default.
"""

import json
import os

from repro.bench.perf import run_benchmarks

# Parent conftest's fixtures (announce, benchmark plugin config) apply
# here, but its module is not importable from a subdirectory — read the
# scale knob directly.
QUICK = os.environ.get("REPRO_FULL", "0") != "1"

MIN_HAMMER_SPEEDUP = 5.0


def test_perf_batching_throughput(benchmark, announce):
    payload = run_benchmarks(quick=QUICK)
    announce("perf_batching.json", json.dumps(payload, indent=2))

    one_location = payload["hammer"]["cases"][0]
    assert one_location["label"] == "one_location"
    assert one_location["speedup"] >= MIN_HAMMER_SPEEDUP, (
        f"batched hammer replay regressed to {one_location['speedup']}x "
        f"(floor {MIN_HAMMER_SPEEDUP}x)")
    assert payload["table5"]["all_pass"]

    def quick_hammer_bench():
        from repro.bench.perf import bench_hammer
        bench_hammer(quick=True)

    benchmark.pedantic(quick_hammer_bench, rounds=3, iterations=1)
