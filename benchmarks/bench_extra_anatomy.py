"""Extra experiment 7 — overhead anatomy (design principle DP3).

Decomposes SoftTRR's added time for three contrasting SPEC-like programs
(the ``anatomy`` scenario group) into its four cost centres (trace-fault
capture, timer arming, collector hooks, row refreshes).  The DP3 claim
to verify: all defense time is concentrated on adjacent-page traffic and
housekeeping — non-adjacent accesses contribute nothing — so the
defense/runtime ratio stays well below 1 % for every program.

The benchmarked operation is one decomposition run of the smallest
program.
"""

from conftest import run_group

from repro.analysis.breakdown import OverheadBreakdown, measure_breakdown
from repro.analysis.tables import render_breakdown
from repro.config import perf_testbed
from repro.workloads.spec import SPEC_PROFILES


def test_overhead_anatomy(benchmark, announce):
    results = run_group("anatomy")
    announce("extra_anatomy.txt", render_breakdown(results))
    breakdowns = [OverheadBreakdown(**r.payload) for r in results]
    for b in breakdowns:
        assert b.defense_fraction < 0.03, b.workload
        assert b.total_defense_ns > 0
    # The heavyweight program spends more on tracing than the tiny one.
    tiny, heavy = breakdowns[0], breakdowns[-1]
    assert heavy.total_defense_ns > tiny.total_defense_ns

    small = SPEC_PROFILES["exchange2_s"].replace(duration_ms=5)

    def decompose_once():
        measure_breakdown(small, spec_factory=perf_testbed)

    benchmark.pedantic(decompose_once, rounds=5, iterations=1)
