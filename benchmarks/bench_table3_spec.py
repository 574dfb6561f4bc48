"""Table III — SPECspeed 2017 Integer runtime overhead (Section VI-A).

Regenerates the 10-program overhead table (Δ±1 and Δ±6 vs vanilla) on
the DDR4 performance testbed from the ``table3`` scenario group.
Expected shape: per-program overheads within ~±1 % (larger-footprint
programs like xalancbmk/omnetpp highest under Δ±6), means well below
1 %.

The benchmarked operation is one 1 ms workload slice on a SoftTRR Δ±6
machine — the steady-state unit of the measurement.
"""

from conftest import run_group

from repro.analysis.tables import overhead_rows, render_overhead_table
from repro.workloads.base import SliceWorkload
from repro.workloads.spec import SPEC_PROFILES


def test_table3_spec_overhead(benchmark, announce, softtrr_machine):
    results = run_group("table3")
    announce("table3_spec.txt", render_overhead_table(
        results, "Table III — SPECspeed 2017 Integer overhead"))
    mean = overhead_rows(results)[-1]
    assert mean.name == "Mean"
    assert abs(mean.delta1_pct) < 1.5
    assert abs(mean.delta6_pct) < 1.5
    assert mean.delta6_pct >= -0.5  # Δ±6 cannot be systematically negative

    # Benchmark: one defended workload slice.
    profile = SPEC_PROFILES["xalancbmk_s"].replace(duration_ms=1)
    workload = SliceWorkload(softtrr_machine.kernel, profile)

    def one_defended_slice():
        workload.run()

    benchmark.pedantic(one_defended_slice, rounds=8, iterations=1)
