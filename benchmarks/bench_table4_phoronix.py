"""Table IV — Phoronix suite runtime overhead (Section VI-A).

Regenerates the 17-program overhead table (CPU / memory / network I/O /
disk I/O stressors) under Δ±1 and Δ±6 from the ``table4`` scenario
group.  Expected shape: per-program
overheads within ~±1-2 %, means ~0.2 %.

The benchmarked operation is one defended Apache-profile slice (the
fork- and syscall-heaviest program of the suite).
"""

from conftest import run_group

from repro.analysis.tables import overhead_rows, render_overhead_table
from repro.workloads.base import SliceWorkload
from repro.workloads.phoronix import PHORONIX_PROFILES


def test_table4_phoronix_overhead(benchmark, announce, softtrr_machine):
    results = run_group("table4")
    announce("table4_phoronix.txt", render_overhead_table(
        results, "Table IV — Phoronix benchmark overhead"))
    mean = overhead_rows(results)[-1]
    assert abs(mean.delta1_pct) < 1.5
    assert abs(mean.delta6_pct) < 1.5

    profile = PHORONIX_PROFILES["Apache"].replace(duration_ms=1)
    workload = SliceWorkload(softtrr_machine.kernel, profile)

    def one_defended_slice():
        workload.run()

    benchmark.pedantic(one_defended_slice, rounds=8, iterations=1)
