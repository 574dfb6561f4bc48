"""Table V — system robustness under syscall stress (Section VI-C).

Regenerates the 20-syscall LTP matrix on vanilla / Δ±1 / Δ±6 machines
from the ``table5`` scenario group.
Expected: a full grid of passes — "the test system runs stably with
SoftTRR enabled".

The benchmarked operation is one clone stress iteration on a defended
kernel (fork is the syscall the rejected present-bit tracer dies on,
so it is the most interesting steady-state unit).
"""

from conftest import run_group

from repro.analysis.tables import render_table5
from repro.workloads.ltp import run_stress_test


def test_table5_ltp_robustness(benchmark, announce, warm_softtrr_machine):
    results = run_group("table5")
    announce("table5_ltp.txt", render_table5(results))
    for result in results:
        assert result.payload["passed"], \
            f"{result.name} failed: {result.payload['error']}"

    def clone_stress_once():
        result = run_stress_test(warm_softtrr_machine.kernel, "clone",
                                 iterations=2)
        assert result.passed

    benchmark.pedantic(clone_stress_once, rounds=10, iterations=1)
