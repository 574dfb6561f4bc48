"""Figure 4 — SoftTRR memory consumption under LAMP + Nikto
(Section VI-B).

Regenerates the per-minute memory series for Δ±1 and Δ±6 over the LAMP
run from the ``lamp`` scenario group.  Expected shape: both curves grow
and plateau in the last quarter, both stay in the hundreds-of-KiB range,
dominated by the pre-allocated 396 KiB pte_ringbuf.

The benchmarked operation is one simulated LAMP minute on the defended
server.
"""

from conftest import run_group

from repro.analysis.tables import render_lamp_series
from repro.workloads.lamp import LampSimulation


def test_fig4_lamp_memory(benchmark, announce, softtrr_machine):
    results = run_group("lamp")
    announce("fig4_lamp_memory.txt", render_lamp_series(
        results, "memory_bytes",
        "Figure 4 — SoftTRR memory consumption (KiB) over the LAMP run",
        unit_divisor=1024.0, unit="KiB"))
    for result in results:
        samples, summary = result.payload["series"], result.payload["summary"]
        # Growth then plateau, in the paper's sub-600-KiB regime.
        assert samples[-1]["memory_bytes"] >= samples[0]["memory_bytes"]
        assert summary["stable_memory_kib"] < 700
        assert summary["ringbuf_kib"] == 396.0

    simulation = LampSimulation(softtrr_machine.kernel, workers=3,
                                requests_per_minute=20)
    simulation.boot()

    def one_lamp_minute():
        simulation.run(minutes=1)

    benchmark.pedantic(one_lamp_minute, rounds=6, iterations=1)
