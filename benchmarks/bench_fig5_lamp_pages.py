"""Figure 5 — protected L1PT pages and traced adjacent pages under the
LAMP run (Section VI-B).

Regenerates both per-minute series for Δ±1 and Δ±6 from the ``lamp``
scenario group.  Expected shape:
both counts grow and stabilise; the protected counts are in the same
order of magnitude for both distances (the system activity is the
same), while Δ±6 traces clearly more adjacent pages than Δ±1 ("an
L1PT-page row in Δ±6 can have up to 12 adjacent rows, 6 times the
adjacent row number ... in Δ±1").

The benchmarked operation is one tracer timer tick on the warm LAMP
server (the recurring cost behind these curves).
"""

from conftest import run_group

from repro.analysis.tables import render_lamp_series
from repro.workloads.lamp import LampSimulation


def test_fig5_lamp_pages(benchmark, announce, softtrr_machine):
    results = run_group("lamp")
    protected = render_lamp_series(
        results, "protected_pages",
        "Figure 5a — protected L1PT pages over the LAMP run")
    traced = render_lamp_series(
        results, "traced_pages",
        "Figure 5b — traced adjacent pages over the LAMP run")
    announce("fig5_lamp_pages.txt", protected + "\n\n" + traced)
    series = {r.payload["distance"]: r.payload["series"] for r in results}
    d1, d6 = series[1], series[6]
    # Growth then stabilisation.
    assert d1[-1]["protected_pages"] >= d1[0]["protected_pages"]
    assert d6[-1]["protected_pages"] >= d6[0]["protected_pages"]
    # Same order of magnitude protected; D+-6 traces more.
    ratio = d6[-1]["protected_pages"] / max(1, d1[-1]["protected_pages"])
    assert 0.5 < ratio < 2.0
    assert d6[-1]["traced_pages"] > d1[-1]["traced_pages"]

    module = softtrr_machine.softtrr
    simulation = LampSimulation(softtrr_machine.kernel, workers=3,
                                requests_per_minute=20)
    simulation.boot()
    simulation.run(minutes=2)  # warm state

    def one_tracer_tick():
        module.tracer.tick()

    benchmark.pedantic(one_tracer_tick, rounds=20, iterations=1)
