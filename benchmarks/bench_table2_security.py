"""Table II — security effectiveness of SoftTRR against the three
kernel-privilege-escalation attacks (Section V).

Regenerates the ``table2`` scenario group: Memory Spray (3-sided, DDR4
Optiplex 390), CATTmew (2-sided via SG buffer, DDR3 Optiplex 990) and
PThammer (kernel-assisted page-walk hammer, DDR3 X230), each run
against the vanilla kernel (must flip) and under SoftTRR Δ±6 (must not
flip).

The benchmarked operation is one full hammer-vs-SoftTRR round on a
pre-set-up machine — the steady-state cost of the defended system under
active attack.
"""

from conftest import group_specs, run_group

from repro.analysis.tables import render_table2
from repro.attacks.memory_spray import MemorySprayAttack
from repro.config import optiplex_390
from repro.core.profile import SoftTrrParams
from repro.patterns import round_robin
from repro.defenses.base import SoftTrrDefense
from repro.machine import Machine


def test_table2_security(benchmark, announce):
    results = run_group("table2")
    announce("table2_security.txt", render_table2(results))
    # The headline claims:
    for result in results:
        payload = result.payload
        if result.name.endswith("-vanilla"):
            assert payload["flipped_pt_pages"], \
                f"{result.name}: the attack must work on the vanilla system"
        else:
            assert payload["bit_flip_failed"], \
                f"{result.name}: SoftTRR failed to protect"
    # Benchmark: one defended hammer burst in steady state.
    params = group_specs("table2")[0].params
    kernel = Machine.from_parts(optiplex_390()).kernel
    attack = MemorySprayAttack(kernel, m=1,
                               region_pages=params["region_pages"],
                               template_rounds=params["template_rounds"])
    attack.setup()
    SoftTrrDefense(SoftTrrParams()).install(kernel)
    target = attack.targets[0]

    burst = round_robin(len(target.aggressor_vaddrs), 400)

    def defended_hammer_burst():
        attack.kit.run(burst, target.aggressor_vaddrs)

    benchmark(defended_hammer_burst)
