"""Extra experiment 2 — baseline defenses vs the attacks (Sections I/II).

Regenerates the ``baselines`` scenario group, the comparison the paper
argues from:

* CATT  — blocks Memory Spray, bypassed by CATTmew and PThammer;
* CTA   — blocks Memory Spray and CATTmew, bypassed by PThammer;
* ZebRAM — blocks distance-1 attacks, bypassed by distance-2 hammering;
* ANVIL — suppresses load-visible hammering, blind to PThammer;
* RIP-RH — isolates sensitive user processes only: page-table attacks
  sail through (the Section VII division of labour);
* ALIS — isolates DMA buffers: kills CATTmew structurally, nothing else;
* SoftTRR — blocks everything (Table II / tests).

Runs on the tiny machine (the relationships are structural, not
scale-dependent), with SoftTRR/ANVIL timing scaled to its weaker DRAM.
PThammer is the probabilistic ``pthammer_spray`` variant: it sprays
L1PTs and never places them on templated frames.

The benchmarked operation is the CATT placement veto — the cheapest
structural defense decision.
"""

import pytest
from conftest import run_group

from repro.analysis.tables import render_matrix
from repro.config import tiny_machine
from repro.defenses.catt import CattDefense
from repro.errors import DefenseError
from repro.kernel.physmem import FrameUse
from repro.machine import Machine

EXPECTED = {
    "baselines-vanilla-memory_spray": "bypassed",
    "baselines-vanilla-cattmew": "bypassed",
    "baselines-vanilla-pthammer_spray": "bypassed",
    "baselines-catt-memory_spray": "blocked",
    "baselines-catt-cattmew": "bypassed",
    "baselines-catt-pthammer_spray": "bypassed",
    "baselines-cta-memory_spray": "blocked",
    "baselines-cta-cattmew": "blocked",
    "baselines-cta-pthammer_spray": "bypassed",
    "baselines-zebram-memory_spray": "blocked",
    "baselines-zebram-memory_spray_d2": "bypassed",
    "baselines-anvil-memory_spray": "blocked",
    "baselines-anvil-pthammer_spray": "bypassed",
    "baselines-riprh-memory_spray": "bypassed",
    "baselines-alis-cattmew": "blocked",
    "baselines-alis-memory_spray": "bypassed",
    "baselines-softtrr-memory_spray": "blocked",
    "baselines-softtrr-cattmew": "blocked",
    "baselines-softtrr-pthammer_spray": "blocked",
}


def test_baseline_matrix(benchmark, announce):
    results = run_group("baselines")
    announce("extra_baselines.txt", render_matrix(results))
    got = {result.name: result.payload["verdict"] for result in results}
    assert got == EXPECTED

    defense = CattDefense()
    kernel = Machine.from_parts(tiny_machine(), defense).kernel
    user_frame = kernel.alloc_frame(FrameUse.USER)
    kernel.free_frame(user_frame)

    def placement_veto():
        with pytest.raises(DefenseError):
            defense.policy.alloc_specific(user_frame, FrameUse.PAGE_TABLE)

    benchmark(placement_veto)
