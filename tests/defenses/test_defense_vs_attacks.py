"""Defense-vs-attack matrix on the tiny machine.

Reproduces the comparison claims of Sections I/II at test scale:

* CATT stops Memory Spray but falls to CATTmew and PThammer;
* CTA stops Memory Spray and CATTmew but falls to PThammer;
* ZebRAM stops distance-1 attacks but falls to distance-2 hammering;
* ANVIL detects explicit (load-visible) hammering but not PThammer;
* SoftTRR stops all of them (tested in tests/attacks).
"""

import pytest

from repro.attacks.cattmew import CattmewAttack
from repro.attacks.memory_spray import MemorySprayAttack
from repro.attacks.pthammer import PthammerSprayAttack
from repro.config import tiny_machine
from repro.defenses.anvil import AnvilDefense
from repro.defenses.base import NoDefense, SoftTrrDefense
from repro.defenses.catt import CattDefense
from repro.defenses.cta import CtaDefense
from repro.defenses.zebram import ZebramDefense
from repro.errors import AttackError, DefenseError, TemplatingError
from repro.machine import Machine

KW = dict(m=1, region_pages=192, template_rounds=3000)

#: ANVIL scaled to the tiny machine's weak DRAM (flips at ~2000 weighted
#: ACTs ~= 160 us), like the SoftTRR test parameters.
TINY_ANVIL = dict(interval_ns=50_000, miss_threshold=300, row_threshold=3)


class TestCattMatrix:
    def test_catt_blocks_memory_spray_placement(self):
        kernel = Machine.from_parts(tiny_machine(), CattDefense()).kernel
        attack = MemorySprayAttack(kernel, **KW)
        with pytest.raises(DefenseError):
            attack.setup()

    def test_cattmew_defeats_catt(self):
        kernel = Machine.from_parts(tiny_machine(), CattDefense()).kernel
        attack = CattmewAttack(kernel, **KW)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=1_500_000)
        assert outcome.succeeded

    def test_pthammer_defeats_catt(self):
        kernel = Machine.from_parts(tiny_machine(), CattDefense()).kernel
        attack = PthammerSprayAttack(kernel, spray_count=96, victims=1)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=4_000_000)
        assert outcome.succeeded


class TestCtaMatrix:
    def test_cta_blocks_memory_spray_placement(self):
        kernel = Machine.from_parts(tiny_machine(), CtaDefense()).kernel
        attack = MemorySprayAttack(kernel, **KW)
        with pytest.raises(DefenseError):
            attack.setup()

    def test_cta_blocks_cattmew_placement(self):
        kernel = Machine.from_parts(tiny_machine(), CtaDefense()).kernel
        attack = CattmewAttack(kernel, **KW)
        with pytest.raises(DefenseError):
            attack.setup()

    def test_pthammer_defeats_cta(self):
        kernel = Machine.from_parts(tiny_machine(), CtaDefense()).kernel
        attack = PthammerSprayAttack(kernel, spray_count=96, victims=1)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=4_000_000)
        assert outcome.succeeded


class TestZebramMatrix:
    def test_zebram_starves_distance_one_templating(self):
        """All attacker frames sit in even rows: no +-1 aggressors exist."""
        kernel = Machine.from_parts(tiny_machine(), ZebramDefense()).kernel
        attack = MemorySprayAttack(kernel, pattern_override="double_sided",
                                   **KW)
        with pytest.raises(TemplatingError):
            attack.setup()

    def test_distance_two_hammering_defeats_zebram(self):
        """Kim et al. [26]: flips reach distance >= 2; the stripe is
        jumped entirely (the paper's Section I criticism)."""
        kernel = Machine.from_parts(tiny_machine(), ZebramDefense()).kernel
        attack = MemorySprayAttack(kernel, pattern_override="distance_two",
                                   m=1, region_pages=224,
                                   template_rounds=5000)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=2_500_000)
        assert outcome.succeeded


class TestAnvilMatrix:
    def test_anvil_mitigates_memory_spray(self):
        """ANVIL's selective refresh suppresses load-visible hammering —
        here already at the templating stage (no flippable page can even
        be found while the detector is running)."""
        defense = AnvilDefense(**TINY_ANVIL)
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        attack = MemorySprayAttack(kernel, **KW)
        mitigated = False
        try:
            attack.setup()
            outcome = attack.run(hammer_ns_per_victim=1_500_000)
            mitigated = outcome.bit_flip_failed
        except TemplatingError:
            mitigated = True
        assert mitigated
        assert defense.module.detections > 0

    def test_anvil_misses_pthammer(self):
        defense = AnvilDefense(**TINY_ANVIL)
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        attack = PthammerSprayAttack(kernel, spray_count=96, victims=1)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=4_000_000)
        assert outcome.succeeded


class TestVanillaBaseline:
    def test_pthammer_spray_works_on_vanilla(self):
        kernel = Machine.from_parts(tiny_machine(), NoDefense()).kernel
        attack = PthammerSprayAttack(kernel, spray_count=96, victims=1)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=4_000_000)
        assert outcome.succeeded

    def test_softtrr_defeats_pthammer_spray(self):
        from repro.core.profile import SoftTrrParams
        kernel = Machine.from_parts(tiny_machine(), NoDefense()).kernel
        attack = PthammerSprayAttack(kernel, spray_count=96, victims=1)
        attack.setup()
        SoftTrrDefense(SoftTrrParams(timer_inr_ns=50_000)).install(kernel)
        outcome = attack.run(hammer_ns_per_victim=4_000_000)
        assert outcome.bit_flip_failed
