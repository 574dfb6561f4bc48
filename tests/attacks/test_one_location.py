"""One-location hammering (Section II-B, pattern 3).

"One-location hammer selects a single aggressor row ... only applies to
certain systems where the DRAM controller employs an advanced policy"
— i.e. a closed-page controller that precharges after every access, so
even a single repeatedly-accessed row is re-activated each time.
"""

import pytest

from repro.config import MachineSpec, CostModel
from repro.dram.bank import RowBufferPolicy
from repro.dram.chiptrr import TrrParams
from repro.dram.disturbance import DisturbanceParams
from repro.dram.geometry import DramGeometry
from repro.dram.timing import DDR3_TIMINGS
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.attacks.hammer import HammerKit
from repro.patterns import round_robin


def machine(policy: RowBufferPolicy) -> MachineSpec:
    return MachineSpec(
        name=f"policy-{policy.value}", cpu_arch="t", cpu_model="t",
        dram_part="t", ddr_generation=3,
        geometry=DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192),
        timings=DDR3_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=2000.0, row_vuln_probability=1.0, seed=11),
        trr=TrrParams(enabled=False),
        cost=CostModel(),
        row_policy=policy,
    )


def single_row_disturbance(policy: RowBufferPolicy, accesses: int = 400):
    """Repeatedly load one address (with clflush); return the
    disturbance its neighbours accumulated."""
    kernel = Kernel(machine(policy))
    proc = kernel.create_process("attacker")
    base = kernel.mmap(proc, PAGE)
    kit = HammerKit(kernel, proc)
    paddr = kit.paddr_of(base)
    bank, row = kernel.dram.mapping.row_of(paddr)
    for _ in range(accesses):
        kernel.mmu.clflush(paddr)
        kernel.user_read(proc, base, 8)
    return kernel.dram.row_accumulated(bank, row + 1)


class TestOneLocationHammer:
    def test_open_page_policy_absorbs_single_row(self):
        """On open-page controllers the row buffer eats the accesses:
        consecutive loads of one row barely activate it."""
        disturbance = single_row_disturbance(RowBufferPolicy.OPEN_PAGE)
        assert disturbance < 20

    def test_closed_page_policy_enables_one_location(self):
        """On a closed-page controller every access is an activation:
        one location is enough to hammer."""
        disturbance = single_row_disturbance(RowBufferPolicy.CLOSED_PAGE)
        assert disturbance > 350

    def test_one_location_flips_on_closed_page_machine(self):
        kernel = Kernel(machine(RowBufferPolicy.CLOSED_PAGE))
        proc = kernel.create_process("attacker")
        span = kernel.mmap(proc, 16 * PAGE)
        kernel.mlock(proc, span, 16 * PAGE)
        kit = HammerKit(kernel, proc)
        paddr = kit.paddr_of(span)
        bank, row = kernel.dram.mapping.row_of(paddr)
        kit.run(round_robin(1, 4000), [span])  # a single aggressor address
        flips = [f for f in kernel.dram.flip_log
                 if f.bank == bank and abs(f.row - row) <= 6]
        assert flips, "one-location hammer must flip on closed-page policy"
