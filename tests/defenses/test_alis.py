"""Tests for ALIS: DMA isolation kills CATTmew and nothing else."""

import pytest

from repro.attacks.cattmew import CattmewAttack
from repro.attacks.memory_spray import MemorySprayAttack
from repro.config import tiny_machine
from repro.defenses.alis import AlisDefense
from repro.errors import DefenseError, TemplatingError
from repro.kernel.devices import SgDevice
from repro.kernel.physmem import FrameUse
from repro.kernel.vma import PAGE
from repro.machine import Machine

KW = dict(m=1, region_pages=192, template_rounds=3000)


class TestRouting:
    def test_sg_frames_isolated(self):
        defense = AlisDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        proc = kernel.create_process("app")
        sg = SgDevice(kernel)
        base = sg.alloc_buffer(proc, 2 * PAGE)
        for ppn in sg.buffer_frames(proc, base):
            assert defense.policy.region_of(ppn) == "dma"
        user = kernel.alloc_frame(FrameUse.USER)
        pt = kernel.alloc_frame(FrameUse.PAGE_TABLE)
        assert defense.policy.region_of(user) == "common"
        assert defense.policy.region_of(pt) == "common"

    def test_sg_rows_never_near_pt_rows(self):
        defense = AlisDefense()
        kernel = Machine.from_parts(tiny_machine(), defense).kernel
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 4 * PAGE)
        for i in range(4):
            kernel.user_write(proc, base + i * PAGE, b"x")
        sg = SgDevice(kernel)
        sg_base = sg.alloc_buffer(proc, 4 * PAGE)
        mapping = kernel.dram.mapping
        sg_rows = {row for ppn in sg.buffer_frames(proc, sg_base)
                   for _, row in mapping.page_rows(ppn)}
        pt_rows = {row for l1 in kernel.l1pt_frames()
                   for _, row in mapping.page_rows(l1)}
        for sg_row in sg_rows:
            for pt_row in pt_rows:
                assert abs(sg_row - pt_row) > 6


class TestCoverage:
    def test_cattmew_blocked(self):
        """CATTmew templates through the SG buffer; its vulnerable
        frames live in the isolated DMA region, where the kernel refuses
        to place an L1PT."""
        kernel = Machine.from_parts(tiny_machine(), AlisDefense()).kernel
        # Fit the SG templating region inside the small DMA partition.
        attack = CattmewAttack(kernel, m=1, region_pages=96,
                               template_rounds=3000)
        with pytest.raises((DefenseError, TemplatingError)):
            attack.setup()

    def test_memory_spray_unaffected(self):
        """ALIS isolates DMA memory, nothing else: the ordinary
        user-memory attack still corrupts page tables."""
        kernel = Machine.from_parts(tiny_machine(), AlisDefense()).kernel
        attack = MemorySprayAttack(kernel, **KW)
        attack.setup()
        outcome = attack.run(hammer_ns_per_victim=1_500_000)
        assert outcome.succeeded
