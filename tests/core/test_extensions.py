"""Tests for the Section VII extensions: L2 page-table protection and
the trusted-user object-protection API (root privilege escalation
defense)."""

import pytest

from repro.attacks.hammer import HammerKit
from repro.clock import NS_PER_MS
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.errors import ConfigError, SoftTrrError
from repro.kernel.kernel import Kernel
from repro.kernel.vma import HUGE, PAGE
from repro.patterns import round_robin

TINY = dict(timer_inr_ns=50_000)


def build(**param_overrides):
    kernel = Kernel(tiny_machine())
    params = SoftTrrParams(**{**TINY, **param_overrides})
    module = SoftTrr(params)
    kernel.load_module("softtrr", module)
    return kernel, module


class TestParams:
    def test_default_protects_l1_only(self):
        assert SoftTrrParams().protect_levels == (1,)

    def test_l2_extension_accepted(self):
        assert SoftTrrParams(protect_levels=(1, 2)).protect_levels == (1, 2)

    def test_l1_is_mandatory(self):
        with pytest.raises(ConfigError):
            SoftTrrParams(protect_levels=(2,))

    def test_unknown_levels_rejected(self):
        with pytest.raises(ConfigError):
            SoftTrrParams(protect_levels=(1, 3))


class TestL2Protection:
    def test_l2_pages_collected(self):
        kernel, module = build(protect_levels=(1, 2))
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 4 * PAGE)
        kernel.user_write(proc, base, b"x")
        l2_pages = [ppn for ppn, lvl in proc.mm.table_levels.items()
                    if lvl == 2]
        assert l2_pages
        for l2 in l2_pages:
            assert module.collector.is_protected(l2)

    def test_l1_only_config_ignores_l2(self):
        kernel, module = build()
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 4 * PAGE)
        kernel.user_write(proc, base, b"x")
        l2_pages = [ppn for ppn, lvl in proc.mm.table_levels.items()
                    if lvl == 2]
        for l2 in l2_pages:
            assert not module.collector.is_protected(l2)

    def test_initial_collect_includes_existing_l2s(self):
        kernel = Kernel(tiny_machine())
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 4 * PAGE)
        kernel.user_write(proc, base, b"x")
        module = SoftTrr(SoftTrrParams(**TINY, protect_levels=(1, 2)))
        kernel.load_module("softtrr", module)
        l2_pages = [ppn for ppn, lvl in proc.mm.table_levels.items()
                    if lvl == 2]
        assert all(module.collector.is_protected(l2) for l2 in l2_pages)

    def test_l2_row_refreshed_when_neighbour_hammered(self):
        kernel, module = build(protect_levels=(1, 2))
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 16 * PAGE)
        vaddrs = [base + i * PAGE for i in range(16)]
        for vaddr in vaddrs:
            kernel.user_write(proc, vaddr, b"x")
        l2 = next(ppn for ppn, lvl in proc.mm.table_levels.items()
                  if lvl == 2)
        bank, row = kernel.dram.mapping.page_rows(l2)[0]
        # A user page in the row after the L2 row is traced as the L2
        # page's neighbour; hammering it must make SoftTRR refresh the
        # L2 row, and only that row.
        kit = HammerKit(kernel, proc)
        neighbour = next(
            vaddr for vaddr in vaddrs
            if kernel.dram.mapping.row_of(kit.paddr_of(vaddr))
            == (bank, row + 1))
        assert module.collector.is_adjacent(kit.paddr_of(neighbour) >> 12)
        logged = len(module.refresher.refresh_log)
        kit.run_for([neighbour], 300_000)
        refreshed = [(b, r) for b, r, _ in
                     module.refresher.refresh_log[logged:]]
        assert refreshed
        assert set(refreshed) == {(bank, row)}

    def test_huge_mapping_reachable_set(self):
        """L2 protection with huge pages: the reachable user page of a
        PS entry is the huge mapping's base frame."""
        kernel, module = build(protect_levels=(1, 2))
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, HUGE, huge=True)
        kernel.user_write(proc, base, b"h")
        l2 = next(ppn for ppn, lvl in proc.mm.table_levels.items()
                  if lvl == 2)
        reachable = module.collector._reachable_user_pages(l2)
        huge_base_ppn = kernel.mapped_ppn_of(proc, base)
        assert huge_base_ppn in reachable


class TestProtectedObjects:
    def test_api_requires_loaded_module(self):
        kernel = Kernel(tiny_machine())
        module = SoftTrr(SoftTrrParams(**TINY))
        proc = kernel.create_process("app")
        with pytest.raises(SoftTrrError):
            module.protect_user_object(proc, 0x1000, PAGE)

    def test_protect_setuid_code_pages(self):
        kernel, module = build()
        setuid = kernel.create_process("setuid-binary")
        code = kernel.mmap(setuid, 4 * PAGE, name="text")
        count = module.protect_user_object(setuid, code, 4 * PAGE)
        assert count == 4
        for i in range(4):
            ppn = kernel.mapped_ppn_of(setuid, code + i * PAGE)
            assert module.collector.is_protected(ppn)

    def test_double_protect_is_idempotent(self):
        kernel, module = build()
        proc = kernel.create_process("app")
        code = kernel.mmap(proc, 2 * PAGE)
        assert module.protect_user_object(proc, code, 2 * PAGE) == 2
        assert module.protect_user_object(proc, code, 2 * PAGE) == 0

    def test_object_rows_join_the_refresh_machinery(self):
        kernel, module = build()
        proc = kernel.create_process("victim")
        code = kernel.mmap(proc, 2 * PAGE, name="text")
        module.protect_user_object(proc, code, 2 * PAGE)
        ppn = kernel.mapped_ppn_of(proc, code)
        bank, row = kernel.dram.mapping.page_rows(ppn)[0]
        assert module.structs.bank_struct(row, bank) is not None

    def test_object_protected_against_opcode_flipping(self):
        """Section VII's root-privilege-escalation scenario: hammering
        rows adjacent to a protected setuid code page must not corrupt
        its opcodes."""
        kernel, module = build()
        # The "setuid binary": a code page with known opcodes.
        setuid = kernel.create_process("setuid-binary")
        code = kernel.mmap(setuid, PAGE, name="text")
        opcodes = bytes(range(256)) * 16
        kernel.user_write(setuid, code, opcodes)
        module.protect_user_object(setuid, code, PAGE)
        code_ppn = kernel.mapped_ppn_of(setuid, code)
        bank, row = kernel.dram.mapping.page_rows(code_ppn)[0]
        # The attacker owns memory and hammers around the code page.
        attacker = kernel.create_process("attacker")
        span = kernel.mmap(attacker, 96 * PAGE)
        kernel.mlock(attacker, span, 96 * PAGE)
        kit = HammerKit(kernel, attacker)
        aggressors = []
        for i in range(96):
            va = span + i * PAGE
            pa = kit.paddr_of(va)
            b, r = kernel.dram.mapping.row_of(pa)
            if b == bank and abs(r - row) in (1, 2):
                aggressors.append(va)
        if len(aggressors) < 2:
            pytest.skip("attacker got no frames around the code page")
        kernel.clock.advance(2 * 50_000)
        kernel.dispatch_timers()
        kit.run(round_robin(2, 6000), aggressors[:2])
        after = kernel.dram.raw_read(code_ppn << 12, PAGE)
        assert after == opcodes, "protected object was corrupted"
        assert module.refresher.refreshes > 0

    def test_unprotected_object_gets_corrupted_in_same_scenario(self):
        """Control run: without the user API, the same hammering can
        flip the code page (when it sits on a vulnerable row)."""
        kernel = Kernel(tiny_machine())
        setuid = kernel.create_process("setuid-binary")
        code = kernel.mmap(setuid, PAGE, name="text")
        opcodes = bytes([0xFF]) * PAGE
        kernel.user_write(setuid, code, opcodes)
        code_ppn = kernel.mapped_ppn_of(setuid, code)
        bank, row = kernel.dram.mapping.page_rows(code_ppn)[0]
        if not kernel.dram.engine.is_vulnerable(bank, row):
            pytest.skip("code page landed on an invulnerable row")
        attacker = kernel.create_process("attacker")
        span = kernel.mmap(attacker, 96 * PAGE)
        kernel.mlock(attacker, span, 96 * PAGE)
        kit = HammerKit(kernel, attacker)
        aggressors = []
        for i in range(96):
            va = span + i * PAGE
            pa = kit.paddr_of(va)
            b, r = kernel.dram.mapping.row_of(pa)
            if b == bank and abs(r - row) == 1:
                aggressors.append(va)
        if len(aggressors) < 2:
            pytest.skip("attacker got no frames adjacent to the code page")
        kit.run(round_robin(2, 8000), aggressors[:2])
        flips = [f for f in kernel.dram.flip_log
                 if f.bank == bank and f.row == row]
        assert flips, "the control hammer should have flipped the row"
