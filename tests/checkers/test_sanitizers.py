"""Unit tests for the runtime invariant sanitizers.

Each sanitizer gets a clean-run case and a forced-desync case where the
violation is produced on purpose (tracker record dropped, RSVD bit
cleared behind the choke point, disturbance flip applied to a protected
row, TLB seeded with a stale armed translation, unsafe window params)
and the report must name the offending PPN / PTE paddr / row.
"""

import pytest

from repro.checkers.report import SanitizerReport, Violation
from repro.checkers.sanitizers import (
    check_window,
    check_window_config,
    install_sanitizers,
    sanitized,
)
from repro.clock import NS_PER_MS, NS_PER_SEC
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.dram.disturbance import FlipEvent
from repro.errors import SanitizerViolationError
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.mmu import bits
from repro.mmu.tlb import TlbEntry

PAGES = 24


def build(params=None):
    """Kernel + loaded SoftTRR, *without* sanitizers installed."""
    kernel = Kernel(tiny_machine())
    proc = kernel.create_process("app")
    base = kernel.mmap(proc, PAGES * PAGE)
    for i in range(PAGES):
        kernel.user_write(proc, base + i * PAGE, bytes([i]))
    softtrr = SoftTrr(params or SoftTrrParams())
    kernel.load_module("softtrr", softtrr)
    return kernel, proc, base, softtrr


def tick(kernel):
    kernel.clock.advance(NS_PER_MS)
    kernel.dispatch_timers()


# ====================================================================
# Static window check (no kernel at all)
# ====================================================================
class TestWindowStatic:
    def test_safe_params_pass(self):
        # window = 1 ms, first flip needs 50 ns x 20 000 = 1 ms: equal
        # is still safe (the refresher fires exactly in time).
        assert check_window(NS_PER_MS, 2, 50) is None

    def test_unsafe_params_report(self):
        message = check_window(NS_PER_MS, 3, 50)
        assert message is not None and "exceeds" in message

    def test_config_dict_safe(self):
        config = {"timer_inr_ns": NS_PER_MS, "count_limit": 2, "t_rc_ns": 50}
        assert check_window_config(config) is None

    def test_config_dict_unsafe(self):
        config = {"timer_inr_ns": 10 * NS_PER_MS, "count_limit": 4,
                  "t_rc_ns": 50}
        assert "exceeds" in check_window_config(config)

    def test_config_dict_custom_act(self):
        config = {"timer_inr_ns": NS_PER_MS, "count_limit": 2,
                  "t_rc_ns": 50, "act_to_first_flip": 100}
        assert "exceeds" in check_window_config(config)

    def test_config_missing_keys_raise(self):
        with pytest.raises(ValueError, match="count_limit"):
            check_window_config({"timer_inr_ns": 1, "t_rc_ns": 50})


# ====================================================================
# Report object
# ====================================================================
class TestReport:
    def test_accumulates_and_filters(self):
        report = SanitizerReport()
        report.record(Violation(sanitizer="pte", message="a", at_ns=1))
        report.record(Violation(sanitizer="tlb", message="b", at_ns=2))
        assert len(report) == 2
        assert [v.message for v in report.by_sanitizer("pte")] == ["a"]

    def test_assert_clean(self):
        report = SanitizerReport()
        report.assert_clean()  # no-op when empty
        report.record(Violation(sanitizer="pte", message="boom", at_ns=1,
                                ppn=0x42))
        with pytest.raises(SanitizerViolationError, match="boom"):
            report.assert_clean()


# ====================================================================
# Install / uninstall mechanics
# ====================================================================
class TestInstall:
    def test_double_install_rejected(self):
        kernel, *_ = build()
        install_sanitizers(kernel)
        with pytest.raises(SanitizerViolationError, match="already"):
            install_sanitizers(kernel)

    def test_uninstall_restores_choke_points(self):
        kernel, *_ = build()
        before = (kernel.mmu.pt_ops.write_entry, kernel.dram.write,
                  kernel.mmu.invlpg, kernel.dispatch_timers)
        with sanitized(kernel):
            assert kernel.mmu.pt_ops.write_entry is not before[0]
        after = (kernel.mmu.pt_ops.write_entry, kernel.dram.write,
                 kernel.mmu.invlpg, kernel.dispatch_timers)
        assert after == before
        assert kernel.sanitizers is None

    def test_checkpoints_ride_on_timer_ticks(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        kernel.dispatch_timers()  # no simulated time passed: no tick
        assert manager.report.checkpoints == 0
        tick(kernel)
        assert manager.report.checkpoints >= 1


# ====================================================================
# PteSanitizer
# ====================================================================
class TestPteSanitizer:
    def test_clean_tracing_cycle(self):
        kernel, proc, base, softtrr = build()
        with sanitized(kernel) as manager:
            for _ in range(3):
                tick(kernel)
                kernel.user_read(proc, base, 1)
            manager.checkpoint()
            assert len(manager.report) == 0

    def test_dropped_tracker_record_reports_ppn(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        tick(kernel)
        assert softtrr.tracer._armed
        pte_paddr = next(iter(softtrr.tracer._armed))
        del softtrr.tracer._armed[pte_paddr]
        manager.checkpoint()
        violations = manager.report.by_sanitizer("pte")
        assert len(violations) == 1
        assert violations[0].pte_paddr == pte_paddr
        assert violations[0].ppn == pte_paddr >> bits.PAGE_SHIFT
        assert "orphaned" in violations[0].message

    def test_bypassed_clear_reports_lost_mark(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        tick(kernel)
        pte_paddr = next(iter(softtrr.tracer._armed))
        pt_ops = kernel.mmu.pt_ops
        table_ppn = pte_paddr >> bits.PAGE_SHIFT
        index = (pte_paddr % PAGE) // 8
        entry = pt_ops.raw_read_entry(table_ppn, index)
        pt_ops.raw_write_entry(table_ppn, index,
                               entry & ~bits.PTE_RSVD_TRACE)
        manager.checkpoint()
        violations = manager.report.by_sanitizer("pte")
        assert len(violations) == 1
        assert "lost mark" in violations[0].message

    def test_violation_not_duplicated_across_checkpoints(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        tick(kernel)
        pte_paddr = next(iter(softtrr.tracer._armed))
        del softtrr.tracer._armed[pte_paddr]
        manager.checkpoint()
        manager.checkpoint()
        assert len(manager.report.by_sanitizer("pte")) == 1


# ====================================================================
# TlbSanitizer
# ====================================================================
class TestTlbSanitizer:
    def test_stale_armed_translation_caught(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        tick(kernel)
        pte_paddr = next(iter(softtrr.tracer._armed))
        kernel.mmu.tlb.fill(base, TlbEntry(
            ppn=0x1234, flags=0, leaf_level=1, pte_paddr=pte_paddr))
        manager.checkpoint()
        violations = manager.report.by_sanitizer("tlb")
        assert len(violations) == 1
        assert violations[0].pte_paddr == pte_paddr

    def test_broken_invlpg_caught(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        kernel.user_read(proc, base, 1)  # populate the TLB
        assert kernel.mmu.tlb.peek(base) is not None
        kernel.mmu.tlb.invlpg = lambda vaddr: None  # a buggy flush
        kernel.mmu.invlpg(base)
        violations = manager.report.by_sanitizer("tlb")
        assert len(violations) == 1
        assert "invlpg" in violations[0].message

    def test_working_invlpg_clean(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        kernel.user_read(proc, base, 1)
        kernel.mmu.invlpg(base)
        assert len(manager.report) == 0


# ====================================================================
# RowShadowSanitizer
# ====================================================================
class TestRowShadowSanitizer:
    def test_disturbance_flip_into_protected_row_caught(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        manager.checkpoint()  # establish the shadows
        ppn = next(iter(softtrr.structs.pt_rbtree.keys()))
        loc = kernel.dram.mapping.phys_to_dram(ppn << bits.PAGE_SHIFT)
        current = kernel.dram.raw_read(ppn << bits.PAGE_SHIFT, 1)[0]
        kernel.dram._apply_flips([FlipEvent(
            bank=loc.bank, row=loc.row, bit_offset=loc.col * 8,
            from_value=current & 1, at_ns=kernel.clock.now_ns)])
        manager.checkpoint()
        violations = manager.report.by_sanitizer("row_shadow")
        assert len(violations) == 1
        assert violations[0].ppn == ppn
        assert violations[0].bank == loc.bank
        assert violations[0].row == loc.row

    def test_legitimate_pte_writes_stay_clean(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        manager.checkpoint()
        # Page-table churn rewrites protected pages through write_entry;
        # the shadows must follow.
        extra = kernel.mmap(proc, 8 * PAGE)
        for i in range(8):
            kernel.user_write(proc, extra + i * PAGE, b"z")
        kernel.munmap(proc, extra, 8 * PAGE)
        manager.checkpoint()
        assert len(manager.report.by_sanitizer("row_shadow")) == 0


# ====================================================================
# WindowSanitizer (runtime half)
# ====================================================================
class TestWindowSanitizer:
    def test_unsafe_module_reported_once(self):
        kernel = Kernel(tiny_machine())
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 4 * PAGE)
        kernel.user_write(proc, base, b"x")
        # Such a module only loads with force_unsafe — exactly the kind
        # of misconfiguration the runtime window check is there for.
        params = SoftTrrParams(timer_inr_ns=NS_PER_SEC, count_limit=8)
        kernel.load_module("softtrr", SoftTrr(params, force_unsafe=True))
        manager = install_sanitizers(kernel)
        manager.checkpoint()
        manager.checkpoint()
        violations = manager.report.by_sanitizer("window")
        assert len(violations) == 1
        assert "exceeds" in violations[0].message

    def test_safe_module_clean(self):
        kernel, proc, base, softtrr = build()
        manager = install_sanitizers(kernel)
        manager.checkpoint()
        assert len(manager.report.by_sanitizer("window")) == 0


# ====================================================================
# The sanitized() context manager
# ====================================================================
class TestSanitizedContext:
    def test_clean_block_passes(self):
        kernel, proc, base, softtrr = build()
        with sanitized(kernel):
            tick(kernel)
            kernel.user_read(proc, base, 1)

    def test_desync_in_block_raises_at_exit(self):
        kernel, proc, base, softtrr = build()
        with pytest.raises(SanitizerViolationError, match="orphaned"):
            with sanitized(kernel):
                tick(kernel)
                pte_paddr = next(iter(softtrr.tracer._armed))
                del softtrr.tracer._armed[pte_paddr]
        # The choke points were still restored.
        assert kernel.sanitizers is None

    def test_strict_raises_at_the_violation(self):
        kernel, proc, base, softtrr = build()
        with pytest.raises(SanitizerViolationError):
            with sanitized(kernel, strict=True) as manager:
                tick(kernel)
                del softtrr.tracer._armed[
                    next(iter(softtrr.tracer._armed))]
                manager.checkpoint()
                pytest.fail("strict mode must raise inside checkpoint")
