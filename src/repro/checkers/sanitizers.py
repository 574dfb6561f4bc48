"""Runtime invariant sanitizers for a booted kernel.

Where the lint (:mod:`repro.checkers.lint`) checks the *source*, the
sanitizers check a *running* simulation.  They wrap the existing choke
points — ``PageTableOps.write_entry`` (which the tracer's arm/disarm
path and ``Mmu.write_pte`` both flow through), ``DramModule`` row
writes, ``Mmu.invlpg`` and the kernel timer dispatch — and verify, at
every timer tick, the invariants SoftTRR's security argument rests on:

* **PteSanitizer** — reserved trace bit set in a leaf PTE ⟺ the tracer
  tracks that entry.  TRRespass/U-TRR broke real TRR implementations
  exactly because tracker and DRAM state silently desynchronised; this
  is the software analogue.
* **TlbSanitizer** — after every ``invlpg`` the TLB really dropped the
  translation, and no cached translation points at an armed PTE (a
  stale entry would let accesses bypass the trace fault).
* **RowShadowSanitizer** — protected pages' DRAM contents equal a
  shadow copy maintained through the legitimate write paths; a mismatch
  means charge leaked into a page table (a bit flip the refresher
  failed to prevent).
* **WindowChecker** — the statically-derived protection-window
  inequality ``timer_inr × (count_limit − 1) ≤ tRC × #ACT`` holds for
  every loaded module.  Also usable as a pure static check on config
  dicts (:func:`check_window_config`) with no kernel at all.

Sanitizers are opt-in — ``install_sanitizers(kernel)`` arms them for
the kernel's lifetime (``Machine(sanitizers="report")`` or
``"strict"`` does so at assembly), or wrap a phase in
``with sanitized(kernel):`` — and accumulate
:class:`~repro.checkers.report.Violation` records into a
:class:`~repro.checkers.report.SanitizerReport`.  ``strict=True`` turns
the first violation into a :class:`SanitizerViolationError` instead.

Checks run at *checkpoint* granularity (after timer dispatch), not per
write: the tracer legitimately writes a marked entry a moment before
registering it, so per-write iff-checking would false-positive inside
the arm path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Set, Tuple

from ..core.profile import DEFAULT_ACT_TO_FIRST_FLIP, check_window
from ..errors import SanitizerViolationError
from ..kernel.physmem import FrameUse
from ..mmu import bits
from .report import SanitizerReport, Violation

PAGE = 1 << bits.PAGE_SHIFT


# ====================================================================
# WindowChecker: static half (usable with no kernel at all)
# ====================================================================
def check_window_config(config: Dict[str, int]) -> Optional[str]:
    """Static window check on a plain config dict.

    Required keys: ``timer_inr_ns``, ``count_limit``, ``t_rc_ns``;
    optional: ``act_to_first_flip``.  Returns a violation message or
    ``None`` if the configuration is safe.
    """
    missing = {"timer_inr_ns", "count_limit", "t_rc_ns"} - set(config)
    if missing:
        raise ValueError(f"config missing keys: {sorted(missing)}")
    return check_window(
        config["timer_inr_ns"],
        config["count_limit"],
        config["t_rc_ns"],
        config.get("act_to_first_flip", DEFAULT_ACT_TO_FIRST_FLIP),
    )


# ====================================================================
# Individual sanitizers
# ====================================================================
class Sanitizer:
    """Base class: a named invariant checked at checkpoints."""

    name = "sanitizer"

    def __init__(self, manager: "SanitizerManager") -> None:
        self.manager = manager
        self.kernel = manager.kernel

    def _violate(self, message: str, **where) -> None:
        self.manager.record(Violation(
            sanitizer=self.name,
            message=message,
            at_ns=self.kernel.clock.now_ns,
            **where,
        ))


class PteSanitizer(Sanitizer):
    """Reserved trace bit in DRAM ⟺ tracer-tracked.

    The write-entry wrapper keeps ``_marked`` — the PTE paddrs whose
    last architectural store carried the trace bit.  At each checkpoint
    the union of ``_marked`` and the tracer's armed registry is raw-read
    from DRAM and each side of the iff is verified.  Desyncs forced
    through ``raw_write_entry`` (bypassing the choke point) are caught
    because the ground truth is always the raw DRAM read.
    """

    name = "pte"

    def __init__(self, manager: "SanitizerManager") -> None:
        super().__init__(manager)
        self._marked: Set[int] = set()
        self._reported: Set[Tuple[int, bool, bool]] = set()

    def on_write_entry(self, pte_paddr: int, value: int) -> None:
        """Choke-point hook: track the trace bit of the stored value."""
        if value & bits.PTE_RSVD_TRACE:
            self._marked.add(pte_paddr)
        else:
            self._marked.discard(pte_paddr)

    def sync(self, tracer) -> None:
        """Adopt pre-existing armed state (install-time catch-up)."""
        if tracer is None or tracer.TRACE_MODE != "rsvd":
            return
        for pte_paddr in tracer._armed:
            if self._raw_entry(pte_paddr) & bits.PTE_RSVD_TRACE:
                self._marked.add(pte_paddr)

    def checkpoint(self, tracer) -> None:
        if tracer is None:
            self._marked.clear()
            return
        if tracer.TRACE_MODE != "rsvd":
            return  # the present-bit tracer has no rsvd invariant
        armed = tracer._armed
        frame_table = self.kernel.frame_table
        for pte_paddr in sorted(self._marked | set(armed)):
            if (pte_paddr not in armed
                    and frame_table.use_of(pte_paddr >> bits.PAGE_SHIFT)
                    is not FrameUse.PAGE_TABLE):
                # The frame was freed (or recycled): it holds no live
                # PTE, so whatever its bytes say is not a trace mark.
                self._marked.discard(pte_paddr)
                continue
            entry = self._raw_entry(pte_paddr)
            bit_set = bool(entry & bits.PTE_RSVD_TRACE)
            tracked = pte_paddr in armed
            if bit_set == tracked:
                continue
            key = (pte_paddr, bit_set, tracked)
            if key in self._reported:
                continue
            self._reported.add(key)
            if bit_set:
                self._violate(
                    "leaf PTE carries the RSVD trace bit but the tracer "
                    "does not track it (orphaned mark)",
                    pte_paddr=pte_paddr, ppn=pte_paddr >> bits.PAGE_SHIFT,
                )
            else:
                self._violate(
                    "tracer tracks an armed PTE whose RSVD trace bit is "
                    "clear in DRAM (lost mark)",
                    pte_paddr=pte_paddr, ppn=pte_paddr >> bits.PAGE_SHIFT,
                )

    def _raw_entry(self, pte_paddr: int) -> int:
        pt_ops = self.kernel.mmu.pt_ops
        return pt_ops.raw_read_entry(
            pte_paddr >> bits.PAGE_SHIFT, (pte_paddr & (PAGE - 1)) // 8)


class TlbSanitizer(Sanitizer):
    """TLB/walker coherence around flushes and armed entries."""

    name = "tlb"

    def on_invlpg(self, vaddr: int) -> None:
        """Post-``invlpg`` hook: the translation must really be gone."""
        entry = self.kernel.mmu.tlb.peek(vaddr)
        if entry is not None:
            self._violate(
                f"invlpg({vaddr:#x}) left a live TLB translation",
                pte_paddr=entry.pte_paddr, ppn=entry.ppn,
            )

    def checkpoint(self, tracer) -> None:
        if tracer is None:
            return
        armed = tracer._armed
        if not armed:
            return
        for entry in self.kernel.mmu.tlb.entries():
            if entry.pte_paddr in armed:
                self._violate(
                    "TLB caches a translation through an armed PTE; "
                    "accesses would bypass the trace fault",
                    pte_paddr=entry.pte_paddr, ppn=entry.ppn,
                )


class RowShadowSanitizer(Sanitizer):
    """Protected pages' DRAM contents equal their shadow copies.

    Shadows are snapshots of every protected (``pt_rbtree``) page,
    refreshed through the legitimate write paths (the wrapped
    ``DramModule.write`` / ``raw_write``).  Disturbance flips poke row
    storage directly and therefore surface as a shadow mismatch at the
    next checkpoint — reported with the page, bank and row, then
    resynced so one flip yields one violation.
    """

    name = "row_shadow"

    def __init__(self, manager: "SanitizerManager") -> None:
        super().__init__(manager)
        self._shadows: Dict[int, bytes] = {}

    def on_phys_write(self, paddr: int, length: int) -> None:
        """Choke-point hook: a legitimate write updates the shadow."""
        if not self._shadows or length <= 0:
            return
        first = paddr >> bits.PAGE_SHIFT
        last = (paddr + length - 1) >> bits.PAGE_SHIFT
        for ppn in range(first, last + 1):
            if ppn in self._shadows:
                self._shadows[ppn] = bytes(
                    self.kernel.dram.raw_read(ppn << bits.PAGE_SHIFT, PAGE))

    def checkpoint(self, collector) -> None:
        if collector is None:
            self._shadows.clear()
            return
        dram = self.kernel.dram
        protected = set(collector.structs.pt_rbtree.keys())
        for ppn in list(self._shadows):
            if ppn not in protected:
                del self._shadows[ppn]
        for ppn in sorted(protected):
            data = bytes(dram.raw_read(ppn << bits.PAGE_SHIFT, PAGE))
            shadow = self._shadows.get(ppn)
            if shadow is None:
                self._shadows[ppn] = data
                continue
            if data == shadow:
                continue
            offset = next(
                i for i in range(PAGE) if data[i] != shadow[i])
            loc = dram.mapping.phys_to_dram((ppn << bits.PAGE_SHIFT) + offset)
            self._violate(
                f"protected page content diverged from shadow at byte "
                f"{offset} (uncaught charge leak / bit flip)",
                ppn=ppn, bank=loc.bank, row=loc.row,
            )
            self._shadows[ppn] = data


class WindowSanitizer(Sanitizer):
    """Runtime half of the window check: every loaded module is safe."""

    name = "window"

    def __init__(self, manager: "SanitizerManager") -> None:
        super().__init__(manager)
        self._reported: Set[int] = set()

    def checkpoint(self, modules) -> None:
        t_rc_ns = self.kernel.dram.timings.t_rc_ns
        for module in modules:
            params = getattr(module, "params", None)
            if params is None or not hasattr(params, "protection_window_ns"):
                continue
            if id(module) in self._reported:
                continue
            message = check_window(
                params.timer_inr_ns, params.count_limit, t_rc_ns)
            if message is not None:
                self._reported.add(id(module))
                self._violate(f"{getattr(module, 'name', 'module')}: {message}")


# ====================================================================
# Manager: wraps the choke points, owns the report
# ====================================================================
class SanitizerManager:
    """Installs/uninstalls the sanitizers on one kernel."""

    def __init__(self, kernel, *, strict: bool = False) -> None:
        self.kernel = kernel
        self.strict = strict
        self.report = SanitizerReport()
        self.pte = PteSanitizer(self)
        self.tlb = TlbSanitizer(self)
        self.rows = RowShadowSanitizer(self)
        self.window = WindowSanitizer(self)
        self.installed = False
        self._originals: Dict[str, object] = {}
        self._fired_seen = 0
        self._in_checkpoint = False

    # ------------------------------------------------------------ record
    def record(self, violation: Violation) -> None:
        """Accumulate (or, in strict mode, raise on) one violation."""
        self.report.record(violation)
        if self.strict:
            raise SanitizerViolationError(violation.format())

    # ----------------------------------------------------------- install
    def install(self) -> "SanitizerManager":
        """Wrap the choke points; idempotent per manager."""
        if self.installed:
            return self
        kernel = self.kernel
        pt_ops = kernel.mmu.pt_ops
        dram = kernel.dram
        mmu = kernel.mmu
        self._originals = {
            "write_entry": pt_ops.write_entry,
            "dram_write": dram.write,
            "dram_raw_write": dram.raw_write,
            "invlpg": mmu.invlpg,
            "dispatch_timers": kernel.dispatch_timers,
        }
        manager = self
        orig_write_entry = self._originals["write_entry"]
        orig_dram_write = self._originals["dram_write"]
        orig_raw_write = self._originals["dram_raw_write"]
        orig_invlpg = self._originals["invlpg"]
        orig_dispatch = self._originals["dispatch_timers"]

        def write_entry(table_ppn, index, value):
            orig_write_entry(table_ppn, index, value)
            paddr = pt_ops.entry_paddr(table_ppn, index)
            manager.pte.on_write_entry(paddr, value)

        def dram_write(paddr, payload):
            orig_dram_write(paddr, payload)
            manager.rows.on_phys_write(paddr, len(payload))

        def dram_raw_write(paddr, payload):
            orig_raw_write(paddr, payload)
            manager.rows.on_phys_write(paddr, len(payload))

        def invlpg(vaddr):
            orig_invlpg(vaddr)
            manager.tlb.on_invlpg(vaddr)

        def dispatch_timers():
            orig_dispatch()
            # A checkpoint per actual timer tick — the tracer's state
            # only changes in bulk at ticks, and per-call sweeps would
            # dominate simulation time.
            if kernel.timers.fired != manager._fired_seen:
                manager._fired_seen = kernel.timers.fired
                manager.checkpoint()

        pt_ops.write_entry = write_entry
        dram.write = dram_write
        dram.raw_write = dram_raw_write
        mmu.invlpg = invlpg
        kernel.dispatch_timers = dispatch_timers
        self._fired_seen = kernel.timers.fired
        self.installed = True
        kernel.sanitizers = self
        # Adopt whatever state already exists (module loaded before us).
        tracer, _, _ = self._find_softtrr()
        self.pte.sync(tracer)
        return self

    def uninstall(self) -> None:
        """Restore the wrapped methods."""
        if not self.installed:
            return
        kernel = self.kernel
        kernel.mmu.pt_ops.write_entry = self._originals["write_entry"]
        kernel.dram.write = self._originals["dram_write"]
        kernel.dram.raw_write = self._originals["dram_raw_write"]
        kernel.mmu.invlpg = self._originals["invlpg"]
        kernel.dispatch_timers = self._originals["dispatch_timers"]
        self._originals = {}
        self.installed = False
        if getattr(kernel, "sanitizers", None) is self:
            kernel.sanitizers = None

    # -------------------------------------------------------- checkpoint
    def _find_softtrr(self):
        """(tracer, collector, modules) of the loaded SoftTRR, if any."""
        tracer = collector = None
        modules: List[object] = []
        for module in self.kernel.loaded_modules():
            if getattr(module, "params", None) is not None:
                modules.append(module)
            if tracer is None and getattr(module, "tracer", None) is not None:
                tracer = module.tracer
                collector = module.collector
        return tracer, collector, modules

    def checkpoint(self) -> SanitizerReport:
        """Run every sanitizer sweep now; returns the report."""
        if self._in_checkpoint:
            return self.report
        self._in_checkpoint = True
        try:
            self.report.checkpoints += 1
            tracer, collector, modules = self._find_softtrr()
            self.pte.checkpoint(tracer)
            self.tlb.checkpoint(tracer)
            self.rows.checkpoint(collector)
            self.window.checkpoint(modules)
        finally:
            self._in_checkpoint = False
        return self.report


def install_sanitizers(kernel, *, strict: bool = False) -> SanitizerManager:
    """Install a fresh :class:`SanitizerManager` on ``kernel``."""
    existing = getattr(kernel, "sanitizers", None)
    if existing is not None and existing.installed:
        raise SanitizerViolationError(
            "sanitizers already installed on this kernel")
    return SanitizerManager(kernel, strict=strict).install()


@contextmanager
def sanitized(kernel, *, strict: bool = False):
    """Run a block under sanitizers; asserts a clean report on exit.

    ``strict=True`` raises at the moment of the first violation instead
    of at block exit.  The manager is yielded so the block can force
    checkpoints or inspect the report.
    """
    manager = install_sanitizers(kernel, strict=strict)
    try:
        yield manager
        manager.checkpoint()
        manager.report.assert_clean()
    finally:
        manager.uninstall()
