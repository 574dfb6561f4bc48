"""Exception hierarchy for the SoftTRR reproduction stack.

Every layer of the simulation (DRAM, MMU, kernel, SoftTRR module, attacks)
raises exceptions derived from :class:`ReproError` so callers can
distinguish simulation bugs from modelled hardware/kernel events.

Two exceptions are *modelled events* rather than errors:

* :class:`PageFaultException` is the simulated hardware exception raised by
  the MMU when a translation violates the paging structures.  The kernel's
  ``do_page_fault`` path catches it, exactly as the real interrupt vector
  does.
* :class:`KernelPanic` models a kernel abort (e.g. the crash the paper
  describes when a tracer based on the *present* bit races with ``fork``'s
  present-bit checks, Section IV-C).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the reproduction stack."""


class ConfigError(ReproError):
    """A configuration value is inconsistent or out of range."""


class DramError(ReproError):
    """An invalid operation against the DRAM substrate."""


class AddressMappingError(DramError):
    """A physical<->DRAM address mapping is malformed or not invertible."""


class MmuError(ReproError):
    """An invalid operation against the MMU substrate."""


class KernelError(ReproError):
    """An invalid operation against the simulated kernel."""


class OutOfMemoryError(KernelError):
    """The buddy or slab allocator ran out of physical memory."""


class BadAddressError(KernelError):
    """A syscall was given an address outside any VMA (simulated EFAULT)."""


class HookError(KernelError):
    """Inline-hook installation or removal failed."""


class KernelPanic(KernelError):
    """The simulated kernel hit an unrecoverable inconsistency and aborted.

    This is the modelled equivalent of a real kernel ``BUG()``/oops.  The
    paper's motivation for tracing with the *reserved* bit instead of the
    *present* bit is precisely that the present bit causes such a panic
    when the kernel's own present-bit checks (e.g. during ``fork``) observe
    a PTE the tracer cleared.
    """


class SoftTrrError(ReproError):
    """An invalid operation against the SoftTRR module itself."""


class FaultError(ReproError):
    """A fault-injection spec or plan is malformed (``repro.faults``)."""


class SanitizerViolationError(ReproError):
    """A runtime invariant sanitizer caught a breach (strict mode), or a
    :meth:`SanitizerReport.assert_clean` found accumulated violations."""


class DefenseError(ReproError):
    """An invalid operation against one of the baseline defenses."""


class AttackError(ReproError):
    """An attack primitive was used incorrectly or could not proceed."""


class TemplatingError(AttackError):
    """Flip templating could not find the requested vulnerable pages."""


class PatternError(ReproError):
    """A hammer-pattern program failed to parse, resolve or compile."""


class PageFaultException(ReproError):
    """Simulated hardware page fault (see ``repro.mmu.faults``).

    Carries a :class:`repro.mmu.faults.PageFaultInfo` describing the
    faulting virtual address and the x86 error code bits of Figure 2 of
    the paper.  The message is built only when asked for: the kernel's
    fault loop catches every one of these and never prints it.
    """

    def __init__(self, info) -> None:
        super().__init__(info)
        self.info = info

    def __str__(self) -> str:
        return f"page fault: {self.info}"


class SegmentationFault(ReproError):
    """A user access could not be repaired by the kernel (SIGSEGV)."""

    def __init__(self, vaddr: int, reason: str = "") -> None:
        detail = f" ({reason})" if reason else ""
        super().__init__(f"segmentation fault at {vaddr:#x}{detail}")
        self.vaddr = vaddr
        self.reason = reason
