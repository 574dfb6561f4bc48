"""Page-fault error codes, per Figure 2 of the paper.

The hardware pushes an error code with every #PF.  The bits the
reproduction models are the ones SoftTRR and the kernel's demand-paging
path dispatch on:

====  =====  =========================================================
bit   name   meaning when set
====  =====  =========================================================
0     P      fault caused by a protection/reserved violation on a
             *present* translation (clear => non-present page)
1     W/R    faulting access was a write
2     U/S    faulting access came from user mode
3     RSVD   a reserved bit was set in a paging structure — the error
             code SoftTRR's tracer listens for
4     I/D    faulting access was an instruction fetch
====  =====  =========================================================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ErrorCode(enum.IntFlag):
    """x86 #PF error-code bits (Figure 2)."""

    PRESENT = 1 << 0
    WRITE = 1 << 1
    USER = 1 << 2
    RSVD = 1 << 3
    INSTR = 1 << 4
    PROT_KEY = 1 << 5
    SGX = 1 << 15


_PRESENT = int(ErrorCode.PRESENT)
_WRITE = int(ErrorCode.WRITE)
_USER = int(ErrorCode.USER)
_RSVD = int(ErrorCode.RSVD)
_INSTR = int(ErrorCode.INSTR)
#: Every code :func:`access_error_code` can build, indexed by its int
#: value: ``ErrorCode(code)`` runs the enum machinery per fault.
_CODES = tuple(ErrorCode(code) for code in range(_INSTR << 1))


@dataclass(frozen=True)
class PageFaultInfo:
    """Everything the fault handler learns about a page fault.

    ``leaf_level`` is the paging level of the entry that caused the
    fault (1 = L1PT entry for a 4 KiB page, 2 = L2/PD entry for a 2 MiB
    huge page), and ``pte_paddr`` is the physical address of that entry —
    the tracer uses both to clear the rsvd bit and record the PTE in its
    ring buffer.
    """

    vaddr: int
    error_code: ErrorCode
    leaf_level: int = 1
    pte_paddr: Optional[int] = None
    pid: Optional[int] = None

    # The predicates mask the code as a plain int: ``ErrorCode``'s own
    # ``&`` builds a flag member through the enum machinery per test.
    @property
    def is_non_present(self) -> bool:
        """Demand-paging case: the translation was not present."""
        return not int(self.error_code) & _PRESENT

    @property
    def is_reserved_bit(self) -> bool:
        """The tracer's case: a reserved PTE bit was set."""
        return bool(int(self.error_code) & _RSVD)

    @property
    def is_write(self) -> bool:
        """Whether the faulting access was a write."""
        return bool(int(self.error_code) & _WRITE)

    @property
    def is_user(self) -> bool:
        """Whether the faulting access came from user mode."""
        return bool(int(self.error_code) & _USER)

    @property
    def is_instruction_fetch(self) -> bool:
        """Whether the faulting access was an instruction fetch."""
        return bool(int(self.error_code) & _INSTR)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"vaddr={self.vaddr:#x} ec={self.error_code!r} "
            f"level={self.leaf_level} pte@{self.pte_paddr if self.pte_paddr is None else hex(self.pte_paddr)}"
        )


def access_error_code(
    *, is_write: bool, is_user: bool, is_fetch: bool, present: bool, rsvd: bool = False
) -> ErrorCode:
    """Build the error code the hardware would push for an access.

    The bits are combined as a plain int and looked up in a table of
    the prebuilt codes.
    """
    code = 0
    if present:
        code |= _PRESENT
    if rsvd:
        code |= _RSVD | _PRESENT
    if is_write:
        code |= _WRITE
    if is_user:
        code |= _USER
    if is_fetch:
        code |= _INSTR
    return _CODES[code]
