"""Virtual memory areas (VMAs).

Each process's address space is a set of non-overlapping VMAs, as in
Linux.  The collector's initial scan iterates "every virtual page in
each valid virtual memory area (VMA) of each user process"
(Section IV-B), and demand paging consults the VMA of a faulting address
to decide whether the fault is repairable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import KernelError

PAGE = 4096
HUGE = 2 * 1024 * 1024


class VmaFlags(enum.Flag):
    """Access and type flags of a VMA."""

    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXEC = enum.auto()
    #: Backed by 2 MiB huge pages.
    HUGEPAGE = enum.auto()
    #: Kernel-owned device buffer mapped into user space (SG buffer).
    DEVICE = enum.auto()
    #: Pre-faulted and pinned (mlock).
    LOCKED = enum.auto()

    @classmethod
    def rw(cls) -> "VmaFlags":
        """The common anonymous read/write mapping flags."""
        return cls.READ | cls.WRITE


#: Plain-int values of the flags the fault path tests.  ``VmaFlags``'
#: own ``&`` builds a flag member through the enum machinery per test;
#: ``flags._value_ & _WRITE`` is one int operation.
_WRITE = VmaFlags.WRITE.value
_EXEC = VmaFlags.EXEC.value
_HUGEPAGE = VmaFlags.HUGEPAGE.value


@dataclass
class Vma:
    """One mapping: [start, end) with flags."""

    start: int
    end: int
    flags: VmaFlags = field(default_factory=VmaFlags.rw)
    name: str = "anon"

    def __post_init__(self) -> None:
        if self.start % PAGE or self.end % PAGE:
            raise KernelError(
                f"VMA [{self.start:#x}, {self.end:#x}) not page-aligned")
        if self.end <= self.start:
            raise KernelError("VMA end must be after start")
        if self.flags & VmaFlags.HUGEPAGE and (
            self.start % HUGE or self.end % HUGE
        ):
            raise KernelError("huge-page VMA must be 2 MiB aligned")

    @property
    def length(self) -> int:
        """Size of the VMA in bytes."""
        return self.end - self.start

    @property
    def page_count(self) -> int:
        """Number of 4 KiB pages covered."""
        return self.length // PAGE

    def contains(self, vaddr: int) -> bool:
        """Whether an address falls inside the VMA."""
        return self.start <= vaddr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        """Whether [start, end) intersects this VMA."""
        return start < self.end and end > self.start

    def pages(self) -> Iterator[int]:
        """Page-aligned virtual addresses of every page in the VMA."""
        return iter(range(self.start, self.end, PAGE))

    def is_writable(self) -> bool:
        """Whether the VMA permits writes."""
        return self.flags._value_ & _WRITE != 0

    def is_executable(self) -> bool:
        """Whether the VMA permits instruction fetches."""
        return self.flags._value_ & _EXEC != 0

    def is_huge(self) -> bool:
        """Whether the VMA uses 2 MiB pages."""
        return self.flags._value_ & _HUGEPAGE != 0
