"""ZebRAM [28]: zebra-striped DRAM with the one-row assumption.

"ZebRAM isolates rows of sensitive data in a zebra pattern"
(Section II-C): every other row is a *safe* row holding regular data
(kernel, page tables, user pages); the interleaved *unsafe* rows serve
only as an integrity-checked swap zone.  Under the assumption that a
hammered row only disturbs its distance-1 neighbours, any flip caused
by safe-row aggressors lands in an unsafe row where it is detected and
repaired — so nothing sensitive can be corrupted.

The paper's criticism (Section I): Kim et al. [26] showed flips up to
*six* rows away, so distance-2 hammering jumps the stripe entirely:
safe-row aggressors flip safe-row victims and ZebRAM never notices.
The :mod:`repro.attacks.templating` ``"distance_two"`` pattern plus the
baseline bench reproduce exactly that failure.

The model keeps ZebRAM's allocator essence: all allocatable frames live
in even rows; odd rows are reserved (the swap zone).  Half the memory
disappears from the allocator, matching ZebRAM's real capacity cost.
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..errors import DefenseError, OutOfMemoryError
from ..kernel.buddy import BuddyAllocator
from ..kernel.physmem import FramePolicy, FrameUse
from .base import Defense, register_defense


class StripedPolicy(FramePolicy):
    """Order-0 allocator over frames whose DRAM rows are all even."""

    name = "zebram"

    def __init__(self, kernel, start_ppn: int, frame_count: int) -> None:
        mapping = kernel.dram.mapping
        self._free: List[int] = []
        self._free_set: Set[int] = set()
        for ppn in range(start_ppn, start_ppn + frame_count):
            rows = mapping.page_rows(ppn)
            if all(row % 2 == 0 for _, row in rows):
                self._free.append(ppn)
                self._free_set.add(ppn)
        self._free.sort(reverse=True)  # pop() yields the lowest ppn
        self._allocated: Set[int] = set()

    def alloc(self, use: FrameUse, order: int = 0) -> int:
        if order != 0:
            raise OutOfMemoryError(
                "ZebRAM stripes cannot back higher-order (huge) blocks")
        if not self._free:
            raise OutOfMemoryError("ZebRAM safe stripe exhausted")
        ppn = self._free.pop()
        self._free_set.discard(ppn)
        self._allocated.add(ppn)
        return ppn

    def free(self, base_ppn: int, use: FrameUse, order: int = 0) -> None:
        if order != 0 or base_ppn not in self._allocated:
            raise DefenseError(f"bad ZebRAM free of {base_ppn:#x}")
        self._allocated.discard(base_ppn)
        self._free.append(base_ppn)
        self._free_set.add(base_ppn)

    def free_frames(self) -> int:
        return len(self._free)

    def alloc_specific(self, ppn: int, use: FrameUse) -> int:
        if ppn not in self._free_set:
            raise DefenseError(
                f"frame {ppn:#x} is in the unsafe stripe (or busy) — "
                f"placement refused")
        self._free.remove(ppn)
        self._free_set.discard(ppn)
        self._allocated.add(ppn)
        return ppn


@register_defense
class ZebramDefense(Defense):
    """ZebRAM as a bootable defense configuration."""

    name = "zebram"
    summary = "zebra-striped safe/unsafe rows, +-1 assumption [28]"

    def __init__(self) -> None:
        self.policy: Optional[StripedPolicy] = None

    def frame_policy_factory(self):
        def factory(default_buddy: BuddyAllocator, kernel) -> StripedPolicy:
            self.policy = StripedPolicy(
                kernel, default_buddy.start_ppn, default_buddy.frame_count)
            return self.policy

        return factory
