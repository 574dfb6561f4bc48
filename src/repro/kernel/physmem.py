"""Frame bookkeeping and pluggable frame-placement policies.

Every physical frame allocation in the kernel goes through a
:class:`FramePolicy`.  The default policy is a single buddy pool — the
vanilla Linux behaviour SoftTRR runs on ("without requiring a new memory
allocator or changing legacy allocator logic", Section III-C).

The *baseline* defenses the paper compares against are allocator
modifications, and they plug in here:

* CATT partitions frames into kernel vs user pools with DRAM-row guards;
* CTA gives level-1 page tables a dedicated region;
* ZebRAM stripes sensitive rows in a zebra pattern.

:class:`FrameUse` tags each allocation with its purpose so policies can
discriminate, and so the kernel can fire the right hooks on free.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from ..errors import KernelError
from .buddy import BuddyAllocator


class FrameUse(enum.Enum):
    """What an allocated frame is for (drives placement policies)."""

    USER = "user"
    PAGE_TABLE = "pagetable"
    KERNEL = "kernel"
    #: Kernel driver buffer that ends up user-accessible (SG buffer).
    SG_BUFFER = "sg"


class FramePolicy:
    """Interface for frame-placement policies."""

    name = "abstract"

    def alloc(self, use: FrameUse, order: int = 0) -> int:
        """Allocate a 2**order block for ``use``; returns base PPN."""
        raise NotImplementedError

    def free(self, base_ppn: int, use: FrameUse, order: int = 0) -> None:
        """Free a block previously allocated for ``use``."""
        raise NotImplementedError

    def free_frames(self) -> int:
        """Frames still available."""
        raise NotImplementedError

    def alloc_specific(self, ppn: int, use: FrameUse) -> int:
        """Allocate exactly ``ppn`` for ``use`` (kernel-assisted
        placement).  Policies that partition memory must *refuse* a
        placement that violates their isolation — that refusal is
        exactly how CATT/CTA stop the Memory Spray placement step."""
        raise NotImplementedError


class DefaultFramePolicy(FramePolicy):
    """Vanilla kernel behaviour: one buddy pool for everything.

    This is what makes user pages land next to (and inside the same rows
    as) L1PT pages — the adjacency every attack in the paper exploits.
    """

    name = "default"

    def __init__(self, buddy: BuddyAllocator) -> None:
        self.buddy = buddy

    def alloc(self, use: FrameUse, order: int = 0) -> int:
        return self.buddy.alloc_pages(order)

    def free(self, base_ppn: int, use: FrameUse, order: int = 0) -> None:
        self.buddy.free_pages(base_ppn, order)

    def free_frames(self) -> int:
        return self.buddy.free_frames()

    def alloc_specific(self, ppn: int, use: FrameUse) -> int:
        return self.buddy.alloc_specific(ppn)


class FrameTable:
    """Tracks every live frame's use (the kernel's ``struct page`` array).

    Needed so ``__free_pages`` hooks can tell what kind of page is being
    released, and so integrity checks can enumerate all L1PT frames.
    """

    def __init__(self, total_frames: int) -> None:
        self.total_frames = total_frames
        self._use: Dict[int, FrameUse] = {}
        self._order: Dict[int, int] = {}

    def record_alloc(self, base_ppn: int, use: FrameUse, order: int) -> None:
        """Record an allocation of 2**order frames at ``base_ppn``."""
        if base_ppn in self._use:
            raise KernelError(f"frame {base_ppn:#x} double-allocated")
        self._use[base_ppn] = use
        self._order[base_ppn] = order

    def record_free(self, base_ppn: int) -> tuple:
        """Forget an allocation; returns (use, order)."""
        use = self._use.pop(base_ppn, None)
        if use is None:
            raise KernelError(f"frame {base_ppn:#x} freed but not allocated")
        order = self._order.pop(base_ppn)
        return use, order

    def use_of(self, base_ppn: int) -> Optional[FrameUse]:
        """Use of a live allocation base, or None."""
        return self._use.get(base_ppn)
