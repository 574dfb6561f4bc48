"""Per-bank row-buffer state.

Each bank caches the most recently opened row in its row buffer.  A
transaction to the open row is a *hit* (tCAS); a transaction to any other
row is a *conflict* that precharges and re-activates (tRC) — and it is
the activation, not the data transfer, that disturbs neighbouring rows.

The hit/conflict latency gap is the timing side channel DRAMA [39]
exploits to reverse-engineer the address mapping, so the simulator keeps
this state faithfully.

Some memory controllers use a *closed-row* policy that precharges after
every access; on those systems even a single repeatedly-accessed row is
re-activated every time, which is what makes *one-location hammering*
[19] work.  The policy is a per-machine knob.
"""

from __future__ import annotations

import enum
from typing import Optional


class RowBufferPolicy(enum.Enum):
    """Controller row-buffer management policy."""

    #: Leave the row open until a conflict forces a precharge (common).
    OPEN_PAGE = "open"
    #: Precharge immediately after each access (enables one-location hammer).
    CLOSED_PAGE = "closed"


# The members as plain module names.  ``EnumType`` defines
# ``__getattr__``, which puts every attribute lookup on an enum class on
# a slow path (several times a global lookup); :meth:`BankState.access`
# and the module's bursts compare against these on every transaction.
_OPEN_PAGE = RowBufferPolicy.OPEN_PAGE
_CLOSED_PAGE = RowBufferPolicy.CLOSED_PAGE


class BankState:
    """Mutable state of one bank: which row its buffer holds."""

    __slots__ = ("open_row", "activations", "hits")

    def __init__(self) -> None:
        self.open_row: Optional[int] = None
        self.activations = 0
        self.hits = 0

    def access(self, row: int, policy: RowBufferPolicy) -> bool:
        """Record a transaction to ``row``; return True if it activated.

        Under the open-page policy an access to the already-open row is a
        buffer hit and does *not* re-activate (hence does not hammer).
        """
        if policy is _OPEN_PAGE and self.open_row == row:
            self.hits += 1
            return False
        self.activations += 1
        self.open_row = None if policy is _CLOSED_PAGE else row
        return True

    def activate_run(self, row: int, count: int, open_page: bool) -> None:
        """Record ``count`` forced activations ending on ``row``.

        Replay primitive for the batched hammer path, called once per
        run in stream order: the bank is credited with every activation
        and its row buffer holds the last-hammered row (open-page) or is
        precharged (closed-page) — exactly the state the scalar
        :meth:`~repro.dram.module.DramModule.hammer` calls leave behind.
        """
        if count <= 0:
            return
        self.activations += count
        self.open_row = row if open_page else None

    def precharge(self) -> None:
        """Close the row buffer (e.g. at refresh)."""
        self.open_row = None
