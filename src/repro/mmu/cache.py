"""CPU cache model with ``clflush``.

A deliberately small model: a fully-associative LRU set of 64-byte line
addresses.  What matters for the reproduction is *which accesses reach
DRAM*, because only DRAM accesses activate rows:

* hammer loops must ``clflush`` (or evict) their aggressors each
  iteration or they would spin in the cache and never hammer;
* PThammer must flush the victim L1PTE's cache line so the page walk
  re-fetches it from DRAM (Section V-C: "kernel-assisted flush through
  explicit instructions, i.e. invlpg for TLB flush and clflush for
  L1PTEs flush");
* SoftTRR's Row Refresher flushes the row's lines before reading them so
  the read actually recharges the DRAM row (Section IV-D).

Writes are modelled write-through (they always reach DRAM), which keeps
the stored bytes single-sourced in the DRAM module.  Cached *data* is
not duplicated here — a hit simply skips the DRAM access; the tiny
realism loss (a flip would be invisible until eviction on real hardware)
does not affect any modelled experiment, since every attack and the
refresher explicitly flush the lines they care about.
"""

from __future__ import annotations

from collections import OrderedDict

from ..clock import SimClock
from ..dram.geometry import LINE_BYTES
from ..dram.module import DramModule
from ..errors import ConfigError

_LINE_MASK = ~(LINE_BYTES - 1)


class CpuCache:
    """Fully-associative LRU cache of line presence."""

    def __init__(
        self,
        clock: SimClock,
        capacity_lines: int = 8192,
        hit_ns: int = 1,
        clflush_ns: int = 12,
    ) -> None:
        if capacity_lines < 1:
            raise ConfigError("cache needs at least one line")
        self.clock = clock
        self.capacity_lines = capacity_lines
        self.hit_ns = hit_ns
        self.clflush_ns = clflush_ns
        self._lines: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.flushes = 0
        self.evictions = 0

    @staticmethod
    def line_of(paddr: int) -> int:
        """The 64-byte line address containing ``paddr``."""
        return paddr & _LINE_MASK

    def _insert(self, line: int) -> None:
        self._lines[line] = True
        if len(self._lines) > self.capacity_lines:
            self._lines.popitem(last=False)
            self.evictions += 1

    def contains(self, paddr: int) -> bool:
        """Whether the line holding ``paddr`` is cached (no side effects)."""
        return self.line_of(paddr) in self._lines

    # ------------------------------------------------------------- access
    def load(self, dram: DramModule, paddr: int, size: int) -> bytes:
        """Architectural load through the cache.

        Cached lines cost ``hit_ns`` each; missing lines go to DRAM
        (activating rows) and are filled.  A load inside one line (every
        hammer-loop touch and PTE read) is one lookup and at most one
        DRAM read.
        """
        line = paddr & _LINE_MASK
        if paddr + size <= line + LINE_BYTES:
            if size <= 0:
                return b""
            lines = self._lines
            if line in lines:
                lines.move_to_end(line)
                self.hits += 1
                self.clock.advance(self.hit_ns)
                return dram.raw_read(paddr, size)
            self.misses += 1
            data = dram.read(paddr, size)
            self._insert(line)
            return data
        out = bytearray()
        cursor = paddr
        end = paddr + size
        while cursor < end:
            line = self.line_of(cursor)
            chunk = min(line + LINE_BYTES - cursor, end - cursor)
            if line in self._lines:
                self.hits += 1
                self._lines.move_to_end(line)
                self.clock.advance(self.hit_ns)
                out.extend(dram.raw_read(cursor, chunk))
            else:
                self.misses += 1
                out.extend(dram.read(cursor, chunk))
                self._insert(line)
            cursor += chunk
        return bytes(out)

    def store(self, dram: DramModule, paddr: int, data: bytes) -> None:
        """Architectural write-through store.

        ``dram.write`` rejects an empty store, so at least one line is
        touched: a store inside one line (every PTE store) makes one
        pass and one bound test.
        """
        dram.write(paddr, data)
        line = paddr & _LINE_MASK
        end = paddr + len(data)
        lines = self._lines
        while True:
            if line in lines:
                lines.move_to_end(line)
            else:
                self._insert(line)
            line += LINE_BYTES
            if line >= end:
                return

    def clflush(self, paddr: int) -> None:
        """Flush one line (the hammering primitive's best friend)."""
        self.flushes += 1
        self._lines.pop(paddr & _LINE_MASK, None)
        self.clock.advance(self.clflush_ns)

    def flush_range(self, paddr: int, size: int) -> None:
        """clflush every line of a range (refresher / attack setup)."""
        cursor = self.line_of(paddr)
        end = paddr + size
        while cursor < end:
            self.clflush(cursor)
            cursor += LINE_BYTES

    def flush_all(self) -> None:
        """Drop the entire cache (wbinvd-style; used in tests)."""
        self.flushes += len(self._lines)
        self._lines.clear()

    def __len__(self) -> int:
        return len(self._lines)
