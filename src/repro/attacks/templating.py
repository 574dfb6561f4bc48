"""Flip templating: finding pages with reproducible bit flips.

Every attack in Section V starts by identifying *vulnerable pages*: "a
vulnerable page has at least one victim physical address (P_v) and
hammering ... aggressor addresses ... will flip bits in P_v".  The
templater:

1. maps and pre-faults a large attacker region (the attacker owns the
   frames);
2. groups its frames by DRAM (bank, row) using the reverse-engineered
   address mapping;
3. for every candidate victim row where the attacker also owns the
   aggressor rows of the requested pattern, writes a test pattern
   (0xFF then 0x00 passes, catching true-cells and anti-cells), hammers,
   and diffs the victim page;
4. records each hit as a :class:`VulnerablePage` carrying the victim
   frame, the aggressor layout and the observed flips — enough to
   replay the flip deterministically later.

DDR4 machines with ChipTRR need the TRRespass 3-sided pattern
(``pattern="three_sided"``); DDR3 machines flip with plain
``"double_sided"``.  ``per_iter_delay_ns`` lets PThammer's evaluation
rate-match its slower kernel-assisted hammer (the NOP padding of
Section V-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import TemplatingError
from ..kernel.process import Process
from ..kernel.vma import PAGE
from ..patterns.program import AttackProgram, round_robin
from .hammer import HammerKit

#: Hammer rounds per templating pass: enough weighted units to fire the
#: easier half of the vulnerable-cell threshold distribution.
DEFAULT_ROUNDS = 22_000


@dataclass
class ObservedFlip:
    """One reproducible flip found by templating."""

    byte_offset: int          # within the victim 4 KiB page
    bit_index: int            # 0..7 within that byte
    from_value: int           # polarity: the value the cell loses

    @property
    def page_bit_offset(self) -> int:
        """Bit offset within the page."""
        return self.byte_offset * 8 + self.bit_index


@dataclass
class VulnerablePage:
    """A templated victim page and the aggressors that flip it."""

    victim_ppn: int
    victim_vaddr: int
    bank: int
    victim_row: int
    aggressor_rows: List[int]
    aggressor_vaddrs: List[int]
    aggressor_ppns: List[int]
    flips: List[ObservedFlip]
    pattern: str


class FlipTemplater:
    """Finds vulnerable pages inside an attacker-owned region."""

    def __init__(self, kernel, process: Process,
                 hammer_kit: Optional[HammerKit] = None,
                 region_provider=None) -> None:
        self.kernel = kernel
        self.process = process
        self.kit = hammer_kit or HammerKit(kernel, process)
        #: Supplies the attacker-accessible memory being templated.
        #: Default: an ordinary anonymous mmap (Memory Spray, PThammer).
        #: CATTmew substitutes the SG driver buffer here — that is the
        #: whole point of the attack.
        self.region_provider = region_provider or self._mmap_region
        self.rows_scanned = 0

    def _mmap_region(self, pages: int) -> int:
        base = self.kernel.mmap(self.process, pages * PAGE, name="template")
        self.kernel.mlock(self.process, base, pages * PAGE)
        return base

    # ----------------------------------------------------------- mapping
    def claim_region(self, pages: int) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
        """Acquire ``pages`` attacker-accessible pages; returns the
        ownership map (bank, row) -> [(vaddr, ppn), ...]."""
        base = self.region_provider(pages)
        ownership: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        mapping = self.kernel.dram.mapping
        for i in range(pages):
            vaddr = base + i * PAGE
            ppn = self.kernel.mapped_ppn_of(self.process, vaddr)
            for bank, row in mapping.page_rows(ppn):
                ownership.setdefault((bank, row), []).append((vaddr, ppn))
        return ownership

    @staticmethod
    def _aggressor_rows(pattern: str, victim_row: int) -> List[int]:
        if pattern == "double_sided":
            return [victim_row - 1, victim_row + 1]
        if pattern == "three_sided":
            # TRRespass assembly around the victim: two adjacent
            # aggressors plus a third one row beyond, defeating the
            # bounded tracker.
            return [victim_row - 1, victim_row + 1, victim_row + 3]
        if pattern == "distance_two":
            # Used to demonstrate the ZebRAM/Delta+-1 blind spot.
            return [victim_row - 2, victim_row + 2]
        if pattern.startswith("distance_"):
            # Generalised 2-sided at distance N (ablation sweeps); flips
            # are possible out to distance 6 per Kim et al. [26].
            try:
                distance = int(pattern.split("_", 1)[1])
            except ValueError:
                raise TemplatingError(
                    f"unknown hammer pattern {pattern!r}") from None
            if not 1 <= distance <= 6:
                raise TemplatingError(
                    f"hammer distance {distance} outside [1, 6]")
            return [victim_row - distance, victim_row + distance]
        raise TemplatingError(f"unknown hammer pattern {pattern!r}")

    # ---------------------------------------------------------- templating
    def find_vulnerable_pages(
        self,
        count: int,
        pattern: str = "double_sided",
        region_pages: int = 256,
        rounds: int = DEFAULT_ROUNDS,
        per_iter_delay_ns: int = 0,
    ) -> List[VulnerablePage]:
        """Template until ``count`` vulnerable pages are found.

        Raises :class:`TemplatingError` if the owned region does not
        yield enough flippable pages.
        """
        ownership = self.claim_region(region_pages)
        # Every probe of the call hammers with the same loop: compile it
        # once.
        program = self.kit.program(round_robin(
            len(self._aggressor_rows(pattern, 0)), rounds,
            per_iter_delay_ns=per_iter_delay_ns))
        found: List[VulnerablePage] = []
        # Rows already used by a found target (victim or aggressor):
        # targets must not share rows, or later kernel-assisted
        # placement would have two owners for one frame.
        used: set = set()
        for (bank, victim_row), victims in sorted(ownership.items()):
            if len(found) >= count:
                break
            rows_needed = self._aggressor_rows(pattern, victim_row)
            if not all((bank, r) in ownership for r in rows_needed):
                continue
            if (bank, victim_row) in used or any(
                    (bank, r) in used for r in rows_needed):
                continue
            aggr_vaddrs = [ownership[(bank, r)][0][0] for r in rows_needed]
            aggr_ppns = [ownership[(bank, r)][0][1] for r in rows_needed]
            self.rows_scanned += 1
            for victim_vaddr, victim_ppn in victims:
                if len(found) >= count:
                    break
                flips = self._probe_victim(
                    victim_vaddr, aggr_vaddrs, program, rounds)
                if flips:
                    used.add((bank, victim_row))
                    used.update((bank, r) for r in rows_needed)
                    found.append(VulnerablePage(
                        victim_ppn=victim_ppn,
                        victim_vaddr=victim_vaddr,
                        bank=bank,
                        victim_row=victim_row,
                        aggressor_rows=rows_needed,
                        aggressor_vaddrs=aggr_vaddrs,
                        aggressor_ppns=aggr_ppns,
                        flips=flips,
                        pattern=pattern,
                    ))
                    break  # one target per victim row
        if len(found) < count:
            raise TemplatingError(
                f"found only {len(found)}/{count} vulnerable pages after "
                f"scanning {self.rows_scanned} candidate rows; enlarge the "
                f"region or relax the pattern"
            )
        return found

    def _probe_victim(self, victim_vaddr: int, aggr_vaddrs: Sequence[int],
                      program: AttackProgram,
                      rounds: int) -> List[ObservedFlip]:
        """Two-pass (0xFF / 0x00) hammer-and-diff of one victim page,
        hammering with ``program`` (``rounds`` round-robin rounds)."""
        flips: List[ObservedFlip] = []
        # Sync with the refresh window, as real templaters do: a probe
        # straddling an auto-refresh loses its accumulated disturbance.
        window = self.kernel.dram.timings.refresh_window_ns
        into_window = self.kernel.clock.now_ns % window
        if into_window > window - 8 * rounds * 100:
            self.kernel.clock.advance(window - into_window)
        for pattern_byte, from_value in ((0xFF, 1), (0x00, 0)):
            payload = bytes([pattern_byte]) * PAGE
            self.kernel.user_write(self.process, victim_vaddr, payload)
            self.kit.run(program, aggr_vaddrs)
            after = self.kernel.user_read(self.process, victim_vaddr, PAGE)
            if after == payload:
                continue
            for offset, byte in enumerate(after):
                if byte == pattern_byte:
                    continue
                diff = byte ^ pattern_byte
                for bit in range(8):
                    if diff & (1 << bit):
                        flips.append(ObservedFlip(
                            byte_offset=offset, bit_index=bit,
                            from_value=from_value))
        return flips
