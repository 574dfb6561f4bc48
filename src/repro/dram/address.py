"""Invertible physical<->DRAM address mapping with XOR bank functions.

Real Intel memory controllers map physical-address bits to the DRAM
(bank, row, column) tuple with undocumented XOR functions; DRAMA [39],
DRAMDig [50] and others reverse-engineered them via the row-buffer timing
side channel.  SoftTRR consumes such a mapping as offline domain
knowledge (Section IV-A: "we leverage a publicly available tool, called
DRAMA, to reverse-engineer its DRAM address mapping, and embed the
mapping into the kernel").

The model here is the standard one from that literature:

* every *column* bit and every *row* bit is a plain physical-address bit
  (``col_bits`` / ``row_bits`` list the positions, LSB first);
* every *bank* bit is the XOR (parity) of a set of physical-address bits
  (``bank_masks``).

To let the Row Refresher reconstruct a physical address from a
(bank, row) pair — Section IV-D: "the refresher leverages them to
reconstruct a physical address" — the mapping must be invertible.  We
guarantee that by requiring each bank mask to contain exactly one
*base bit* that is not a row bit, not a column bit, and not in any other
mask; inversion then scatters the row/column bits and solves each base
bit from the requested bank parity.

Every output bit is a parity or a copy of address bits, so the mapping
is linear over GF(2): the coordinates of ``a ^ b`` are those of ``a``
XOR those of ``b``.  Translation exploits that with lookup tables built
on first use and shared by every mapping of equal value:

* :meth:`AddressMapping.phys_to_dram` XORs one 256-entry table per
  address byte, each entry the packed (bank, row, column) of that byte
  value alone; :meth:`AddressMapping.row_of` shares that decode and
  unpacks only (bank, row), building no :class:`DramAddress`;
* :meth:`AddressMapping.page_rows` is the page base's (bank, row) XOR
  each combination of the in-page line bits that feed a bank mask or a
  row bit (none on the linear mapping, bit 6 on the interleaved one);
* :meth:`AddressMapping.row_pages` is the row's first page number XOR
  each combination of the column bits that change the page number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import List, NamedTuple, Sequence, Tuple

from ..errors import AddressMappingError
from .geometry import DramGeometry, LINE_SHIFT, PAGE_BYTES, PAGE_SHIFT


class DramAddress(NamedTuple):
    """A DRAM location: (bank, row, column-byte-offset)."""

    bank: int
    row: int
    col: int


def _parity(value: int) -> int:
    """Parity (XOR of all bits) of ``value``."""
    return bin(value).count("1") & 1


def _scatter_bits(packed: int, positions: Sequence[int]) -> int:
    """Deposit bit *i* of ``packed`` at bit ``positions[i]``."""
    out = 0
    for i, pos in enumerate(positions):
        out |= ((packed >> i) & 1) << pos
    return out


def _span(contributions: Sequence[int]) -> List[int]:
    """XOR of every subset of ``contributions``: entry *m* combines the
    contributions whose index is a set bit of *m*."""
    span = [0]
    for contribution in contributions:
        span += [value ^ contribution for value in span]
    return span


class _Tables(NamedTuple):
    """Lookup data derived from one mapping value (see the module doc)."""

    #: One table per address byte, LSB first; an entry packs
    #: ``bank | row << bank_bits | col << (bank_bits + row_bits)``.
    phys: Tuple[Tuple[int, ...], ...]
    #: Distinct (bank, row) XOR offsets across one page's lines.
    page_deltas: Tuple[Tuple[int, int], ...]
    #: Distinct PPN XOR offsets across one row's lines.
    row_deltas: Tuple[int, ...]


@lru_cache(maxsize=32)
def _build_tables(mapping: "AddressMapping") -> _Tables:
    """Build a mapping's tables; cached per mapping *value*, so every
    machine built from one profile shares one set (a process uses a
    handful of profiles; the bound only stops test sweeps over random
    mappings from growing the cache)."""
    geo = mapping.geometry
    row_shift = geo.bank_bits
    col_shift = row_shift + geo.row_bits
    bit = []  # packed (bank, row, col) of each lone address bit
    for pos in range(geo.addr_bits):
        packed = 0
        for i, mask in enumerate(mapping.bank_masks):
            packed |= ((mask >> pos) & 1) << i
        if pos in mapping.row_bits:
            packed |= 1 << (row_shift + mapping.row_bits.index(pos))
        if pos in mapping.col_bits:
            packed |= 1 << (col_shift + mapping.col_bits.index(pos))
        bit.append(packed)
    phys = tuple(tuple(_span(bit[low:low + 8]))
                 for low in range(0, geo.addr_bits, 8))
    # Entry m of each span is line m of the page (or row); dict.fromkeys
    # keeps the distinct values in the order that scan first meets them.
    page = dict.fromkeys(packed & ((1 << col_shift) - 1)
                         for packed in _span(bit[LINE_SHIFT:PAGE_SHIFT]))
    page_deltas = tuple((packed & (geo.num_banks - 1), packed >> row_shift)
                        for packed in page)
    row = dict.fromkeys(_span([
        mapping.dram_to_phys(0, 0, 1 << j) >> PAGE_SHIFT
        for j in range(LINE_SHIFT, geo.col_bits)]))
    return _Tables(phys, page_deltas, tuple(row))


@dataclass(frozen=True)
class AddressMapping:
    """An invertible physical-address to DRAM-address mapping.

    Attributes
    ----------
    geometry:
        The module geometry the mapping must cover.
    bank_masks:
        One XOR mask per bank-index bit (LSB first).  Bank bit *i* of a
        physical address ``p`` is ``parity(p & bank_masks[i])``.
    row_bits / col_bits:
        Physical-address bit positions forming the row / column index
        (LSB first).
    """

    geometry: DramGeometry
    bank_masks: Tuple[int, ...]
    row_bits: Tuple[int, ...]
    col_bits: Tuple[int, ...]

    def __post_init__(self) -> None:
        geo = self.geometry
        if len(self.bank_masks) != geo.bank_bits:
            raise AddressMappingError(
                f"need {geo.bank_bits} bank masks, got {len(self.bank_masks)}"
            )
        if len(self.row_bits) != geo.row_bits:
            raise AddressMappingError(
                f"need {geo.row_bits} row bits, got {len(self.row_bits)}"
            )
        if len(self.col_bits) != geo.col_bits:
            raise AddressMappingError(
                f"need {geo.col_bits} column bits, got {len(self.col_bits)}"
            )
        all_addr_bits = set(range(geo.addr_bits))
        row_set, col_set = set(self.row_bits), set(self.col_bits)
        if row_set & col_set:
            raise AddressMappingError("row and column bits overlap")
        # The low LINE_SHIFT bits must be column bits and must not appear
        # in any bank mask, so one cache line never straddles banks/rows.
        for low in range(LINE_SHIFT):
            if low not in col_set:
                raise AddressMappingError(
                    f"bit {low} must be a column bit (cache-line contiguity)"
                )
        for mask in self.bank_masks:
            if mask & ((1 << LINE_SHIFT) - 1):
                raise AddressMappingError("bank masks may not use sub-line bits")
        # Find the base bit of every mask and check invertibility.
        base_bits: List[int] = []
        used = row_set | col_set
        for i, mask in enumerate(self.bank_masks):
            if mask == 0:
                raise AddressMappingError(f"bank mask {i} is empty")
            candidates = [b for b in range(geo.addr_bits) if (mask >> b) & 1 and b not in used]
            outside = [b for b in range(mask.bit_length()) if (mask >> b) & 1 and b >= geo.addr_bits]
            if outside:
                raise AddressMappingError(
                    f"bank mask {i} uses bit {outside[0]} beyond the module's "
                    f"{geo.addr_bits} address bits"
                )
            if len(candidates) != 1:
                raise AddressMappingError(
                    f"bank mask {i} must have exactly one base bit outside the "
                    f"row/column bits and other masks, found {candidates}"
                )
            base_bits.append(candidates[0])
            used.add(candidates[0])
        if used != all_addr_bits:
            missing = sorted(all_addr_bits - used)
            raise AddressMappingError(f"address bits {missing} are unmapped")
        object.__setattr__(self, "_base_bits", tuple(base_bits))
        # Capacity and the unpacking of a packed table entry.
        object.__setattr__(self, "_layout", (
            geo.capacity_bytes, geo.num_banks - 1, geo.bank_bits,
            geo.rows_per_bank - 1, geo.bank_bits + geo.row_bits))

    def __reduce__(self):
        # Copies and pickles rebuild from the fields, leaving the
        # cached tables behind to be shared again on first use.
        return (type(self),
                (self.geometry, self.bank_masks, self.row_bits, self.col_bits))

    @cached_property
    def _tables(self) -> _Tables:
        return _build_tables(self)

    # ------------------------------------------------------------ forward
    def _packed(self, paddr: int) -> int:
        """The packed (bank, row, column) of ``paddr``: the XOR of one
        table entry per address byte (see the module doc)."""
        capacity = self._layout[0]
        if not 0 <= paddr < capacity:
            raise AddressMappingError(
                f"paddr {paddr:#x} outside module capacity {capacity:#x}"
            )
        packed = 0
        for table in self._tables.phys:
            packed ^= table[paddr & 0xFF]
            paddr >>= 8
        return packed

    def phys_to_dram(self, paddr: int) -> DramAddress:
        """Map a physical byte address to its DRAM location."""
        _, bank_mask, row_shift, row_mask, col_shift = self._layout
        packed = self._packed(paddr)
        return DramAddress(packed & bank_mask, (packed >> row_shift) & row_mask,
                           packed >> col_shift)

    # ------------------------------------------------------------ inverse
    def dram_to_phys(self, bank: int, row: int, col: int = 0) -> int:
        """Reconstruct the physical address of a DRAM location.

        This is exactly what SoftTRR's Row Refresher does before reading
        the row through the direct-physical map (Section IV-D).
        """
        self.geometry.check_bank(bank)
        self.geometry.check_row(row)
        if not 0 <= col < self.geometry.row_bytes:
            raise AddressMappingError(f"column {col} out of range")
        paddr = _scatter_bits(row, self.row_bits) | _scatter_bits(col, self.col_bits)
        for i, mask in enumerate(self.bank_masks):
            base = self._base_bits[i]  # type: ignore[attr-defined]
            want = (bank >> i) & 1
            have = _parity(paddr & (mask & ~(1 << base)))
            if want ^ have:
                paddr |= 1 << base
        return paddr

    # ------------------------------------------------------------ helpers
    def row_of(self, paddr: int) -> Tuple[int, int]:
        """(bank, row) of a physical address — the hammer-relevant part.

        Decodes like :meth:`phys_to_dram` and builds no
        :class:`DramAddress`: every line transaction resolves its row
        here.
        """
        _, bank_mask, row_shift, row_mask, _ = self._layout
        packed = self._packed(paddr)
        return packed & bank_mask, (packed >> row_shift) & row_mask

    def same_bank(self, paddr_a: int, paddr_b: int) -> bool:
        """Whether two physical addresses share a DRAM bank."""
        return self.phys_to_dram(paddr_a).bank == self.phys_to_dram(paddr_b).bank

    def same_row(self, paddr_a: int, paddr_b: int) -> bool:
        """Whether two physical addresses share both bank and row."""
        a, b = self.phys_to_dram(paddr_a), self.phys_to_dram(paddr_b)
        return a.bank == b.bank and a.row == b.row

    def page_rows(self, ppn: int) -> List[Tuple[int, int]]:
        """Distinct (bank, row) pairs that the 4 KiB page ``ppn`` touches.

        Pages can span multiple banks on interleaved mappings, which is
        why SoftTRR's ``pt_row_rbtree`` nodes can carry several
        ``bank_struct`` entries (Table I, [50]).  The base decodes
        through :meth:`row_of`, so no :class:`DramAddress` is built.
        """
        base = ppn << PAGE_SHIFT
        capacity = self._layout[0]
        if base + PAGE_BYTES > capacity:
            raise AddressMappingError(
                f"page {ppn:#x} outside module capacity {capacity:#x}")
        bank, row = self.row_of(base)
        return [(bank ^ d_bank, row ^ d_row)
                for d_bank, d_row in self._tables.page_deltas]

    def row_pages(self, bank: int, row: int) -> List[int]:
        """Distinct PPNs with at least one line in (bank, row).

        Used by SoftTRR's collector to enumerate the pages that live in a
        row adjacent to a page-table row.
        """
        first = self.dram_to_phys(bank, row, 0) >> PAGE_SHIFT
        return [first ^ delta for delta in self._tables.row_deltas]


def linear_mapping(geometry: DramGeometry) -> AddressMapping:
    """The simplest sane mapping: column low, bank middle, row high.

    Each bank bit additionally XORs in one row bit (the classic
    "rank/bank address mirroring" structure DRAMA finds on real DDR3),
    which makes the mapping non-trivial to reverse-engineer while staying
    invertible.
    """
    geo = geometry
    col_bits = tuple(range(geo.col_bits))
    bank_base = tuple(range(geo.col_bits, geo.col_bits + geo.bank_bits))
    row_bits = tuple(range(geo.col_bits + geo.bank_bits, geo.addr_bits))
    masks = []
    for i, base in enumerate(bank_base):
        mask = 1 << base
        if i < len(row_bits):
            mask |= 1 << row_bits[i]
        masks.append(mask)
    return AddressMapping(
        geometry=geo, bank_masks=tuple(masks), row_bits=row_bits, col_bits=col_bits
    )


def interleaved_mapping(geometry: DramGeometry) -> AddressMapping:
    """A mapping whose lowest bank bit is physical bit 6.

    With a bank function at bit 6, consecutive cache lines alternate
    between two banks, so a single 4 KiB page *spans two banks* — the
    behaviour [50] documents and the reason a SoftTRR ``pt_row_rbtree``
    node may hold multiple ``bank_struct`` entries.  Used for the DDR4
    performance-testbed profile.
    """
    geo = geometry
    if geo.bank_bits < 1:
        raise AddressMappingError("interleaved mapping needs at least 2 banks")
    # Column bits: 0..5 (sub-line) plus bits 7.. up to the column width.
    col_bits = tuple(range(LINE_SHIFT)) + tuple(
        range(LINE_SHIFT + 1, LINE_SHIFT + 1 + geo.col_bits - LINE_SHIFT)
    )
    next_free = col_bits[-1] + 1
    bank_base = (LINE_SHIFT,) + tuple(range(next_free, next_free + geo.bank_bits - 1))
    row_start = next_free + geo.bank_bits - 1
    row_bits = tuple(range(row_start, row_start + geo.row_bits))
    masks = []
    for i, base in enumerate(bank_base):
        mask = 1 << base
        if i < len(row_bits):
            mask |= 1 << row_bits[i]
        masks.append(mask)
    return AddressMapping(
        geometry=geo, bank_masks=tuple(masks), row_bits=row_bits, col_bits=col_bits
    )
