"""Tests for the physical<->DRAM address mapping."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.address import (
    AddressMapping,
    DramAddress,
    interleaved_mapping,
    linear_mapping,
)
from repro.dram.geometry import DramGeometry, LINE_BYTES
from repro.errors import AddressMappingError
from repro.machine import Machine


# The per-line definitions the table-driven mapping must reproduce.
def brute_phys_to_dram(mapping, paddr):
    def gather(positions):
        return sum(((paddr >> pos) & 1) << i for i, pos in enumerate(positions))

    bank = sum((bin(paddr & mask).count("1") & 1) << i
               for i, mask in enumerate(mapping.bank_masks))
    return DramAddress(bank, gather(mapping.row_bits), gather(mapping.col_bits))


def brute_page_rows(mapping, ppn):
    seen = []
    for off in range(0, 4096, LINE_BYTES):
        dram = brute_phys_to_dram(mapping, (ppn << 12) + off)
        if (dram.bank, dram.row) not in seen:
            seen.append((dram.bank, dram.row))
    return seen


def brute_row_pages(mapping, bank, row):
    seen = []
    for col in range(0, mapping.geometry.row_bytes, LINE_BYTES):
        ppn = mapping.dram_to_phys(bank, row, col) >> 12
        if ppn not in seen:
            seen.append(ppn)
    return seen


#: (banks, rows, row_bytes): 512-byte rows split a page across 8 rows,
#: 16 KiB rows hold 4 pages.
GEOMETRIES = [(8, 64, 8192), (16, 512, 8192), (8, 64, 512),
              (2, 1024, 512), (4, 128, 16384), (16, 32, 1024)]


@st.composite
def random_mappings(draw):
    """Any valid mapping: bits 0..5 are the low column bits, the rest
    are dealt at random to columns, rows and bank base bits, and each
    bank mask adds random row, column and earlier base bits."""
    banks, rows, row_bytes = draw(st.sampled_from(GEOMETRIES))
    geo = DramGeometry(banks, rows, row_bytes)
    upper = draw(st.permutations(range(6, geo.addr_bits)))
    n_col = geo.col_bits - 6
    col_bits = tuple(range(6)) + tuple(upper[:n_col])
    row_bits = tuple(upper[n_col:n_col + geo.row_bits])
    bases = upper[n_col + geo.row_bits:]
    masks = []
    for i, base in enumerate(bases):
        extra = list(row_bits) + list(col_bits[6:]) + list(bases[:i])
        chosen = draw(st.lists(st.sampled_from(extra), max_size=4))
        mask = 1 << base
        for pos in chosen:
            mask |= 1 << pos
        masks.append(mask)
    return AddressMapping(geometry=geo, bank_masks=tuple(masks),
                          row_bits=row_bits, col_bits=col_bits)


@st.composite
def any_mappings(draw):
    kind = draw(st.sampled_from(["linear", "interleaved", "random"]))
    if kind == "random":
        return draw(random_mappings())
    geo = DramGeometry(*draw(st.sampled_from(GEOMETRIES)))
    return (linear_mapping if kind == "linear" else interleaved_mapping)(geo)


class TestTablesMatchPerLineDefinitions:
    @given(mapping=any_mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_phys_to_dram(self, mapping, data):
        cap = mapping.geometry.capacity_bytes
        for paddr in data.draw(st.lists(
                st.integers(min_value=0, max_value=cap - 1),
                min_size=1, max_size=20)):
            assert mapping.phys_to_dram(paddr) == brute_phys_to_dram(
                mapping, paddr)

    @given(mapping=any_mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_page_rows(self, mapping, data):
        ppn = data.draw(st.integers(
            min_value=0, max_value=(mapping.geometry.capacity_bytes >> 12) - 1))
        assert mapping.page_rows(ppn) == brute_page_rows(mapping, ppn)

    def test_page_rows_of_every_tiny_page(self, monkeypatch):
        """Every page of the tiny machine: ``page_rows`` (decoded through
        ``row_of``) equals the distinct (bank, row) of the page's lines
        decoded as ``DramAddress``es, and builds none itself."""
        mapping = Machine(machine="tiny").dram.mapping
        pages = mapping.geometry.capacity_bytes >> 12
        expected = []
        for ppn in range(pages):
            seen = []
            for off in range(0, 4096, LINE_BYTES):
                dram = mapping.phys_to_dram((ppn << 12) + off)
                if (dram.bank, dram.row) not in seen:
                    seen.append((dram.bank, dram.row))
            expected.append(seen)
        built = []
        original = DramAddress.__new__

        def counted(cls, *args):
            built.append(args)
            return original(cls, *args)

        monkeypatch.setattr(DramAddress, "__new__", counted)
        assert [mapping.page_rows(ppn) for ppn in range(pages)] == expected
        assert built == []

    @given(mapping=any_mappings(), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_row_pages(self, mapping, data):
        geo = mapping.geometry
        bank = data.draw(st.integers(min_value=0, max_value=geo.num_banks - 1))
        row = data.draw(st.integers(min_value=0,
                                    max_value=geo.rows_per_bank - 1))
        assert mapping.row_pages(bank, row) == brute_row_pages(
            mapping, bank, row)

    def test_page_and_row_geometry_sizes(self):
        # 2^k translations per page: k = 0 linear, 1 interleaved.
        assert len(linear_mapping(DramGeometry(8, 64, 8192)).page_rows(3)) == 1
        assert len(interleaved_mapping(
            DramGeometry(16, 512, 8192)).page_rows(3)) == 2
        small = linear_mapping(DramGeometry(8, 64, 512))
        assert small.page_rows(3) == brute_page_rows(small, 3)
        assert len(small.page_rows(3)) == 8

    def test_page_past_capacity_rejected(self):
        mapping = linear_mapping(geo())
        with pytest.raises(AddressMappingError):
            mapping.page_rows(geo().capacity_bytes >> 12)
        with pytest.raises(AddressMappingError):
            mapping.page_rows(-1)

    def test_machines_of_one_profile_share_tables(self):
        first = Machine(machine="tiny")
        second = Machine(machine="tiny")
        assert first.dram.mapping is not second.dram.mapping
        assert first.dram.mapping._tables is second.dram.mapping._tables
        first.restore(first.snapshot())
        assert first.dram.mapping._tables is second.dram.mapping._tables


def geo() -> DramGeometry:
    return DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192)


def big_geo() -> DramGeometry:
    return DramGeometry(num_banks=16, rows_per_bank=512, row_bytes=8192)


class TestLinearMapping:
    def test_builds(self):
        mapping = linear_mapping(geo())
        assert len(mapping.bank_masks) == 3
        assert len(mapping.row_bits) == 6
        assert len(mapping.col_bits) == 13

    def test_column_is_low_bits(self):
        mapping = linear_mapping(geo())
        dram = mapping.phys_to_dram(0x1234)
        assert dram.col == 0x1234 % 8192

    def test_same_row_for_consecutive_lines(self):
        mapping = linear_mapping(geo())
        a = mapping.phys_to_dram(0)
        b = mapping.phys_to_dram(LINE_BYTES)
        assert (a.bank, a.row) == (b.bank, b.row)

    def test_bank_masks_mix_row_bits(self):
        # The classic XOR structure: each bank bit pairs a base bit with
        # a row bit, making single-bit bank flips impossible.
        mapping = linear_mapping(geo())
        for mask in mapping.bank_masks:
            assert bin(mask).count("1") == 2


class TestRoundTrip:
    @given(paddr=st.integers(min_value=0, max_value=(1 << 22) - 1))
    @settings(max_examples=300)
    def test_linear_round_trip(self, paddr):
        mapping = linear_mapping(geo())
        dram = mapping.phys_to_dram(paddr)
        assert mapping.dram_to_phys(dram.bank, dram.row, dram.col) == paddr

    @given(paddr=st.integers(min_value=0, max_value=(16 * 512 * 8192) - 1))
    @settings(max_examples=300)
    def test_interleaved_round_trip(self, paddr):
        mapping = interleaved_mapping(big_geo())
        dram = mapping.phys_to_dram(paddr)
        assert mapping.dram_to_phys(dram.bank, dram.row, dram.col) == paddr

    @given(bank=st.integers(min_value=0, max_value=7),
           row=st.integers(min_value=0, max_value=63),
           col=st.integers(min_value=0, max_value=8191))
    @settings(max_examples=300)
    def test_inverse_round_trip(self, bank, row, col):
        mapping = linear_mapping(geo())
        paddr = mapping.dram_to_phys(bank, row, col)
        assert mapping.phys_to_dram(paddr) == DramAddress(bank, row, col)

    @given(paddr=st.integers(min_value=0, max_value=(1 << 22) - 1))
    @settings(max_examples=200)
    def test_mapping_is_injective_per_line(self, paddr):
        # Two distinct line addresses never collide in (bank,row,col).
        mapping = linear_mapping(geo())
        other = paddr ^ LINE_BYTES  # differs in one line bit
        if other >= geo().capacity_bytes:
            return
        assert mapping.phys_to_dram(paddr) != mapping.phys_to_dram(other)


class TestValidation:
    def test_out_of_range_paddr(self):
        mapping = linear_mapping(geo())
        with pytest.raises(AddressMappingError):
            mapping.phys_to_dram(geo().capacity_bytes)
        with pytest.raises(AddressMappingError):
            mapping.phys_to_dram(-1)

    def test_out_of_range_dram(self):
        mapping = linear_mapping(geo())
        with pytest.raises(Exception):
            mapping.dram_to_phys(99, 0, 0)
        with pytest.raises(AddressMappingError):
            mapping.dram_to_phys(0, 0, 8192)

    def test_wrong_mask_count(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(1 << 13,),
                row_bits=tuple(range(16, 22)),
                col_bits=tuple(range(13)),
            )

    def test_overlapping_row_col_rejected(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(1 << 13, 1 << 14, 1 << 15),
                row_bits=tuple(range(12, 18)),  # overlaps col bit 12
                col_bits=tuple(range(13)),
            )

    def test_sub_line_bank_mask_rejected(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(1 << 3, 1 << 14, 1 << 15),
                row_bits=tuple(range(16, 22)),
                col_bits=tuple(range(13)),
            )

    def test_empty_mask_rejected(self):
        g = geo()
        with pytest.raises(AddressMappingError):
            AddressMapping(
                geometry=g,
                bank_masks=(0, 1 << 14, 1 << 15),
                row_bits=tuple(range(16, 22)),
                col_bits=tuple(range(13)),
            )


class TestHelpers:
    def test_same_bank_and_row(self):
        mapping = linear_mapping(geo())
        p = mapping.dram_to_phys(3, 10, 0)
        q = mapping.dram_to_phys(3, 10, 128)
        r = mapping.dram_to_phys(3, 11, 0)
        s = mapping.dram_to_phys(4, 10, 0)
        assert mapping.same_row(p, q)
        assert mapping.same_bank(p, r)
        assert not mapping.same_row(p, r)
        assert not mapping.same_bank(p, s)

    def test_row_of(self):
        mapping = linear_mapping(geo())
        p = mapping.dram_to_phys(2, 9, 64)
        assert mapping.row_of(p) == (2, 9)

    def test_page_rows_linear_single_row(self):
        # 8 KiB rows, 4 KiB pages, no low bank bits: page sits in one row.
        mapping = linear_mapping(geo())
        assert len(mapping.page_rows(5)) == 1

    def test_page_rows_interleaved_spans_banks(self):
        mapping = interleaved_mapping(big_geo())
        rows = mapping.page_rows(5)
        assert len(rows) == 2
        banks = {bank for bank, _ in rows}
        assert len(banks) == 2

    def test_row_pages_inverse_of_page_rows(self):
        mapping = linear_mapping(geo())
        bank, row = mapping.row_of(mapping.dram_to_phys(1, 7, 0))
        pages = mapping.row_pages(bank, row)
        assert len(pages) == 2  # 8 KiB row holds two 4 KiB pages
        for ppn in pages:
            assert (bank, row) in mapping.page_rows(ppn)

    def test_row_pages_interleaved(self):
        mapping = interleaved_mapping(big_geo())
        pages = mapping.row_pages(0, 17)
        # Interleaved row holds halves of several pages.
        for ppn in pages:
            assert (0, 17) in mapping.page_rows(ppn)
