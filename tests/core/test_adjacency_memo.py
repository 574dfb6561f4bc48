"""SoftTRR's adjacency test against its definition.

``SoftTrrStructures`` memoizes each row's ±N neighbourhood
(``near_rows``) and ``pt_rows_near``/``has_pt_near`` walk that tuple.
Over generated page-table placements, on no remap (identity
arithmetic), the identity remap and the folded remap:

* ``near_rows(row, n)`` is ``remap.neighbors(row, n)`` (or the
  unclipped ``row ± d`` list without a remap), distance by distance;
* ``pt_rows_near`` yields exactly what the per-distance scan over
  ``neighbor_rows`` and ``bank_struct`` yields, in that order;
* ``has_pt_near`` is ``any(pt_rows_near(...))``;
* the memo does not go stale when placements change, and holds one
  tuple per ``(row, max_distance)`` asked about.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.structures import SoftTrrStructures
from repro.dram.remap import FoldedRemap, IdentityRemap

ROWS = 64
BANKS = 4
REMAPS = {
    "none": lambda: None,
    "identity": lambda: IdentityRemap(ROWS),
    "folded": lambda: FoldedRemap(ROWS),
}

placements = st.lists(
    st.tuples(st.integers(0, ROWS - 1), st.integers(0, BANKS - 1)),
    max_size=24)
queries = st.lists(
    st.tuples(st.integers(0, ROWS - 1), st.integers(0, BANKS - 1),
              st.integers(0, 7)),
    min_size=1, max_size=12)


def scanned(structs, row, bank, max_distance):
    """The pre-memo definition: distance by distance, neighbour by
    neighbour, one ``bank_struct`` lookup each."""
    return [(candidate, structs.bank_struct(candidate, bank))
            for distance in range(1, max_distance + 1)
            for candidate in structs.neighbor_rows(row, distance)
            if structs.bank_struct(candidate, bank) is not None]


def expected_near(remap, row, max_distance):
    if remap is None:
        return tuple(candidate for distance in range(1, max_distance + 1)
                     for candidate in (row - distance, row + distance))
    return tuple(remap.neighbors(row, max_distance))


@pytest.mark.parametrize("remap_name", sorted(REMAPS))
@settings(max_examples=80, deadline=None)
@given(first=placements, second=placements, asked=queries)
def test_adjacency_matches_definition(remap_name, first, second, asked):
    remap = REMAPS[remap_name]()
    structs = SoftTrrStructures(remap=remap)
    for placed in (first, second):
        # Placements change between the two rounds; the memo persists.
        for row, bank in placed:
            structs.add_pt_location(row, bank)
        for row, bank, max_distance in asked:
            assert structs.near_rows(row, max_distance) == expected_near(
                remap, row, max_distance)
            pairs = list(structs.pt_rows_near(row, bank, max_distance))
            assert pairs == scanned(structs, row, bank, max_distance)
            assert structs.has_pt_near(row, bank, max_distance) == bool(
                pairs)
        for row, bank in placed[::2]:
            structs.remove_pt_location(row, bank)
    assert set(structs._near) == {(row, max_distance)
                                  for row, _, max_distance in asked}


def test_memo_is_shared_across_queries_and_banks():
    structs = SoftTrrStructures(remap=FoldedRemap(ROWS))
    near = structs.near_rows(13, 6)
    assert structs.near_rows(13, 6) is near
    structs.add_pt_location(14, 2)
    assert structs.has_pt_near(13, 2, 6)
    assert not structs.has_pt_near(13, 1, 6)
    assert list(structs._near) == [(13, 6)]
