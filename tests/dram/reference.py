"""Reference semantics of the disturbance engine, kept as test oracles.

:meth:`DisturbanceEngine.on_activate` walks the engine's cached victim
plan with the deposit arithmetic inlined, and one-item
``DramModule.hammer_batch`` streams share that walk.  This module keeps
the specification it replaced: heal the activated row, then for each
distance ``remap.neighbors_at`` and one :meth:`DisturbanceEngine.deposit`
per victim.  It shares no accumulator code with the engine's three
paths (plan walk, ``hammer_kernel``, ``hammer_periodic``); the property
in ``tests/dram/test_disturbance.py`` and the scalar leg of the
generative harness (``tests/perf/generative.py``) compare them to it.

It also keeps the cell derivation as a memo-free function of the
profile.  Engines read cells through one shared ``CellMap`` per profile
and process; the cell-map property in ``tests/dram/test_disturbance.py``
holds their answers to :func:`reference_cells`.
"""

from typing import List, Tuple

from repro.dram.disturbance import (
    DisturbanceEngine,
    DisturbanceParams,
    FlipEvent,
    VulnerableCell,
)
from repro.rng import derive_rng


def reference_cells(params: DisturbanceParams, row_bytes: int, bank: int,
                    row: int) -> Tuple[VulnerableCell, ...]:
    """The vulnerable cells of (bank, row), derived with no memo."""
    rng = derive_rng("cells", params.seed, bank, row)
    cells: List[VulnerableCell] = []
    if rng.random() < params.row_vuln_probability:
        count = rng.randint(1, params.max_vuln_cells_per_row)
        row_bits_total = row_bytes * 8
        for _ in range(count):
            # Square the uniform draw so thresholds skew toward the
            # base: most vulnerable rows have at least one "easy" cell,
            # as the HC_first distributions in [26] show.
            spread = (params.threshold_max_factor - 1.0) * rng.random() ** 2
            cells.append(
                VulnerableCell(
                    bit_offset=rng.randrange(row_bits_total),
                    threshold=params.base_flip_threshold * (1.0 + spread),
                    from_value=rng.randint(0, 1),
                )
            )
        cells.sort(key=lambda c: c.threshold)
    return tuple(cells)


def reference_on_activate(engine: DisturbanceEngine, bank: int, row: int,
                          count: int, epoch: int,
                          now_ns: int) -> List[FlipEvent]:
    """``count`` activations of (bank, row), deposit by deposit."""
    if count <= 0:
        return []
    engine.heal(bank, row)
    flips: List[FlipEvent] = []
    for distance in range(1, engine.params.max_distance + 1):
        units = engine.params.weight(distance) * count
        for victim in engine.remap.neighbors_at(row, distance):
            flips.extend(engine.deposit(bank, victim, units, epoch, now_ns))
    return flips
