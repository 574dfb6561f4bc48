"""Reference semantics of one activation burst, kept as a test oracle.

:meth:`DisturbanceEngine.on_activate` walks the engine's cached victim
plan with the deposit arithmetic inlined, and one-item
``DramModule.hammer_batch`` streams share that walk.  This module keeps
the specification it replaced: heal the activated row, then for each
distance ``remap.neighbors_at`` and one :meth:`DisturbanceEngine.deposit`
per victim.  It shares no accumulator code with the engine's three
paths (plan walk, ``hammer_kernel``, ``hammer_periodic``); the property
in ``tests/dram/test_disturbance.py`` and the scalar leg of the
generative harness (``tests/perf/generative.py``) compare them to it.
"""

from typing import List

from repro.dram.disturbance import DisturbanceEngine, FlipEvent


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
