"""DRAM substrate: geometry, address mapping, disturbance, TRR, timing.

This package simulates the DRAM the paper's machines hammer:

* :mod:`repro.dram.geometry` — banks/rows/columns arithmetic.
* :mod:`repro.dram.timing` — DDR3/DDR4 timing parameters (tRC, tCAS,
  the 64 ms auto-refresh window).
* :mod:`repro.dram.address` — invertible physical<->DRAM address mapping
  with DRAMA-style XOR bank functions.
* :mod:`repro.dram.disturbance` — the rowhammer charge-disturbance fault
  model (victims up to 6 rows away, per Kim et al. [26]).
* :mod:`repro.dram.chiptrr` — the in-DRAM target-row-refresh sampler that
  TRRespass-style many-sided hammering bypasses.
* :mod:`repro.dram.bank` — per-bank row-buffer state (the timing side
  channel DRAMA exploits).
* :mod:`repro.dram.module` — the :class:`~repro.dram.module.DramModule`
  facade tying it all together and holding the memory contents.
* :mod:`repro.dram.drama` — the timing-side-channel reverse-engineering
  tool that recovers the address mapping, as SoftTRR's offline step does.
"""

from .geometry import DramGeometry
from .timing import DramTimings
from .address import AddressMapping, DramAddress, linear_mapping, interleaved_mapping
from .disturbance import (
    DisturbanceEngine,
    DisturbanceParams,
    FlipEvent,
    VulnerableCell,
)
from .chiptrr import TrrParams, ChipTrr
from .feed import ActivationFeed, RefreshActuator, Tracker
from .bank import BankState, RowBufferPolicy
from .remap import FoldedRemap, IdentityRemap, RowRemap, build_remap
from .module import DramModule
from .drama import DramaProbe, reverse_engineer_mapping

__all__ = [
    "DramGeometry",
    "DramTimings",
    "AddressMapping",
    "DramAddress",
    "linear_mapping",
    "interleaved_mapping",
    "DisturbanceEngine",
    "DisturbanceParams",
    "FlipEvent",
    "VulnerableCell",
    "TrrParams",
    "ChipTrr",
    "ActivationFeed",
    "RefreshActuator",
    "Tracker",
    "BankState",
    "RowBufferPolicy",
    "RowRemap",
    "IdentityRemap",
    "FoldedRemap",
    "build_remap",
    "DramModule",
    "DramaProbe",
    "reverse_engineer_mapping",
]
