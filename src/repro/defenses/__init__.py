"""Baseline software defenses the paper compares against (Section II-C).

* :mod:`repro.defenses.catt`   — CATT [11]: physical user/kernel
  partition with guard rows.  Broken by CATTmew (SG buffers) and
  PThammer.
* :mod:`repro.defenses.cta`    — CTA [52]: a dedicated DRAM region for
  level-1 page tables.  Broken by PThammer (PT-to-PT adjacency remains).
* :mod:`repro.defenses.zebram` — ZebRAM [28]: zebra striping with the
  one-row-distance assumption.  Broken by distance >= 2 hammering.
* :mod:`repro.defenses.anvil`  — ANVIL [4]: performance-counter
  detection with selective refresh.  Blind to PThammer because page-walk
  activations are invisible to load-address PMU sampling.
* :mod:`repro.defenses.riprh`  — RIP-RH [8]: per-process DRAM isolation
  for sensitive users (the Section VII answer to the setuid opcode
  attack).  Does nothing for page tables.
* :mod:`repro.defenses.alis`   — ALIS [47]: DMA-buffer isolation with
  guard rows (kills CATTmew structurally, nothing else).
* :mod:`repro.defenses.trackers` — the pluggable tracker zoo (ChipTRR,
  PARA, Misra-Gries/Graphene, PTMP, DAPPER) riding the DRAM module's
  activation feed.
* :mod:`repro.defenses.base`   — the common interface and the
  ``@register_defense`` registry.
"""

from .base import (
    DEFENSES,
    Defense,
    DefenseRegistry,
    NoDefense,
    SoftTrrDefense,
    register_defense,
)
from .catt import CattDefense, RegionPolicy
from .cta import CtaDefense
from .zebram import ZebramDefense, StripedPolicy
from .anvil import AnvilDefense, AnvilModule
from .riprh import RipRhDefense, RipRhPolicy
from .alis import AlisDefense
from .trackers import (
    ChipTrrDefense,
    DapperDefense,
    MisraGriesDefense,
    ParaDefense,
    PtmpDefense,
)

__all__ = [
    "Defense",
    "DefenseRegistry",
    "NoDefense",
    "SoftTrrDefense",
    "register_defense",
    "DEFENSES",
    "ChipTrrDefense",
    "ParaDefense",
    "MisraGriesDefense",
    "PtmpDefense",
    "DapperDefense",
    "CattDefense",
    "RegionPolicy",
    "CtaDefense",
    "ZebramDefense",
    "StripedPolicy",
    "AnvilDefense",
    "AnvilModule",
    "RipRhDefense",
    "RipRhPolicy",
    "AlisDefense",
]
