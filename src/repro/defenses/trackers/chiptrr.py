"""The in-DRAM ChipTRR sampler as a first-class zoo defense.

Machine profiles model whether the *module silicon* ships TRR
(``MachineSpec.trr``); this defense instead deploys the identical
Misra-Gries sampler as a configuration choice, so the comparative sweep
can put ChipTRR head-to-head with PARA, Graphene, PTMP, DAPPER and
SoftTRR on the same machine regardless of the profile's silicon.  It
subscribes a second, always-enabled :class:`~repro.dram.chiptrr.ChipTrr`
tracker to the activation feed — the exact class the DRAM model uses,
so the blind spot (many-sided patterns wider than ``tracker_slots``)
is reproduced, not re-implemented.
"""

from __future__ import annotations

from ...dram.chiptrr import ChipTrr, TrrParams
from ..base import TrackerDefense, register_defense


@register_defense
class ChipTrrDefense(TrackerDefense):
    """Deploy the DRAM model's TRR sampler via the activation feed."""

    name = "chiptrr"
    summary = "in-DRAM Misra-Gries sampler (TRRespass-bypassable)"
    params_class = TrrParams
    tracker_class = ChipTrr
    pins = {"enabled": True}
