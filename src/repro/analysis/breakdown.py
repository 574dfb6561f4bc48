"""Where does SoftTRR's overhead go?  (The cost anatomy behind DP3.)

The paper's design principle DP3 argues overhead stays small because
"the accesses to non-adjacent pages are at full speed" — all cost is
concentrated in four places: trace-fault capture, timer arming, collector
hook work and row refreshes.  This utility decomposes a workload run's
defense time into exactly those categories (from the kernel's cycle
accountant) so the claim is inspectable per workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from ..config import MachineSpec, perf_testbed
from ..core.profile import SoftTrrParams
from ..machine import Machine
from ..workloads.base import WorkloadProfile

#: Accountant categories attributable to the SoftTRR module.
SOFTTRR_CATEGORIES = (
    "softtrr_trace_fault",
    "softtrr_timer",
    "softtrr_collector",
    "softtrr_refresh",
)


@dataclass
class OverheadBreakdown:
    """Defense-time decomposition for one workload run."""

    workload: str
    runtime_ns: int
    total_defense_ns: int
    per_category_ns: Dict[str, int]

    @property
    def defense_fraction(self) -> float:
        """Defense time as a fraction of total runtime."""
        if self.runtime_ns == 0:
            return 0.0
        return self.total_defense_ns / self.runtime_ns

    def share(self, category: str) -> float:
        """One category's share of the defense time."""
        if self.total_defense_ns == 0:
            return 0.0
        return self.per_category_ns.get(category, 0) / self.total_defense_ns

    def dominant_category(self) -> str:
        """The category carrying the most defense time."""
        if not self.per_category_ns:
            return "none"
        return max(self.per_category_ns, key=self.per_category_ns.get)


def measure_breakdown(
    profile: WorkloadProfile,
    spec_factory: Callable[[], MachineSpec] = perf_testbed,
    params: SoftTrrParams = None,
    seed: int = 17,
) -> OverheadBreakdown:
    """Run one workload under SoftTRR and decompose the added time."""
    machine = Machine.from_parts(spec_factory())
    module = machine.load_softtrr(params or SoftTrrParams())
    result = machine.run_workload(profile, seed=seed)
    per_category = {
        category: result.accounting.get(category, 0)
        for category in SOFTTRR_CATEGORIES
        if result.accounting.get(category, 0) > 0
    }
    return OverheadBreakdown(
        workload=profile.name,
        runtime_ns=result.runtime_ns,
        total_defense_ns=module.overhead_ns,
        per_category_ns=per_category,
    )

