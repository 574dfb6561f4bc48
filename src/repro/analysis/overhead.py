"""Runtime-overhead measurement (Tables III and IV).

Each ``table3``/``table4`` scenario runs one program as three
*identical* seeded workloads on three freshly booted machines — vanilla,
SoftTRR Δ±1, SoftTRR Δ±6 — and reports the runtime delta as a
percentage, exactly the quantity Tables III/IV tabulate (the suite Mean
row is :func:`repro.analysis.tables.overhead_rows`).

A seeded measurement-noise term (default sigma = 0.35 %) is applied to
each measured runtime, standing in for the run-to-run variance of real
hardware; it is what produces the small negative entries the paper's
tables also contain (e.g. mcf_s -0.76 %).  Set ``noise_sigma_pct=0`` for
the raw model output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..config import MachineSpec, perf_testbed
from ..core.profile import SoftTrrParams
from ..machine import Machine
from ..rng import derive_rng
from ..workloads.base import WorkloadProfile


@dataclass
class OverheadRow:
    """One table row: a program's overhead under both distances."""

    name: str
    vanilla_ns: int
    delta1_ns: int
    delta6_ns: int
    delta1_pct: float
    delta6_pct: float


def _run_once(spec: MachineSpec, profile: WorkloadProfile,
              distance: Optional[int], seed: int) -> int:
    """One program on one fresh machine; returns runtime in ns."""
    machine = Machine.from_parts(spec)
    if distance is not None:
        machine.load_softtrr(SoftTrrParams(max_distance=distance))
    result = machine.run_workload(profile, seed=seed)
    return result.runtime_ns


def _noisy(runtime_ns: int, tag: str, sigma_pct: float, seed: int) -> int:
    if sigma_pct <= 0:
        return runtime_ns
    rng = derive_rng("noise", tag, seed)
    return int(runtime_ns * (1.0 + rng.gauss(0.0, sigma_pct / 100.0)))


def measure_overhead(profile: WorkloadProfile,
                     spec_factory: Callable[[], MachineSpec] = perf_testbed,
                     seed: int = 17,
                     noise_sigma_pct: float = 0.35) -> OverheadRow:
    """Vanilla vs Δ±1 vs Δ±6 for one program."""
    vanilla = _run_once(spec_factory(), profile, None, seed)
    delta1 = _run_once(spec_factory(), profile, 1, seed)
    delta6 = _run_once(spec_factory(), profile, 6, seed)
    vanilla_m = _noisy(vanilla, f"{profile.name}:vanilla", noise_sigma_pct, seed)
    delta1_m = _noisy(delta1, f"{profile.name}:d1", noise_sigma_pct, seed)
    delta6_m = _noisy(delta6, f"{profile.name}:d6", noise_sigma_pct, seed)
    return OverheadRow(
        name=profile.name,
        vanilla_ns=vanilla_m,
        delta1_ns=delta1_m,
        delta6_ns=delta6_m,
        delta1_pct=100.0 * (delta1_m - vanilla_m) / vanilla_m,
        delta6_pct=100.0 * (delta6_m - vanilla_m) / vanilla_m,
    )
