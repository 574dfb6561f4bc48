"""LAMP memory-consumption series (Figures 4 and 5).

``measure_lamp`` runs the LAMP + Nikto simulation under one tracking
distance and returns the per-minute samples that Figure 4 (memory
bytes) and Figure 5 (protected / traced page counts) plot; the ``lamp``
scenario group runs it once per distance.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from ..config import MachineSpec, perf_testbed
from ..core.profile import SoftTrrParams
from ..machine import Machine
from ..workloads.lamp import LampSample, LampSimulation


def measure_lamp(
    distance: int = 1,
    minutes: int = 60,
    spec_factory: Callable[[], MachineSpec] = perf_testbed,
    workers: int = 3,
    requests_per_minute: int = 20,
    seed: int = 60,
) -> List[LampSample]:
    """Per-minute SoftTRR samples of one LAMP run under Δ±distance."""
    machine = Machine.from_parts(spec_factory())
    machine.load_softtrr(SoftTrrParams(max_distance=distance))
    simulation = LampSimulation(
        machine.kernel, seed=seed, workers=workers,
        requests_per_minute=requests_per_minute)
    return simulation.run(minutes=minutes)


def summarise(samples: List[LampSample]) -> Dict[str, float]:
    """Headline numbers for one series (used by EXPERIMENTS.md)."""
    last_quarter = samples[-max(1, len(samples) // 4):]
    return {
        "final_memory_kib": samples[-1].memory_bytes / 1024.0,
        "peak_memory_kib": max(s.memory_bytes for s in samples) / 1024.0,
        "stable_memory_kib": (
            sum(s.memory_bytes for s in last_quarter)
            / len(last_quarter) / 1024.0),
        "final_protected": samples[-1].protected_pages,
        "final_traced": samples[-1].traced_pages,
        "ringbuf_kib": samples[0].ringbuf_bytes / 1024.0,
    }
