"""System-robustness evaluation (Table V).

Each ``table5`` scenario runs one of the 20 LTP-style stress tests on
a freshly booted machine — vanilla, SoftTRR Δ±1 or SoftTRR Δ±6 — built
by :func:`stress_machine`.  The expected result (and the paper's) is a
full column of checkmarks: "there is no deviation for the SoftTRR-based
system compared to the vanilla system".
"""

from __future__ import annotations

from typing import Callable, Optional

from ..clock import NS_PER_MS
from ..config import MachineSpec
from ..core.profile import SoftTrrParams
from ..kernel.vma import PAGE
from ..machine import Machine


def stress_machine(spec_factory: Callable[[], MachineSpec],
                   distance: Optional[int]) -> Machine:
    """A fresh machine for one stress run (optionally SoftTRR Δ±d)."""
    machine = Machine.from_parts(spec_factory())
    kernel = machine.kernel
    if distance is not None:
        machine.load_softtrr(SoftTrrParams(max_distance=distance))
        # Warm the system so the tracer has real armed state while the
        # stress storms run (that is the point of the robustness test).
        proc = kernel.create_process("warmup")
        base = kernel.mmap(proc, 48 * PAGE)
        for i in range(48):
            kernel.user_write(proc, base + i * PAGE, b"w")
        kernel.clock.advance(2 * NS_PER_MS)
        kernel.dispatch_timers()
    return machine
