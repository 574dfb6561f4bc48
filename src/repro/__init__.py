"""SoftTRR reproduction: software-only target row refresh.

This package reproduces *SoftTRR: Protect Page Tables against Rowhammer
Attacks using Software-only Target Row Refresh* (Zhang, Cheng et al.)
on a fully simulated stack: a DRAM module with rowhammer physics, an
x86-64 MMU, a mini-kernel, the SoftTRR loadable module, the three
attacks of the paper's security evaluation, the baseline defenses it
compares against, and the workload suites behind its performance
numbers.

Quickstart::

    from repro import Machine

    m = Machine(machine="perf_testbed", defense="softtrr",
                defense_params={"max_distance": 6})
    proc = m.kernel.create_process("app")
    base = m.kernel.mmap(proc, 64 * 4096)
    m.kernel.user_write(proc, base, b"hello")
    print(m.softtrr.stats())
    counters = m.telemetry.as_flat_dict()
    print({k: v for k, v in counters.items() if v})

Machines are assembled through :mod:`repro.machine` (one declarative
config, a typed ``machine.telemetry`` facade over every per-layer
counter, deterministic snapshot/restore), and every
paper experiment is a named scenario in :mod:`repro.scenarios`, runnable
in-process via ``run_sweep`` or as a fleet via ``repro-fleet run --group``.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured comparison of every table and figure.
"""

from .checkers.report import SanitizerReport, Violation
from .checkers.sanitizers import (
    SanitizerManager,
    check_window,
    check_window_config,
    install_sanitizers,
    sanitized,
)
from .clock import NS_PER_MS, NS_PER_SEC, NS_PER_US, SimClock
from .config import (
    CostModel,
    MachineSpec,
    machine,
    MACHINES,
    optiplex_390,
    optiplex_990,
    perf_testbed,
    thinkpad_x230,
    tiny_machine,
)
from .core.profile import OfflineProfile, SoftTrrParams
from .core.softtrr import SoftTrr, SoftTrrStats
from .errors import SanitizerViolationError
from .faults import FAULT_SITES, FaultPlan, FaultSpec
from .kernel.kernel import Kernel
from .kernel.physmem import FrameUse
from .machine import Machine, MachineConfig, MachineSnapshot
from .scenarios import (
    SCENARIOS,
    ScenarioResult,
    ScenarioSpec,
    run_scenario,
    run_sweep,
)
from .workloads.base import SliceWorkload, WorkloadProfile, WorkloadResult

# Importing the repro.machine subpackage above rebound this package's
# ``machine`` attribute to the module object; restore the spec-factory
# function (the public ``repro.machine(name)`` API).  ``from
# repro.machine import Machine`` still resolves the subpackage through
# sys.modules.
from .config import machine

__version__ = "1.0.0"

__all__ = [
    "SanitizerReport",
    "Violation",
    "SanitizerManager",
    "check_window",
    "check_window_config",
    "install_sanitizers",
    "sanitized",
    "SanitizerViolationError",
    "FAULT_SITES",
    "FaultPlan",
    "FaultSpec",
    "NS_PER_MS",
    "NS_PER_SEC",
    "NS_PER_US",
    "SimClock",
    "CostModel",
    "MachineSpec",
    "machine",
    "MACHINES",
    "optiplex_390",
    "optiplex_990",
    "perf_testbed",
    "thinkpad_x230",
    "tiny_machine",
    "OfflineProfile",
    "SoftTrrParams",
    "SoftTrr",
    "SoftTrrStats",
    "Kernel",
    "FrameUse",
    "Machine",
    "MachineConfig",
    "MachineSnapshot",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "run_scenario",
    "run_sweep",
    "SliceWorkload",
    "WorkloadProfile",
    "WorkloadResult",
    "__version__",
]
