"""Machine assembly layer: declarative configs, the facade, snapshots.

This package is the single sanctioned path for building a simulated
machine (clock + DRAM + MMU + kernel + defense + sanitizers); direct
``Kernel(...)`` / ``DramModule(...)`` wiring elsewhere is lint rule
RPR006's business.  See :mod:`repro.machine.machine` for the facade and
:mod:`repro.machine.config` for the declarative config.
"""

from .config import MachineConfig, build_defense, check_machine
from .machine import Machine, MachineSnapshot

__all__ = [
    "Machine",
    "MachineConfig",
    "MachineSnapshot",
    "build_defense",
    "check_machine",
]
