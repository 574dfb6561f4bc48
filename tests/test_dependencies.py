"""The package runs on the standard library alone.

``pyproject.toml`` declares no runtime dependency.  This guard boots a
machine and runs both hammer executors in a fresh interpreter in which
``import numpy`` raises ``ImportError``, so a reintroduced third-party
import on any path a campaign takes fails here.
"""

import os
import subprocess
import sys

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any later `import numpy` raises ImportError

from repro.attacks.hammer import HammerKit
from repro.kernel.vma import PAGE
from repro.machine import Machine, MachineConfig
from repro.patterns import AttackProgram, round_robin, sided_pattern

machine = Machine(MachineConfig(machine="tiny", defense="chiptrr"))
kernel = machine.kernel
rows = AttackProgram(sided_pattern(2), {"victim": 20, "rounds": 20,
                                        "acts": 50}, mode="rows")
assert rows.run(kernel).activations == 2 * 20 * 50

process = kernel.create_process("attacker")
base = kernel.mmap(process, 4 * PAGE, name="aggressors")
vaddrs = [base, base + 2 * PAGE]
for vaddr in vaddrs:
    kernel.user_write(process, vaddr, b"A")
kit = HammerKit(kernel, process)
assert kit.run(round_robin(2, 300), vaddrs).activations == 2 * 300
assert sys.modules["numpy"] is None
"""


def test_machine_and_hammer_executors_run_without_numpy():
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
