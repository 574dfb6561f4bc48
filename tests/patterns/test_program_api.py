"""The unified attack-authoring API: AttackProgram + HammerKit.

Covers the redesign's contract: ``HammerKit.run`` accepts every
program spelling (AttackProgram, Pattern, CompiledPlan, DSL source)
under the kit's binding; and every misuse — wrong mode, missing
process, bank ≠ 0, out-of-range aggressor index, no aggressors — is a
loud error.
"""

import dataclasses

import pytest

from repro.attacks.hammer import HammerKit
from repro.config import tiny_machine
from repro.errors import AttackError, PatternError
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.patterns import AttackProgram, compile_pattern, round_robin


def make_kit(n_pages=4, use_batch=True):
    kernel = Kernel(dataclasses.replace(tiny_machine(seed=7),
                                        sanitize=True))
    process = kernel.create_process("attacker")
    base = kernel.mmap(process, n_pages * PAGE, name="aggressors")
    vaddrs = [base + i * PAGE for i in range(n_pages)]
    for vaddr in vaddrs:
        kernel.user_write(process, vaddr, b"A")
    return kernel, process, HammerKit(kernel, process, use_batch=use_batch), vaddrs


def fingerprint(kernel, kit):
    return (tuple(kernel.dram.flip_log), kernel.clock.now_ns,
            kernel.dram.total_activations, kit.total_activations)


# -------------------------------------------------------- HammerKit.run
def test_run_accepts_dsl_source_with_bindings():
    kernel, _, kit, vaddrs = make_kit()
    source = ("pattern pair(rounds, acts=1)\n"
              "  repeat rounds\n"
              "    act 0, 0, acts\n"
              "    act 0, 1, acts\n"
              "    sync\n"
              "  end\n"
              "end\n")
    start_ns = kernel.clock.now_ns
    outcome = kit.run(source, vaddrs, bindings={"rounds": 50, "acts": 2})
    assert outcome.mode == "user"
    assert outcome.program == "pair"
    assert outcome.activations == 50 * 2 * 2
    assert outcome.steps == 50
    assert outcome.hammer_ns == kernel.clock.now_ns - start_ns
    assert outcome.flip_events == len(kernel.dram.flip_log)
    assert kit.total_activations == outcome.activations


def test_run_source_equals_prebuilt_program():
    spellings = {}
    for label, make in {
        "pattern": lambda: round_robin(2, 40),
        "plan": lambda: compile_pattern(round_robin(2, 40), act_ns=15),
        "program": lambda: AttackProgram(round_robin(2, 40), mode="user"),
    }.items():
        kernel, _, kit, vaddrs = make_kit(n_pages=2)
        kit.run(make(), vaddrs)
        spellings[label] = fingerprint(kernel, kit)
    assert spellings["pattern"] == spellings["plan"] == spellings["program"]


def test_run_rejects_rows_mode_program():
    _, _, kit, vaddrs = make_kit()
    rows_program = AttackProgram(round_robin(2, 10), mode="rows")
    with pytest.raises(AttackError, match="'rows'-mode"):
        kit.run(rows_program, vaddrs)


# ------------------------------------------------------- program errors
def test_user_mode_needs_process_and_aggressors():
    kernel, process, _, vaddrs = make_kit()
    program = AttackProgram(round_robin(2, 10), mode="user")
    with pytest.raises(AttackError, match="needs a process"):
        program.run(kernel)
    with pytest.raises(AttackError, match="no aggressors"):
        program.run(kernel, process, [])


def test_user_mode_validates_plan_targets():
    kernel, process, _, vaddrs = make_kit(n_pages=2)
    off_bank = AttackProgram("pattern p()\n  act 1, 0\nend\n", mode="user")
    with pytest.raises(AttackError, match="bank 0"):
        off_bank.run(kernel, process, vaddrs)
    off_index = AttackProgram("pattern p()\n  act 0, 9\nend\n",
                              mode="user")
    with pytest.raises(AttackError, match="index 9"):
        off_index.run(kernel, process, vaddrs)


def test_rows_mode_validates_geometry():
    kernel, _, _, _ = make_kit()
    rows = kernel.dram.geometry.rows_per_bank
    program = AttackProgram(f"pattern p()\n  act 0, {rows}\nend\n",
                            mode="rows")
    with pytest.raises(AttackError, match="outside the"):
        program.run(kernel)


def test_constructor_rejects_bad_inputs():
    with pytest.raises(PatternError, match="unknown program mode"):
        AttackProgram(round_robin(2, 10), mode="kernel")
    with pytest.raises(PatternError, match="act_ns"):
        AttackProgram(round_robin(2, 10), act_ns=-5)
    with pytest.raises(PatternError, match="wants a Pattern"):
        AttackProgram(42)
