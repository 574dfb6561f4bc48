"""User-level hammering: :class:`HammerKit`, the user-mode
:class:`~repro.patterns.AttackProgram` binding.

A hammer loop is, architecturally, ``clflush`` + load per aggressor per
iteration, fast enough that each load is a row activation.  Running
every single iteration through the Python MMU would be prohibitively
slow, so :class:`HammerKit` uses a *hybrid* loop that preserves every
property the defenses and the DRAM physics observe:

* once per batch (default 100 iterations) each aggressor is accessed
  through the full MMU path (``kernel.user_read``) — so a SoftTRR-armed
  page faults exactly as on real hardware (the tracer only cares about
  the *first* access per timer interval anyway; Section IV-C);
* the rest of the batch is issued as forced row activations on the DRAM
  module (one :meth:`~repro.dram.module.DramModule.hammer_batch` burst
  per aggressor run, in the aggressor's ``(bank, row)``, resolved once
  per program) with the same per-iteration time cost, keeping the
  in-DRAM TRR tracker's view interleaved at realistic granularity
  (batches must stay small: the Misra-Gries tracker sees them as
  consecutive ACTs);
* kernel timers are dispatched at every batch boundary, so SoftTRR's
  1 ms tick interleaves with the hammering at ~8 µs granularity.

The effective activation period is ``conflict latency + extra_ns``
(clflush + loop overhead), ~80 ns — matching the paper's offline-profile
arithmetic that puts the minimum time-to-first-flip just above 1 ms.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..errors import AttackError
from ..kernel.process import Process
from ..patterns.compile import CompiledPlan
from ..patterns.lang import Pattern
from ..patterns.program import (
    DEFAULT_BATCH,
    DEFAULT_EXTRA_NS,
    AttackProgram,
    ProgramOutcome,
    _resolve_user_paddr,
    round_robin,
)


class HammerKit:
    """Hammering primitives bound to one (kernel, process) pair.

    The loop bodies now live in :class:`repro.patterns.AttackProgram`;
    the kit is the *binding* — kernel, process and per-ACT overhead —
    plus :meth:`run`/:meth:`run_for`, which execute any pattern under
    that binding.  The classic round-robin hammer loop is
    ``kit.run(round_robin(len(vaddrs), iterations, DEFAULT_BATCH, 0),
    vaddrs)``; :meth:`run_for` repeats it for a simulated duration.
    """

    def __init__(self, kernel, process: Process,
                 extra_ns: int = DEFAULT_EXTRA_NS) -> None:
        self.kernel = kernel
        self.process = process
        self.extra_ns = extra_ns
        self.total_activations = 0

    # ------------------------------------------------------------ helpers
    def paddr_of(self, vaddr: int) -> int:
        """Physical address behind a mapped user vaddr (faulting it in)."""
        return _resolve_user_paddr(self.kernel, self.process, vaddr)

    # ----------------------------------------------------------- programs
    def program(self, pattern: Union[Pattern, CompiledPlan, str],
                bindings=None) -> AttackProgram:
        """A user-mode :class:`AttackProgram` under this kit's binding
        (``extra_ns``); it compiles once however often it runs."""
        return AttackProgram(pattern, bindings, mode="user",
                             act_ns=self.extra_ns)

    def run(self, program: Union[AttackProgram, Pattern, CompiledPlan, str],
            aggressors: Sequence[int],
            bindings=None) -> ProgramOutcome:
        """Execute a user-mode attack program under this kit's binding.

        ``program`` may be an :class:`AttackProgram` (its mode must be
        ``"user"``), a :class:`Pattern`, a :class:`CompiledPlan` or DSL
        source text; the latter three inherit the kit's ``extra_ns``.
        ``aggressors`` are the vaddrs the plan's row operands index.
        """
        if not isinstance(program, AttackProgram):
            program = self.program(program, bindings)
        elif program.mode != "user":
            raise AttackError(
                f"HammerKit.run executes user-mode programs; "
                f"{program.name!r} is {program.mode!r}-mode")
        outcome = program.run(self.kernel, self.process, aggressors)
        self.total_activations += outcome.activations
        return outcome

    def run_for(self, vaddrs: Sequence[int], duration_ns: int,
                batch: int = DEFAULT_BATCH,
                per_iter_delay_ns: int = 0) -> int:
        """Round-robin hammer for a simulated duration; returns rounds.

        Replays one ``round_robin`` chunk per wall-step until the
        duration elapses.
        """
        if not vaddrs:
            raise AttackError("no aggressors to hammer")
        program = self.program(
            round_robin(len(vaddrs), batch, batch, per_iter_delay_ns))
        start = self.kernel.clock.now_ns
        rounds = 0
        while self.kernel.clock.now_ns - start < duration_ns:
            self.run(program, vaddrs)
            rounds += batch
        return rounds
