"""User-level hammer primitives (Section II-B's four patterns).

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
  module with the same per-iteration time cost, keeping the in-DRAM TRR
  tracker's view interleaved at realistic granularity (batches must stay
  small: the Misra-Gries tracker sees them as consecutive ACTs);
* kernel timers are dispatched at every batch boundary, so SoftTRR's
  1 ms tick interleaves with the hammering at ~8 µs granularity.

The effective activation period is ``conflict latency + extra_ns``
(clflush + loop overhead), ~80 ns — matching the paper's offline-profile
arithmetic that puts the minimum time-to-first-flip just above 1 ms.
"""

from __future__ import annotations

from typing import List, Sequence, Union

from ..errors import AttackError
from ..kernel.process import Process
from ..patterns.compile import CompiledPlan
from ..patterns.lang import Pattern
from ..patterns.program import (
    DEFAULT_BATCH,
    DEFAULT_EXTRA_NS,
    AttackProgram,
    ProgramOutcome,
    round_robin,
)


class HammerKit:
    """Hammering primitives bound to one (kernel, process) pair.

    The loop bodies now live in :class:`repro.patterns.AttackProgram`;
    the kit is the *binding* — kernel, process, per-ACT overhead and
    the batch pin — plus :meth:`run`/:meth:`run_for`, which execute any
    pattern under that binding.  The classic round-robin hammer loop is
    ``kit.run(round_robin(len(vaddrs), iterations, DEFAULT_BATCH, 0),
    vaddrs)``; :meth:`run_for` repeats it for a simulated duration.
    """

    def __init__(self, kernel, process: Process,
                 extra_ns: int = DEFAULT_EXTRA_NS,
                 use_batch: bool = True) -> None:
        self.kernel = kernel
        self.process = process
        self.extra_ns = extra_ns
        #: False pins the scalar per-activation path (differential
        #: tests run both).
        self.use_batch = use_batch
        self.total_activations = 0

    # ------------------------------------------------------------ helpers
    def paddr_of(self, vaddr: int) -> int:
        """Physical address behind a mapped user vaddr (faulting it in)."""
        ppn = self.kernel.mapped_ppn_of(self.process, vaddr)
        if ppn is None:
            self.kernel.user_read(self.process, vaddr, 1)
            ppn = self.kernel.mapped_ppn_of(self.process, vaddr)
        if ppn is None:
            raise AttackError(f"cannot resolve {vaddr:#x}")
        return (ppn << 12) | (vaddr & 0xFFF)

    # ----------------------------------------------------------- programs
    def run(self, program: Union[AttackProgram, Pattern, CompiledPlan, str],
            aggressors: Sequence[int],
            bindings=None) -> ProgramOutcome:
        """Execute a user-mode attack program under this kit's binding.

        ``program`` may be an :class:`AttackProgram` (its mode must be
        ``"user"``), a :class:`Pattern`, a :class:`CompiledPlan` or DSL
        source text; the latter three inherit the kit's ``extra_ns`` and
        batch pin.  ``aggressors`` are the vaddrs the plan's row
        operands index.
        """
        if not isinstance(program, AttackProgram):
            program = AttackProgram(
                program, bindings, mode="user", act_ns=self.extra_ns,
                use_batch=self.use_batch)
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
        program = AttackProgram(
            round_robin(len(vaddrs), batch, batch, per_iter_delay_ns),
            mode="user", act_ns=self.extra_ns, use_batch=self.use_batch)
        start = self.kernel.clock.now_ns
        rounds = 0
        while self.kernel.clock.now_ns - start < duration_ns:
            self.run(program, vaddrs)
            rounds += batch
        return rounds

    # ------------------------------------------------------- row patterns
    @staticmethod
    def double_sided_rows(victim_row: int) -> List[int]:
        """Aggressor rows for the classic double-sided pattern."""
        return [victim_row - 1, victim_row + 1]

    @staticmethod
    def single_sided_rows(victim_row: int, spare_row: int) -> List[int]:
        """One true aggressor + one same-bank row to defeat the row
        buffer (the 'two random rows' of [41])."""
        return [victim_row - 1, spare_row]

    @staticmethod
    def one_location_rows(victim_row: int) -> List[int]:
        """A single aggressor; only effective under closed-page policy."""
        return [victim_row - 1]

    @staticmethod
    def many_sided_rows(first_victim_row: int, sides: int) -> List[int]:
        """The TRRespass assembly: ``sides`` aggressors separated by one
        row (victims in between)."""
        if sides < 3:
            raise AttackError("many-sided means at least 3 aggressors")
        return [first_victim_row - 1 + 2 * i for i in range(sides)]
