"""``AttackProgram``: the one attack-authoring entry point.

pattern → compiled plan → execute on a machine.  Two execution modes
share one plan format:

* ``mode="rows"`` — ``act`` targets are absolute ``(bank, row)`` DRAM
  coordinates, replayed as forced row activations: each plan step's
  ``acts`` triples go to one :meth:`DramModule.hammer_batch` as they
  are (equal to a scalar :meth:`DramModule.hammer` + clock advance
  loop by the DRAM batching contract).  This is the view in-DRAM
  trackers (ChipTRR, the zoo) see through the activation feed; SoftTRR
  is blind to it by design (no MMU access, no armed-PTE fault).
* ``mode="user"`` — ``act`` rows index an aggressor *vaddr* list; each
  run goes clflush + ``kernel.user_read`` (the architecturally visible
  access that takes SoftTRR's RSVD fault) followed by a one-item
  :meth:`DramModule.hammer_batch` burst for the run's remainder — the
  hybrid loop described in :mod:`repro.attacks.hammer`.  Each
  aggressor's paddr and ``(bank, row)`` are resolved once per
  program.

Kernel timers are dispatched at every plan-step boundary in both modes,
so SoftTRR's tick interleaves with hammering at authored granularity.

``round_robin`` builds the classic round-robin hammer loop as a pattern:
the whole attack stack lowers through this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import AttackError, PatternError
from .compile import CompiledPlan, compile_pattern
from .lang import P, Pattern, act, pattern, repeat, sync, wait

__all__ = [
    "DEFAULT_BATCH",
    "DEFAULT_EXTRA_NS",
    "AttackProgram",
    "ProgramOutcome",
    "round_robin",
]

#: Per-activation overhead beyond the DRAM conflict: clflush + loop.
#: (Canonical home; :mod:`repro.attacks.hammer` re-exports it.)
DEFAULT_EXTRA_NS = 15

#: Default iterations per hybrid batch (kept small for TRR fidelity).
DEFAULT_BATCH = 100

MODES = ("rows", "user")


@dataclass(frozen=True)
class ProgramOutcome:
    """What one program execution did to the machine."""

    program: str
    mode: str
    activations: int
    flip_events: int
    hammer_ns: int
    steps: int


class AttackProgram:
    """One executable attack: pattern + bindings + execution mode.

    ``pattern`` may be a :class:`~repro.patterns.lang.Pattern`, DSL
    source text (parsed on first use), or a pre-built
    :class:`CompiledPlan`.  ``plan()`` compiles lazily and caches — the
    compile pipeline is pure, so a program can be compiled far from any
    machine and executed many times.

    ``act_ns`` is the inter-ACT overhead beyond the conflict latency
    (user mode defaults to :data:`DEFAULT_EXTRA_NS`, matching the
    legacy hammer loop).
    """

    def __init__(
        self,
        pattern_or_plan: Union[Pattern, CompiledPlan, str],
        bindings: Optional[Mapping[str, int]] = None,
        *,
        mode: str = "rows",
        act_ns: Optional[int] = None,
    ) -> None:
        if mode not in MODES:
            raise PatternError(
                f"unknown program mode {mode!r}; known: {MODES}")
        self.mode = mode
        self.act_ns = (DEFAULT_EXTRA_NS if mode == "user" else 0) \
            if act_ns is None else act_ns
        if self.act_ns < 0:
            raise PatternError(f"act_ns must be >= 0, got {self.act_ns}")
        self.bindings = dict(bindings or {})
        self._plan: Optional[CompiledPlan] = None
        if isinstance(pattern_or_plan, CompiledPlan):
            self._pattern: Optional[Pattern] = None
            self._plan = CompiledPlan(
                pattern_or_plan.name, pattern_or_plan.steps, self.act_ns)
        elif isinstance(pattern_or_plan, str):
            from .parser import parse_pattern

            self._pattern = parse_pattern(pattern_or_plan)
        elif isinstance(pattern_or_plan, Pattern):
            self._pattern = pattern_or_plan
        else:
            raise PatternError(
                "AttackProgram wants a Pattern, a CompiledPlan or DSL "
                f"source, got {type(pattern_or_plan).__name__}")

    @property
    def name(self) -> str:
        return self._plan.name if self._plan is not None \
            else self._pattern.name

    def plan(self) -> CompiledPlan:
        """The compiled plan (cached; compilation is pure)."""
        if self._plan is None:
            self._plan = compile_pattern(
                self._pattern, self.bindings, act_ns=self.act_ns)
        return self._plan

    # ---------------------------------------------------------- execute
    def run(self, kernel, process=None,
            aggressors: Optional[Sequence[int]] = None) -> ProgramOutcome:
        """Execute on ``kernel``; returns a :class:`ProgramOutcome`.

        Rows mode ignores ``process``/``aggressors``; user mode needs
        both (``aggressors`` are attacker vaddrs the plan's row operands
        index).
        """
        plan = self.plan()
        dram = kernel.dram
        start_ns = kernel.clock.now_ns
        flips_before = len(dram.flip_log)
        if self.mode == "user":
            if process is None or aggressors is None:
                raise AttackError(
                    f"program {self.name!r}: user mode needs a process "
                    "and an aggressor vaddr list")
            acts = _run_user(kernel, process, aggressors, plan)
        else:
            acts = _run_rows(kernel, plan)
        return ProgramOutcome(
            program=self.name,
            mode=self.mode,
            activations=acts,
            flip_events=len(dram.flip_log) - flips_before,
            hammer_ns=kernel.clock.now_ns - start_ns,
            steps=len(plan.steps),
        )


def _run_rows(kernel, plan: CompiledPlan) -> int:
    dram = kernel.dram
    geometry = dram.geometry
    for bank, row in plan.targets():
        if not (0 <= bank < geometry.num_banks
                and 0 <= row < geometry.rows_per_bank):
            raise AttackError(
                f"program {plan.name!r}: target (bank={bank}, row={row}) "
                f"outside the {geometry.num_banks}x"
                f"{geometry.rows_per_bank} geometry")
    clock = kernel.clock
    act_ns = plan.act_ns
    for step in plan.steps:
        if step.acts:
            dram.hammer_batch(step.acts, extra_ns=act_ns)
        if step.wait_ns:
            clock.advance(step.wait_ns)
        kernel.dispatch_timers()
    return plan.total_acts


def _resolve_user_paddr(kernel, process, vaddr: int) -> int:
    """Physical address behind a mapped user vaddr (faulting it in)."""
    ppn = kernel.mapped_ppn_of(process, vaddr)
    if ppn is None:
        kernel.user_read(process, vaddr, 1)
        ppn = kernel.mapped_ppn_of(process, vaddr)
    if ppn is None:
        raise AttackError(f"cannot resolve {vaddr:#x}")
    return (ppn << 12) | (vaddr & 0xFFF)


def _run_user(kernel, process, aggressors: Sequence[int],
              plan: CompiledPlan) -> int:
    if not aggressors:
        raise AttackError("no aggressors to hammer")
    for bank, index in plan.targets():
        if bank != 0:
            raise AttackError(
                f"program {plan.name!r}: user mode uses bank 0 + "
                f"aggressor indices, got bank {bank}")
        if not 0 <= index < len(aggressors):
            raise AttackError(
                f"program {plan.name!r}: aggressor index {index} "
                f"outside the {len(aggressors)}-entry vaddr list")
    dram = kernel.dram
    row_of = dram.mapping.row_of
    # (vaddr, paddr, bank, row) per aggressor, resolved once.
    targets = []
    for vaddr in aggressors:
        paddr = _resolve_user_paddr(kernel, process, vaddr)
        targets.append((vaddr, paddr) + row_of(paddr))
    clock = kernel.clock
    mmu = kernel.mmu
    extra_ns = plan.act_ns
    for step in plan.steps:
        for _bank, index, count in step.acts:
            vaddr, paddr, bank, row = targets[index]
            # The architecturally visible access of the run: takes the
            # RSVD fault if SoftTRR armed this page.
            mmu.clflush(paddr)
            kernel.user_read(process, vaddr, 8)
            if count > 1:
                # The rest of the run: same physics, one burst.
                dram.hammer_batch(((bank, row, count - 1),),
                                  extra_ns=extra_ns)
        if step.wait_ns:
            clock.advance(step.wait_ns)
        kernel.dispatch_timers()
    return plan.total_acts


# ------------------------------------------------------ canned patterns
def round_robin(aggressors: int, iterations: int,
                batch: int = DEFAULT_BATCH,
                per_iter_delay_ns: int = 0) -> Pattern:
    """The classic hammer loop as a pattern: ``iterations`` rounds over
    ``aggressors`` vaddr slots, chunked ``batch`` rounds at a time.

    Each chunk touches every aggressor for the chunk's round count in
    one run (MMU access + batched burst in user mode), then waits
    ``rounds * per_iter_delay_ns`` and syncs (timer dispatch), so
    SoftTRR's timer interleaves with the hammering every ``batch``
    rounds.
    """
    if aggressors < 1:
        raise AttackError("no aggressors to hammer")
    if batch < 1:
        raise PatternError(f"batch must be >= 1, got {batch}")
    if iterations <= 0:
        raise PatternError(
            f"iterations must be >= 1, got {iterations}")
    body: List[object] = []

    def chunk(rounds: int, times: int) -> None:
        ops: List[object] = [act(0, slot, rounds)
                             for slot in range(aggressors)]
        if per_iter_delay_ns:
            ops.append(wait(rounds * per_iter_delay_ns))
        ops.append(sync())
        if times == 1:
            body.extend(ops)
        else:
            body.append(repeat(times, *ops))

    full, rest = divmod(iterations, batch)
    if full:
        chunk(batch, full)
    if rest:
        chunk(rest, 1)
    return pattern(f"round_robin_{aggressors}x{iterations}", (), *body)


def _sided_offsets(sides: int) -> Tuple[int, ...]:
    """Aggressor row offsets around a victim for an N-sided pattern.

    1 → ``(-1,)``; 2 → ``(-1, +1)``; k alternates outward
    (``-1, +1, -2, +2, …``), odd counts ending one row below.
    """
    if sides < 1:
        raise PatternError(f"sides must be >= 1, got {sides}")
    offsets: List[int] = []
    distance = 1
    while len(offsets) < sides:
        offsets.append(-distance)
        if len(offsets) < sides:
            offsets.append(distance)
        distance += 1
    return tuple(offsets)


def sided_pattern(sides: int, offsets: Optional[Sequence[int]] = None,
                  gap_ns: int = 0) -> Pattern:
    """A rows-mode N-sided pattern relative to a ``victim`` placeholder.

    Parameters ``victim``/``rounds``/``acts`` bind at compile time;
    every round touches each aggressor offset for ``acts`` activations,
    optionally waits ``gap_ns`` and syncs (timer dispatch per round).
    """
    offsets = tuple(offsets) if offsets is not None \
        else _sided_offsets(sides)
    if len(offsets) != sides:
        raise PatternError(
            f"{sides}-sided pattern got {len(offsets)} offsets")
    ops: List[object] = [act(0, P("victim") + off, P("acts"))
                         for off in offsets]
    if gap_ns:
        ops.append(wait(gap_ns))
    ops.append(sync())
    return pattern(
        f"sided_{sides}", ("victim", "rounds", ("acts", 1)),
        repeat(P("rounds"), *ops))
