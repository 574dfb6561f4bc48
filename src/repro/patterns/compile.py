"""Pattern compilation: resolve → unroll → coalesce → chunk.

``compile_pattern`` turns a :class:`~repro.patterns.lang.Pattern` plus a
parameter binding into a :class:`CompiledPlan` — a flat, fully numeric
sequence of :class:`PlanStep` records the executors replay verbatim:

* **resolve** — bind every declared parameter (bindings override
  declared defaults; unknown binding names and unbound placeholders are
  errors) and evaluate each operand expression to an int;
* **unroll** — flatten ``repeat`` blocks (bounded by
  :data:`MAX_REPEAT_DEPTH` nesting and :data:`MAX_UNROLLED_OPS` total
  statements, so a typo'd count fails loudly instead of OOMing);
* **coalesce** — merge consecutive activations of one ``(bank, row)``
  target into a single run;
* **chunk** — split the run list into steps at every ``wait``/``sync``
  barrier.  Step boundaries are part of the *meaning* of a plan (the
  executor dispatches kernel timers at each one), so they are fixed
  here, deterministically, never by the executor — a scalar replay of
  the plan sees identical boundaries by construction.

Everything in this module is pure plain-data transformation: no clock,
no RNG, no machine (flow rule RPR014 keeps it that way).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from ..errors import PatternError
from .lang import Act, BinOp, Const, Expr, Param, Pattern, Repeat, Sync, Wait

__all__ = [
    "CompiledPlan",
    "MAX_REPEAT_DEPTH",
    "MAX_UNROLLED_OPS",
    "PlanStep",
    "compile_pattern",
    "eval_expr",
    "resolve_bindings",
]

#: Deepest allowed ``repeat`` nesting (flat patterns rarely need > 2).
MAX_REPEAT_DEPTH = 4

#: Ceiling on flattened statement count after unrolling.
MAX_UNROLLED_OPS = 2_000_000


@dataclass(frozen=True)
class PlanStep:
    """One executor step: activation runs, then a wait, then timers.

    ``acts`` is a tuple of ``(bank, row, count)`` runs replayed in
    order; ``wait_ns`` advances the clock after the runs; the executor
    dispatches kernel timers at the end of every step.
    """

    acts: Tuple[Tuple[int, int, int], ...]
    wait_ns: int = 0


@dataclass(frozen=True)
class CompiledPlan:
    """A fully resolved pattern, ready for any execution backend.

    ``act_ns`` is the per-activation overhead beyond the DRAM conflict
    latency (the inter-ACT timing axis): the executor forwards it as
    ``hammer_batch(..., extra_ns=act_ns)``, which costs the same
    simulated time as advancing the clock by ``count * act_ns`` per run.
    """

    name: str
    steps: Tuple[PlanStep, ...]
    act_ns: int = 0

    @property
    def total_acts(self) -> int:
        return sum(count for step in self.steps
                   for _bank, _row, count in step.acts)

    @property
    def total_wait_ns(self) -> int:
        return sum(step.wait_ns for step in self.steps)

    def targets(self) -> Tuple[Tuple[int, int], ...]:
        """Distinct ``(bank, row)`` targets, in first-use order."""
        seen: Dict[Tuple[int, int], None] = {}
        for step in self.steps:
            for bank, row, _count in step.acts:
                seen.setdefault((bank, row), None)
        return tuple(seen)

    def remap_targets(
        self, mapping: Mapping[Tuple[int, int], Tuple[int, int]],
    ) -> "CompiledPlan":
        """A copy with every ``(bank, row)`` target translated.

        This is how a relative-row plan (compiled against ``victim=0``)
        becomes absolute, and how a row-space plan becomes an
        aggressor-index plan for user-mode execution.
        """
        steps = []
        for step in self.steps:
            acts = []
            for bank, row, count in step.acts:
                try:
                    new_bank, new_row = mapping[(bank, row)]
                except KeyError:
                    raise PatternError(
                        f"plan {self.name!r}: no remapping for target "
                        f"(bank={bank}, row={row})") from None
                acts.append((new_bank, new_row, count))
            steps.append(PlanStep(tuple(acts), step.wait_ns))
        return CompiledPlan(self.name, tuple(steps), self.act_ns)


def resolve_bindings(pattern: Pattern,
                     bindings: Optional[Mapping[str, int]] = None,
                     ) -> Dict[str, int]:
    """Declared defaults + caller bindings, fully validated."""
    bindings = dict(bindings or {})
    declared = pattern.param_names()
    for name in bindings:
        if name not in declared:
            raise PatternError(
                f"pattern {pattern.name!r} has no parameter {name!r} "
                f"(declared: {', '.join(declared) or 'none'})")
    env: Dict[str, int] = {}
    for spec in pattern.params:
        if spec.name in bindings:
            value = bindings[spec.name]
        elif spec.default is not None:
            value = spec.default
        else:
            raise PatternError(
                f"pattern {pattern.name!r}: unbound placeholder "
                f"{spec.name!r} (no binding, no default)")
        if not isinstance(value, int) or isinstance(value, bool):
            raise PatternError(
                f"pattern {pattern.name!r}: binding {spec.name!r} must "
                f"be an integer, got {value!r}")
        env[spec.name] = value
    return env


def eval_expr(expr: Expr, env: Mapping[str, int]) -> int:
    """Evaluate one operand expression under ``env``."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Param):
        try:
            return env[expr.name]
        except KeyError:
            raise PatternError(
                f"unbound placeholder {expr.name!r} (declare it in the "
                "pattern header or bind it at compile time)") from None
    if isinstance(expr, BinOp):
        left = eval_expr(expr.left, env)
        right = eval_expr(expr.right, env)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise PatternError(f"cannot evaluate {type(expr).__name__} operand")


def _unroll(body, env: Mapping[str, int], name: str, depth: int,
            out: List[tuple]) -> None:
    for op in body:
        if isinstance(op, Act):
            count = eval_expr(op.count, env)
            if count < 0:
                raise PatternError(
                    f"pattern {name!r}: negative act count {count}")
            if count == 0:
                continue
            out.append(("act", eval_expr(op.bank, env),
                        eval_expr(op.row, env), count))
        elif isinstance(op, Wait):
            ns = eval_expr(op.ns, env)
            if ns < 0:
                raise PatternError(
                    f"pattern {name!r}: negative wait {ns}ns")
            if ns:
                out.append(("wait", ns))
        elif isinstance(op, Sync):
            out.append(("sync",))
        elif isinstance(op, Repeat):
            if depth + 1 > MAX_REPEAT_DEPTH:
                raise PatternError(
                    f"pattern {name!r}: repeat nested deeper than "
                    f"{MAX_REPEAT_DEPTH} levels")
            count = eval_expr(op.count, env)
            if count < 0:
                raise PatternError(
                    f"pattern {name!r}: negative repeat count {count}")
            for _ in range(count):
                _unroll(op.body, env, name, depth + 1, out)
                if len(out) > MAX_UNROLLED_OPS:
                    raise PatternError(
                        f"pattern {name!r}: unrolls past "
                        f"{MAX_UNROLLED_OPS} statements")
        else:
            raise PatternError(
                f"pattern {name!r}: unknown statement "
                f"{type(op).__name__}")
        if len(out) > MAX_UNROLLED_OPS:
            raise PatternError(
                f"pattern {name!r}: unrolls past {MAX_UNROLLED_OPS} "
                "statements")


def compile_pattern(pattern: Pattern,
                    bindings: Optional[Mapping[str, int]] = None,
                    act_ns: int = 0) -> CompiledPlan:
    """The full pipeline: resolve → unroll → coalesce → chunk."""
    if act_ns < 0:
        raise PatternError(f"act_ns must be >= 0, got {act_ns}")
    env = resolve_bindings(pattern, bindings)
    flat: List[tuple] = []
    _unroll(pattern.body, env, pattern.name, 0, flat)

    steps: List[PlanStep] = []
    acts: List[Tuple[int, int, int]] = []
    pending_wait = 0

    def close_step() -> None:
        nonlocal acts, pending_wait
        if acts or pending_wait:
            steps.append(PlanStep(tuple(acts), pending_wait))
        acts = []
        pending_wait = 0

    for op in flat:
        if op[0] == "act":
            _tag, bank, row, count = op
            if bank < 0:
                raise PatternError(
                    f"pattern {pattern.name!r}: negative bank {bank}")
            if acts and acts[-1][0] == bank and acts[-1][1] == row:
                acts[-1] = (bank, row, acts[-1][2] + count)
            else:
                acts.append((bank, row, count))
        elif op[0] == "wait":
            # A wait ends the step: runs replay first, then the wait.
            pending_wait += op[1]
            close_step()
        else:  # sync
            close_step()
    close_step()

    if not steps:
        raise PatternError(
            f"pattern {pattern.name!r} compiles to an empty plan")
    return CompiledPlan(pattern.name, tuple(steps), act_ns)
