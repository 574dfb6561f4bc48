"""The repo-specific lint rules (RPR001..RPR008).

Each rule encodes an invariant the simulation's correctness argument
rests on:

* **RPR001** — no wall-clock. Every duration in the reproduction is
  simulated time on :class:`repro.clock.SimClock`; one stray
  ``time.perf_counter()`` makes runs machine-dependent.
* **RPR002** — no direct ``import random``. Randomness must flow from
  :mod:`repro.rng` (or an injected generator) so results are a pure
  function of the seed.
* **RPR003** — no raw bit-51 / reserved-mask literals. The trace bit is
  architecture knowledge owned by :mod:`repro.mmu.bits`; a duplicated
  literal silently diverges when the constant changes.
* **RPR004** — no ``write_entry`` calls outside the MMU and the tracer.
  Page-table stores must go through :meth:`repro.mmu.mmu.Mmu.write_pte`
  (or ``pt_ops`` within ``mmu/``) so the runtime sanitizers sit on a
  single choke point.
* **RPR005** — ``__all__`` consistency for every package
  ``__init__.py``: the export list exists, is a literal, names only
  bound symbols, and covers every public top-level binding.
* **RPR006** — no direct ``Kernel(...)`` / ``DramModule(...)``
  construction outside :mod:`repro.machine`. The facade is the one
  sanctioned assembly path (defense frame policies, sanitizer
  strictness, warm-up semantics all live there); a hand-wired kernel
  silently skips those steps. Unit tests keep direct access — they
  exercise layers in isolation by design.
* **RPR007** — no monkeypatching of :class:`KernelTimers` /
  :class:`HookManager` delivery methods outside :mod:`repro.faults`.
  Fault injection goes through the sanctioned injector so that wrapper
  stacking, snapshot ordering and the ``faults`` counter namespace stay
  coherent; an ad-hoc wrapper breaks all three silently.
* **RPR008** — no direct metric mutation (``.inc()`` / ``.observe()`` /
  ``.set_gauge()``, or writes into a registry's internal tables)
  outside :mod:`repro.trace`.  Instrumented layers report through
  ``self.trace.emit(...)`` / span begin-end pairs; a hand-bumped
  counter bypasses the hub's level gating and ring buffer, so the
  same run would diverge between trace levels.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Sequence, Set

from ..mmu import bits
from .framework import (
    Finding,
    LintContext,
    LintRule,
    make_rules,
    register_rule,
)

#: Wall-clock reads (and sleeps) that would leak host time into a run.
_WALL_CLOCK_NAMES = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
    "sleep",
})

_RSVD_VALUE = bits.PTE_RSVD_TRACE
_RESERVED_MASK_VALUE = bits.PTE_RESERVED_MASK
_RSVD_BIT_INDEX = bits.PTE_RSVD_TRACE.bit_length() - 1


@register_rule
class WallClockRule(LintRule):
    """RPR001: wall-clock time is only legal inside ``repro/clock.py``."""

    rule_id = "RPR001"
    description = "no wall-clock (time.time/perf_counter) outside clock.py"
    interests = (ast.Import, ast.ImportFrom, ast.Attribute)
    # repro/bench/ measures *host* throughput of the simulator itself
    # (activations per wall-second); repro/fleet/ supervises worker
    # processes in host time (per-cell timeouts, retry backoff, test
    # pacing) and keeps wall clocks out of its records by contract.
    # Both places wall time is the mechanism, not a contaminant.
    allowed_paths = ("repro/clock.py", "repro/bench/", "repro/fleet/")

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    yield self.finding(
                        ctx, node,
                        "import of the wall-clock 'time' module; use "
                        "repro.clock.SimClock for simulated time",
                    )
        elif isinstance(node, ast.ImportFrom):
            if node.module == "time" and node.level == 0:
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_NAMES or alias.name == "*":
                        yield self.finding(
                            ctx, node,
                            f"wall-clock import 'time.{alias.name}'; use "
                            "repro.clock.SimClock for simulated time",
                        )
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "time"
                and node.attr in _WALL_CLOCK_NAMES
            ):
                yield self.finding(
                    ctx, node,
                    f"wall-clock read 'time.{node.attr}'; use "
                    "repro.clock.SimClock for simulated time",
                )


@register_rule
class UnseededRandomRule(LintRule):
    """RPR002: ``import random`` is only legal inside ``repro/rng.py``."""

    rule_id = "RPR002"
    description = "no direct 'import random' outside repro/rng.py"
    interests = (ast.Import, ast.ImportFrom)
    allowed_paths = ("repro/rng.py",)

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module] if node.level == 0 else []
        if "random" in names:
            yield self.finding(
                ctx, node,
                "direct 'import random'; derive a seeded generator with "
                "repro.rng.derive_rng or accept an injected rng.Random",
            )


@register_rule
class RawBitLiteralRule(LintRule):
    """RPR003: bit-51/reserved-mask literals live in ``repro/mmu/bits.py``."""

    rule_id = "RPR003"
    description = "no raw bit-51 / reserved-mask literals outside mmu/bits.py"
    interests = (ast.Constant, ast.BinOp)
    allowed_paths = ("repro/mmu/bits.py",)

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        if isinstance(node, ast.Constant):
            if node.value is True or node.value is False:
                return
            if node.value == _RSVD_VALUE:
                yield self.finding(
                    ctx, node,
                    "raw bit-51 literal; use repro.mmu.bits.PTE_RSVD_TRACE",
                )
            elif node.value == _RESERVED_MASK_VALUE:
                yield self.finding(
                    ctx, node,
                    "raw reserved-mask literal; use "
                    "repro.mmu.bits.PTE_RESERVED_MASK",
                )
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.LShift):
            if (
                isinstance(node.right, ast.Constant)
                and node.right.value == _RSVD_BIT_INDEX
            ):
                yield self.finding(
                    ctx, node,
                    "shift to the reserved trace bit; use "
                    "repro.mmu.bits.PTE_RSVD_TRACE",
                )


@register_rule
class WriteEntryRule(LintRule):
    """RPR004: ``write_entry`` calls are restricted to the MMU layer.

    The tracer keeps its direct access (it *is* the arm/disarm path the
    sanitizers reason about), and the sanitizers themselves wrap the
    method; everyone else goes through :meth:`Mmu.write_pte` so a single
    choke point sees every architectural page-table store.
    """

    rule_id = "RPR004"
    description = "no PageTable.write_entry callers outside mmu/ and the tracer"
    interests = (ast.Call,)
    allowed_paths = (
        "repro/mmu/",
        "repro/core/tracer.py",
        "repro/checkers/sanitizers.py",
    )

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "write_entry":
            yield self.finding(
                ctx, node,
                "direct write_entry call; go through Mmu.write_pte so the "
                "sanitizer choke point sees the store",
            )


@register_rule
class ExportConsistencyRule(LintRule):
    """RPR005: package ``__init__.py`` exports are complete and bound."""

    rule_id = "RPR005"
    description = "__all__ must exist, be literal, bound and complete"

    def applies_to(self, ctx: LintContext) -> bool:
        return ctx.is_package_init

    def check_module(self, ctx: LintContext) -> Iterable[Finding]:
        tree = ctx.tree
        bound: Set[str] = set()
        star_import = False
        all_node = None
        all_names: List[str] = []
        all_literal = True
        for stmt in tree.body:
            for name in _bound_names(stmt):
                if name == "*":
                    star_import = True
                else:
                    bound.add(name)
            target = _all_assignment(stmt)
            if target is not None:
                all_node = stmt
                names, literal = target
                all_names = names
                all_literal = literal
        if all_node is None:
            yield Finding(
                rule_id=self.rule_id, path=ctx.rel_path, line=1, col=0,
                message="package __init__ defines no __all__",
            )
            return
        if not all_literal:
            yield self.finding(
                ctx, all_node,
                "__all__ must be a literal list/tuple of strings",
            )
            return
        seen: Set[str] = set()
        for name in all_names:
            if name in seen:
                yield self.finding(
                    ctx, all_node, f"__all__ lists {name!r} twice")
            seen.add(name)
            if name not in bound and not star_import:
                yield self.finding(
                    ctx, all_node,
                    f"__all__ exports {name!r} which is not bound at "
                    "module level",
                )
        for name in sorted(bound):
            if name.startswith("_"):
                continue
            if name not in seen:
                yield self.finding(
                    ctx, all_node,
                    f"public name {name!r} is bound but missing from __all__",
                )


@register_rule
class MachineAssemblyRule(LintRule):
    """RPR006: machines are assembled through :mod:`repro.machine`.

    ``Kernel(spec)`` wired by hand skips the facade's assembly steps
    (defense frame-policy injection, sanitizer strictness, install
    warm-up semantics), so direct construction of :class:`Kernel` or
    :class:`DramModule` is restricted to the machine layer itself,
    ``repro/config.py`` (``build_dram``, the spec-to-DRAM factory) and
    unit tests, which take layers apart on purpose.
    """

    rule_id = "RPR006"
    description = ("no direct Kernel()/DramModule() construction outside "
                   "repro.machine")
    interests = (ast.Call,)
    allowed_paths = (
        "repro/machine/",
        "repro/config.py",
        "tests/",
    )

    _CONSTRUCTORS = frozenset({"Kernel", "DramModule"})

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return
        if name in self._CONSTRUCTORS:
            yield self.finding(
                ctx, node,
                f"direct {name}() construction; assemble through "
                "repro.machine.Machine (or Machine.from_parts)",
            )


@register_rule
class FaultChokePointRule(LintRule):
    """RPR007: timer/hook delivery is wrapped only by ``repro.faults``.

    The fault injector owns the choke points (``KernelTimers._fire`` /
    ``run_pending``, ``HookManager.notify`` / ``dispatch``): it wraps
    them with a known stacking order relative to the sanitizers and
    unwinds them around snapshots.  Assigning over those methods (or
    ``setattr``-ing them) anywhere else installs an untracked wrapper
    that snapshots would capture as an "original" and replay dangling.
    Tests keep the access — they exercise the seams on purpose.
    """

    rule_id = "RPR007"
    description = ("no monkeypatching of KernelTimers/HookManager delivery "
                   "methods outside repro.faults")
    interests = (ast.Assign, ast.Call)
    allowed_paths = (
        "repro/faults/",
        "tests/",
    )

    #: Delivery-layer attributes whose rebinding is the injector's
    #: monopoly.  Generic names (register/unregister/cancel) are left
    #: out — too many unrelated objects carry them.
    _CHOKE_METHODS = frozenset({
        "run_pending", "_fire", "add_periodic", "add_oneshot",
        "cancel_all", "notify", "dispatch", "hooked", "unregister_all",
        "hook", "unhook",
    })

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and target.attr in self._CHOKE_METHODS):
                    yield self.finding(
                        ctx, node,
                        f"assignment over delivery method "
                        f"'.{target.attr}'; fault injection must go "
                        "through repro.faults.FaultInjector",
                    )
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "setattr"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value in self._CHOKE_METHODS):
                yield self.finding(
                    ctx, node,
                    f"setattr over delivery method "
                    f"{node.args[1].value!r}; fault injection must go "
                    "through repro.faults.FaultInjector",
                )


@register_rule
class MetricMutationRule(LintRule):
    """RPR008: metric mutation is :mod:`repro.trace`'s monopoly.

    Mirrors RPR007's choke-point discipline for the telemetry layer:
    every counter bump, histogram observation and gauge write flows
    through :class:`~repro.trace.TraceHub` (``emit`` / ``span_begin`` /
    ``span_end``), which applies level gating and keeps the event ring
    consistent with the metrics.  A direct ``registry.counter(x).inc()``
    elsewhere records state the ring never saw — trace-level runs stop
    agreeing with each other.  Tests keep direct access to exercise the
    instruments in isolation.
    """

    rule_id = "RPR008"
    description = ("no direct metric mutation (inc/observe/set_gauge) "
                   "outside repro.trace")
    interests = (ast.Call, ast.Assign, ast.AugAssign)
    allowed_paths = (
        "repro/trace/",
        "tests/",
    )

    _MUTATORS = frozenset({"inc", "observe", "set_gauge"})
    _INTERNAL_TABLES = frozenset({"_counters", "_gauges", "_histograms"})

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in self._MUTATORS:
                yield self.finding(
                    ctx, node,
                    f"direct metric mutation '.{func.attr}(...)'; report "
                    "through the trace hub (trace.emit / span_begin / "
                    "span_end) so level gating stays coherent",
                )
            return
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target])
        for target in targets:
            if (isinstance(target, ast.Subscript)
                    and isinstance(target.value, ast.Attribute)
                    and target.value.attr in self._INTERNAL_TABLES):
                yield self.finding(
                    ctx, node,
                    f"write into registry internals "
                    f"'.{target.value.attr}[...]'; instruments are "
                    "created through MetricsRegistry.counter/gauge/"
                    "histogram only",
                )


def _bound_names(stmt: ast.stmt) -> Iterable[str]:
    """Names a top-level statement binds (``*`` for a star import)."""
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            yield alias.asname or alias.name.split(".")[0]
    elif isinstance(stmt, ast.ImportFrom):
        for alias in stmt.names:
            yield "*" if alias.name == "*" else (alias.asname or alias.name)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        yield stmt.name
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            yield from _target_names(target)
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        if stmt.value is not None:
            yield stmt.target.id
    elif isinstance(stmt, (ast.If, ast.Try)):
        for body in _nested_bodies(stmt):
            for sub in body:
                yield from _bound_names(sub)


def _nested_bodies(stmt: ast.stmt):
    if isinstance(stmt, ast.If):
        yield stmt.body
        yield stmt.orelse
    elif isinstance(stmt, ast.Try):
        yield stmt.body
        yield stmt.orelse
        yield stmt.finalbody
        for handler in stmt.handlers:
            yield handler.body


def _target_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)


def _all_assignment(stmt: ast.stmt):
    """(names, is_literal) if ``stmt`` assigns ``__all__``, else None."""
    value = None
    if isinstance(stmt, ast.Assign):
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in stmt.targets):
            value = stmt.value
    elif (isinstance(stmt, ast.AnnAssign)
          and isinstance(stmt.target, ast.Name)
          and stmt.target.id == "__all__"):
        value = stmt.value
    if value is None:
        return None
    if not isinstance(value, (ast.List, ast.Tuple)):
        return [], False
    names: List[str] = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            names.append(element.value)
        else:
            return [], False
    return names, True


def default_rules() -> Sequence[LintRule]:
    """Fresh instances of every shallow rule, in rule-ID order.

    Reads the shared registry in :mod:`repro.checkers.framework` — the
    same one the flow pass registers into — so this module's only
    registration boilerplate is the ``@register_rule`` decorator.
    """
    return make_rules("shallow")
