"""Whole-program flow rules RPR009–RPR014.

Each rule is the static shadow of a runtime invariant the differential
test suite checks dynamically (DESIGN.md §9 maps them one-to-one):

* RPR009 — trace purity: nothing reachable from a trace/span payload may
  read the simulated clock or draw randomness (trace-on ≡ trace-off).
* RPR010 — RNG provenance: every ``random.Random`` flows from
  ``repro.rng.derive_rng``, even through alias / attribute laundering.
* RPR011 — snapshot safety: cross-object wrappers (installed closures,
  stored bound methods) must belong to a class ``Machine.snapshot``
  uninstalls, or be cleared by a registered class's ``uninstall``.
* RPR012 — sweep picklability: worker-pool callables must be top-level
  functions that do not read globals mutated outside module init.
* RPR013 — tracker layering: ``Tracker`` subclasses observe through the
  ``ActivationFeed`` and actuate through queued refreshes only; calling
  into (or constructing) ``DramModule``/``BankState`` from tracker code
  collapses the observation/policy/actuation layering.
* RPR014 — pattern-compile purity: nothing reachable from the pattern
  DSL's compile surface (``patterns/lang.py``, ``patterns/parser.py``,
  ``patterns/compile.py``) may read the simulated clock or draw
  randomness outside ``derive_rng`` — compiling a pattern twice must
  be indistinguishable from compiling it once.

Rules subclass :class:`FlowRule` and register with
``@register_rule(kind="flow")`` — the same registry the shallow rules
use, so ``--list-rules`` and rule-ID selection see one namespace.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set, Tuple

from ..framework import (
    Finding,
    filter_suppressed,
    make_rules,
    path_matches,
    register_rule,
)
from .callgraph import FunctionFacts, Program
from .taint import chain_to, closure_from

__all__ = [
    "FlowRule",
    "TracePurityRule",
    "RngProvenanceRule",
    "SnapshotSafetyRule",
    "SweepPicklabilityRule",
    "TrackerLayeringRule",
    "PatternPurityRule",
    "flow_rules",
    "run_flow_rules",
]


class FlowRule:
    """Base class for one whole-program rule.

    Unlike :class:`~repro.checkers.framework.LintRule` (one file at a
    time), a flow rule sees the entire :class:`Program` at once and
    implements :meth:`check_program`.
    """

    rule_id: str = "RPR000"
    description: str = ""
    #: Files (exact) / directories (trailing ``/``) exempt from findings.
    allowed_paths: Tuple[str, ...] = ()

    def check_program(self, program: Program) -> Iterable[Finding]:
        raise NotImplementedError

    def exempt(self, rel_path: str) -> bool:
        return path_matches(rel_path, self.allowed_paths)

    def finding(self, facts: FunctionFacts, line: int, col: int,
                message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=facts.fn.rel_path,
            line=line,
            col=col,
            message=message,
            symbol=facts.fn.qname,
        )


@register_rule(kind="flow")
class TracePurityRule(FlowRule):
    """RPR009: trace payloads must not reach the clock or any RNG."""

    rule_id = "RPR009"
    description = ("functions reachable from a trace/span payload must "
                   "not read SimClock or draw randomness "
                   "(static trace-on ≡ trace-off)")
    allowed_paths = ("tests/",)
    #: The trace hub legitimately timestamps events — it neither reports
    #: nor propagates (reachability stops at its module boundary).
    trace_paths: Tuple[str, ...] = ("repro/trace/",)

    def check_program(self, program: Program) -> Iterable[Finding]:
        findings: List[Finding] = []
        for facts in program.facts.values():
            if self.exempt(facts.fn.rel_path) or \
                    path_matches(facts.fn.rel_path, self.trace_paths):
                continue
            for emission in facts.emissions:
                findings.extend(self._check_emission(program, facts, emission))
        return findings

    def _check_emission(self, program: Program, facts: FunctionFacts,
                        emission) -> Iterable[Finding]:
        out: List[Finding] = []
        for desc in emission.direct_clock:
            out.append(self.finding(
                facts, emission.line, emission.col,
                f"payload of {emission.method}() reads the simulated "
                f"clock ({desc.split(' at line')[0]}); compute the value "
                "before the guarded emit"))
        for desc in emission.direct_rng:
            out.append(self.finding(
                facts, emission.line, emission.col,
                f"payload of {emission.method}() draws randomness "
                f"({desc.split(' at line')[0]}); tracing must not "
                "perturb RNG streams"))
        parents = closure_from(
            program, emission.payload_internal, stop_paths=self.trace_paths)
        for qname in sorted(parents):
            reached = program.function_facts(qname)
            if reached is None:
                continue
            if path_matches(reached.fn.rel_path, self.trace_paths):
                continue
            hazards: List[str] = []
            if reached.clock_reads:
                hazards.append(reached.clock_reads[0][1])
            if reached.rng_uses:
                hazards.append(reached.rng_uses[0][1])
            if not hazards:
                continue
            chain = " -> ".join(chain_to(parents, qname))
            out.append(self.finding(
                facts, emission.line, emission.col,
                f"payload of {emission.method}() reaches {qname} which "
                f"{'; '.join(hazards)} (via {chain}); trace-on must be "
                "bit-identical to trace-off"))
        return out


@register_rule(kind="flow")
class RngProvenanceRule(FlowRule):
    """RPR010: ``random.Random`` may only be constructed in ``rng.py``."""

    rule_id = "RPR010"
    description = ("random.Random must flow from repro.rng.derive_rng — "
                   "construction elsewhere (even via aliases or stored "
                   "factories) breaks seed-derivation provenance")
    #: The derivation module itself, wherever the package root sits.
    allowed_paths = ("rng.py", "tests/")

    def check_program(self, program: Program) -> Iterable[Finding]:
        findings: List[Finding] = []
        for facts in program.facts.values():
            if self.exempt(facts.fn.rel_path):
                continue
            for line, col, dotted in facts.external_calls:
                if not self._is_rng_constructor(dotted):
                    continue
                findings.append(self.finding(
                    facts, line, col,
                    f"constructs {dotted} directly; all RNG streams must "
                    "come from repro.rng.derive_rng so seeds stay "
                    "derivable and disjoint"))
        return findings

    @staticmethod
    def _is_rng_constructor(dotted: str) -> bool:
        if dotted.split(".")[0] != "random":
            return False
        tail = dotted.rsplit(".", 1)[-1]
        return tail in ("Random", "SystemRandom", "seed")


@register_rule(kind="flow")
class SnapshotSafetyRule(FlowRule):
    """RPR011: cross-object wrappers must be snapshot-registered."""

    rule_id = "RPR011"
    description = ("closures/bound methods installed across object "
                   "boundaries must belong to a class Machine.snapshot "
                   "uninstalls (or be cleared by a registered uninstall)")
    allowed_paths = ("tests/",)

    def check_program(self, program: Program) -> Iterable[Finding]:
        registered = self._registered_classes(program)
        if registered is None:
            # No Machine.snapshot in the program: nothing to check
            # against (fixture packages opt in by defining one).
            return []
        registered_classes, cleared_attrs = registered
        findings: List[Finding] = []
        for facts in program.facts.values():
            if self.exempt(facts.fn.rel_path):
                continue
            for install in facts.wrapper_installs:
                if install.target_is_self and \
                        install.value_kind != "foreign_method":
                    # A pure self-closure deepcopies with its holder.
                    continue
                owner = facts.fn.cls
                if owner is not None and owner in registered_classes:
                    continue
                if install.target_attr in cleared_attrs:
                    continue
                where = ("on itself" if install.target_is_self
                         else f"on a foreign object's .{install.target_attr}")
                findings.append(self.finding(
                    facts, install.line, install.col,
                    f"stores a {install.value_kind.replace('_', ' ')} "
                    f"{where} but {owner or facts.fn.qname} is not "
                    "uninstalled by Machine.snapshot and no registered "
                    "uninstall clears it; deepcopy would freeze a stale "
                    "wrapper"))
        return findings

    def _registered_classes(
        self, program: Program,
    ) -> Optional[Tuple[Set[str], Set[str]]]:
        """(classes snapshot uninstalls, attrs their uninstalls clear)."""
        snapshot_facts: List[FunctionFacts] = []
        for facts in program.facts.values():
            fn = facts.fn
            if fn.name == "snapshot" and fn.cls is not None and \
                    fn.cls.rsplit(".", 1)[-1] == "Machine":
                snapshot_facts.append(facts)
        if not snapshot_facts:
            return None
        registered: Set[str] = set()
        for facts in snapshot_facts:
            machine_cls = program.table.class_info(facts.fn.cls)
            for method, tail in facts.lifecycle_calls:
                if method != "uninstall":
                    continue
                registered.update(
                    program.global_attr_instances.get(tail, ()))
                if machine_cls is not None:
                    registered.update(
                        machine_cls.attr_types.get(tail, ()))
        cleared: Set[str] = set()
        for cls_qname in registered:
            uninstall = program.function_facts(f"{cls_qname}.uninstall")
            if uninstall is not None:
                cleared.update(uninstall.attr_set_names)
        return registered, cleared


@register_rule(kind="flow")
class SweepPicklabilityRule(FlowRule):
    """RPR012: pool workers must be top-level and capture-free."""

    rule_id = "RPR012"
    description = ("callables handed to worker pools must be top-level "
                   "functions that do not read globals mutated outside "
                   "module init (parallel ≡ serial)")
    allowed_paths = ("tests/",)

    _KIND_REASONS = {
        "lambda": "a lambda cannot be pickled to worker processes",
        "nested": "a nested function cannot be pickled to worker "
                  "processes",
        "bound_method": "a bound method drags its whole instance "
                        "through pickle",
        "method": "an unbound method is not importable by workers",
    }

    def check_program(self, program: Program) -> Iterable[Finding]:
        findings: List[Finding] = []
        for facts in program.facts.values():
            if self.exempt(facts.fn.rel_path):
                continue
            for sub in facts.pool_submissions:
                reason = self._reject(program, sub)
                if reason is None:
                    continue
                findings.append(self.finding(
                    facts, sub.line, sub.col,
                    f"{sub.api} worker {sub.display!r}: {reason}"))
        return findings

    def _reject(self, program: Program, sub) -> Optional[str]:
        if sub.kind in self._KIND_REASONS:
            return self._KIND_REASONS[sub.kind]
        if sub.kind != "toplevel" or sub.qname is None:
            return None  # unresolved: stay bounded, no guess
        worker = program.function_facts(sub.qname)
        if worker is None:
            return None
        mutated = program.mutated_globals.get(worker.fn.module, set())
        captured = sorted(worker.global_reads & mutated)
        if captured:
            return (f"top-level but reads module globals mutated after "
                    f"init ({', '.join(captured)}); worker processes "
                    "would see a stale copy")
        return None


@register_rule(kind="flow")
class TrackerLayeringRule(FlowRule):
    """RPR013: trackers see DRAM only through the activation feed."""

    rule_id = "RPR013"
    description = ("Tracker subclasses must not call into or construct "
                   "DramModule/BankState; policy code observes via the "
                   "ActivationFeed and actuates via queued refreshes only")
    allowed_paths = ("tests/",)
    #: Class tails a tracker must never reach (the substrate the feed
    #: and actuator encapsulate).
    forbidden_tails: Tuple[str, ...] = ("DramModule", "BankState")

    def check_program(self, program: Program) -> Iterable[Finding]:
        tracker_classes = self._tracker_classes(program)
        if not tracker_classes:
            return []
        findings: List[Finding] = []
        for facts in program.facts.values():
            if self.exempt(facts.fn.rel_path):
                continue
            if facts.fn.cls not in tracker_classes:
                continue
            line = facts.fn.node.lineno
            col = facts.fn.node.col_offset
            for qname in sorted(facts.calls):
                owner = self._owning_class_tail(program, qname)
                if owner in self.forbidden_tails:
                    findings.append(self.finding(
                        facts, line, col,
                        f"tracker method calls {qname} ({owner} internals);"
                        " trackers observe through the ActivationFeed and "
                        "actuate through queue_refresh only"))
            for cls_qname in sorted(facts.constructs):
                if cls_qname.rsplit(".", 1)[-1] in self.forbidden_tails:
                    findings.append(self.finding(
                        facts, line, col,
                        f"tracker method constructs {cls_qname}; the DRAM "
                        "substrate belongs to the observation layer, not "
                        "the tracking policy"))
        return findings

    def _tracker_classes(self, program: Program) -> Set[str]:
        """Qnames of every class that (transitively) subclasses Tracker."""
        from .symbols import ClassInfo

        table = program.table
        verdicts: dict = {}

        def is_tracker(cls_info, seen: Set[str]) -> bool:
            if cls_info.qname in verdicts:
                return verdicts[cls_info.qname]
            if cls_info.qname in seen:
                return False
            seen.add(cls_info.qname)
            result = cls_info.name == "Tracker"
            if not result:
                for base in cls_info.bases:
                    if base.rsplit(".", 1)[-1] == "Tracker":
                        result = True
                        break
                    resolved = table.resolve(cls_info.module, base)
                    if isinstance(resolved, ClassInfo) and \
                            is_tracker(resolved, seen):
                        result = True
                        break
            verdicts[cls_info.qname] = result
            return result

        out: Set[str] = set()
        for module in table.modules.values():
            for cls_info in module.classes.values():
                if is_tracker(cls_info, set()) and \
                        cls_info.name != "Tracker":
                    out.add(cls_info.qname)
        return out

    @staticmethod
    def _owning_class_tail(program: Program, qname: str) -> Optional[str]:
        info = program.table.function(qname)
        if info is None or info.cls is None:
            return None
        return info.cls.rsplit(".", 1)[-1]


@register_rule(kind="flow")
class PatternPurityRule(FlowRule):
    """RPR014: the pattern DSL's compile path must be effect-free."""

    rule_id = "RPR014"
    description = ("nothing reachable from the pattern DSL compile "
                   "surface (patterns/{lang,parser,compile}.py) may read "
                   "SimClock or draw RNG outside derive_rng — compile is "
                   "a pure function of source + bindings")
    allowed_paths = ("tests/",)
    #: The compile-time surface of the DSL: every function defined in
    #: these modules seeds the reachability closure.  Execution-side
    #: modules (``program.py``, ``scenario.py``, ``fuzz.py``) schedule
    #: real time and randomness by design and are deliberately absent.
    compile_paths: Tuple[str, ...] = (
        "patterns/lang.py", "patterns/parser.py", "patterns/compile.py")
    #: The seed-derivation module is the sanctioned RNG construction
    #: site (mirrors RPR010's exemption): reachability stops at its
    #: boundary and its body is not a hazard.
    derivation_paths: Tuple[str, ...] = ("rng.py",)

    def check_program(self, program: Program) -> Iterable[Finding]:
        seeds = self._seed_functions(program)
        if not seeds:
            return []
        parents = closure_from(
            program, seeds, stop_paths=self.derivation_paths)
        findings: List[Finding] = []
        for qname in sorted(parents):
            facts = program.function_facts(qname)
            if facts is None or self.exempt(facts.fn.rel_path):
                continue
            if path_matches(facts.fn.rel_path, self.derivation_paths):
                continue
            for line, desc in self._hazards(facts):
                chain = " -> ".join(chain_to(parents, qname))
                findings.append(self.finding(
                    facts, line, facts.fn.node.col_offset,
                    f"pattern compile path {desc} (via {chain}); "
                    "compilation must be a pure function of source and "
                    "bindings — time and randomness belong to plan "
                    "execution, not plan construction"))
        return findings

    def _seed_functions(self, program: Program) -> Set[str]:
        out: Set[str] = set()
        for facts in program.facts.values():
            rel = facts.fn.rel_path
            if self.exempt(rel):
                continue
            if path_matches(rel, self.compile_paths):
                out.add(facts.fn.qname)
        return out

    @staticmethod
    def _hazards(facts: FunctionFacts) -> List[Tuple[int, str]]:
        out: List[Tuple[int, str]] = list(facts.clock_reads)
        for line, desc in facts.rng_uses:
            if "derive_rng" in desc:
                # The sanctioned entry point: deriving a named stream is
                # deterministic in its arguments, so it keeps compile
                # pure even though it constructs an RNG.
                continue
            out.append((line, desc))
        return out


def flow_rules() -> Tuple[FlowRule, ...]:
    """Fresh instances of every registered flow rule, ID order."""
    return make_rules("flow")  # type: ignore[return-value]


def run_flow_rules(
    program: Program,
    rules: Optional[Iterable[FlowRule]] = None,
) -> List[Finding]:
    """Run flow ``rules`` over ``program``; suppressions honoured."""
    chosen = tuple(rules) if rules is not None else flow_rules()
    findings: List[Finding] = []
    for rule in chosen:
        findings.extend(rule.check_program(program))
    findings = filter_suppressed(findings, program.suppressions_by_path())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings
