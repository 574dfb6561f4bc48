"""Call graph + per-function facts over the symbol table.

One scan per function produces a :class:`FunctionFacts` record: resolved
call edges (methods bound through the class layout, collaborators bound
through a bounded alias analysis of ``self.x = Collaborator(...)``
attributes), trace-emission sites with their payload callees, clock/RNG
touch points, wrapper installs over foreign attributes, and module-global
reads/writes.  :class:`Program` bundles the table, the facts and the
cross-cutting indexes the flow rules (RPR009–RPR014) consume.

Everything here is deliberately *bounded*: no fixpoint iteration beyond
two alias passes, no flow joins, no heap model.  Unresolvable calls stay
unresolved rather than over-approximated, so the rules err toward
missing an exotic construction instead of drowning the tree in false
positives — the same trade the per-file lint makes.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from ..framework import SourceFile
from .symbols import (
    ClassInfo,
    External,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
)

__all__ = [
    "CLOCK_READ_ATTRS",
    "CLOCK_MUTATOR_METHODS",
    "RNG_METHODS",
    "Emission",
    "FunctionFacts",
    "PoolSubmission",
    "Program",
    "WrapperInstall",
]

#: Attribute loads that constitute reading the simulated clock.
CLOCK_READ_ATTRS = frozenset({"now_ns", "now_ms"})
#: Method calls that mutate the simulated clock.
CLOCK_MUTATOR_METHODS = frozenset({"advance", "advance_to"})
#: ``random.Random`` draw methods: any call advances the stream.
RNG_METHODS = frozenset({
    "random", "randint", "randrange", "getrandbits", "randbytes",
    "shuffle", "sample", "choice", "choices", "uniform", "gauss",
    "normalvariate", "lognormvariate", "expovariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "betavariate", "gammavariate",
    "triangular",
})
#: Worker-pool submission methods (multiprocessing / concurrent.futures).
POOL_METHODS = frozenset({
    "map", "imap", "imap_unordered", "starmap", "map_async",
    "starmap_async", "apply", "apply_async", "submit",
})
_TRACE_EMIT_METHODS = frozenset({"emit", "emit_at", "span_begin", "span_end"})
#: Builder-style methods assumed to return ``self`` for type chaining
#: (``FaultInjector(kernel, plan).install()``).
_CHAINING_METHODS = frozenset({"install", "replace"})
_BUILTIN_NAMES = frozenset(dir(builtins))


# -------------------------------------------------- inferred value tags
@dataclass(frozen=True)
class _Instance:
    """Value known to be an instance of one of ``classes`` (qnames)."""

    classes: frozenset


@dataclass(frozen=True)
class _ExternalInstance:
    """Value known to be an instance of an external class."""

    dotted: str


@dataclass(frozen=True)
class _Ref:
    """Reference to a resolved symbol (not yet called)."""

    symbol: object  # FunctionInfo | ClassInfo | ModuleInfo | External


@dataclass(frozen=True)
class _LocalFunc:
    """A function defined locally in the scanned function's body."""

    name: str


# ----------------------------------------------------------- fact types
@dataclass
class Emission:
    """One ``trace.emit`` / ``span_begin`` / ``span_end`` call site."""

    line: int
    col: int
    method: str
    #: Program functions invoked inside the payload arguments.
    payload_internal: Set[str] = field(default_factory=set)
    #: External callables invoked inside the payload arguments.
    payload_external: Set[str] = field(default_factory=set)
    #: Attribute calls in the payload we could not bind.
    payload_unresolved: Set[str] = field(default_factory=set)
    #: Clock reads / RNG draws directly in the payload expression.
    direct_clock: List[str] = field(default_factory=list)
    direct_rng: List[str] = field(default_factory=list)


@dataclass
class WrapperInstall:
    """One closure / bound-method stored through an attribute."""

    line: int
    col: int
    target_attr: str
    #: Whether the store target is ``self.<attr>`` (holder pattern) or a
    #: foreign object's attribute (installer pattern).
    target_is_self: bool
    #: ``closure`` | ``bound_self_method`` | ``foreign_method``
    value_kind: str
    value_qname: Optional[str] = None


@dataclass
class PoolSubmission:
    """One callable handed to a worker pool / process constructor."""

    line: int
    col: int
    api: str
    #: ``toplevel`` | ``nested`` | ``lambda`` | ``bound_method`` |
    #: ``method`` | ``unresolved``
    kind: str
    qname: Optional[str] = None
    display: str = ""


@dataclass
class FunctionFacts:
    """Everything the flow rules need to know about one function."""

    fn: FunctionInfo
    calls: Set[str] = field(default_factory=set)
    constructs: Set[str] = field(default_factory=set)
    #: (line, col, dotted) for calls leaving the program.
    external_calls: List[Tuple[int, int, str]] = field(default_factory=list)
    unresolved_calls: Set[str] = field(default_factory=set)
    clock_reads: List[Tuple[int, str]] = field(default_factory=list)
    rng_uses: List[Tuple[int, str]] = field(default_factory=list)
    emissions: List[Emission] = field(default_factory=list)
    wrapper_installs: List[WrapperInstall] = field(default_factory=list)
    #: Attribute names this function assigns (any receiver) — the
    #: snapshot rule checks ``uninstall`` bodies restore wrapped attrs.
    attr_set_names: Set[str] = field(default_factory=set)
    #: ``install``/``uninstall`` calls: (method, receiver attr tail).
    lifecycle_calls: List[Tuple[str, str]] = field(default_factory=list)
    global_reads: Set[str] = field(default_factory=set)
    global_writes: Set[str] = field(default_factory=set)
    pool_submissions: List[PoolSubmission] = field(default_factory=list)


# --------------------------------------------------------------- program
class Program:
    """A whole analysed package: symbols, call graph, rule indexes."""

    def __init__(self, table: SymbolTable) -> None:
        self.table = table
        self.facts: Dict[str, FunctionFacts] = {}
        #: attribute name -> program classes ever stored through it
        #: (``kernel.sanitizers = self`` inside ``SanitizerManager``).
        self.global_attr_instances: Dict[str, Set[str]] = {}
        #: module name -> module globals rebound outside module init.
        self.mutated_globals: Dict[str, Set[str]] = {}

    # ------------------------------------------------------------ build
    @classmethod
    def from_sources(
            cls, sources: Sequence[Tuple[SourceFile, str]]) -> "Program":
        """Analyse pre-parsed ``(source_file, module_name)`` pairs.

        This is the AST-cache entry point: ``repro-lint --deep`` hands
        the very SourceFile objects the shallow pass already walked.
        """
        table = SymbolTable.build(sources)
        program = cls(table)
        # Two bounded alias passes: the first discovers attribute types
        # (``self.x = Collaborator(...)``), the second re-scans with the
        # discovered types available so attribute-hop calls bind.
        for final in (False, True):
            program.global_attr_instances = {}
            program.mutated_globals = {}
            for fn in table.all_functions():
                facts = _FunctionScanner(program, fn).scan()
                if final:
                    program.facts[fn.qname] = facts
        return program

    # ---------------------------------------------------------- queries
    def callees(self, qname: str) -> Set[str]:
        """Resolved program callees of ``qname`` (incl. constructors)."""
        facts = self.facts.get(qname)
        if facts is None:
            return set()
        out = set(facts.calls)
        for cls_qname in facts.constructs:
            init = f"{cls_qname}.__init__"
            if init in self.facts:
                out.add(init)
        return out

    def function_facts(self, qname: str) -> Optional[FunctionFacts]:
        return self.facts.get(qname)

    def suppressions_by_path(self) -> Dict[str, Dict[int, Set[str]]]:
        """Per-file suppression tables, for shared finding filtering."""
        return {
            info.rel_path: info.source_file.suppressions
            for info in self.table.modules.values()
        }

    def graph_dict(self) -> Dict[str, object]:
        """JSON-ready dump of the resolved call graph (``--graph``)."""
        edges = {
            qname: sorted(self.callees(qname))
            for qname in sorted(self.facts)
        }
        return {
            "modules": sorted(self.table.modules),
            "functions": sorted(self.facts),
            "edges": {q: targets for q, targets in edges.items() if targets},
            "unresolved": {
                q: sorted(f.unresolved_calls)
                for q, f in sorted(self.facts.items())
                if f.unresolved_calls
            },
        }


# ------------------------------------------------------ function scanner
class _FunctionScanner:
    """One linear, in-order pass over a function body."""

    def __init__(self, program: Program, fn: FunctionInfo) -> None:
        self.program = program
        self.table = program.table
        self.fn = fn
        self.module = program.table.modules[fn.module]
        self.cls = program.table.class_info(fn.cls) if fn.cls else None
        self.facts = FunctionFacts(fn=fn)
        self.env: Dict[str, object] = {}
        self.locals: Set[str] = set()
        #: local name -> attribute tail it was read from
        #: (``manager = self.kernel.sanitizers`` -> ``sanitizers``).
        self.attr_tails: Dict[str, str] = {}
        self.declared_globals: Set[str] = set()
        for arg in _all_args(fn.node.args):
            self.locals.add(arg)

    # ------------------------------------------------------------ drive
    def scan(self) -> FunctionFacts:
        for stmt in self.fn.node.body:
            self._stmt(stmt)
        return self.facts

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.env[stmt.name] = _LocalFunc(stmt.name)
            self.locals.add(stmt.name)
            # Nested bodies contribute facts to the enclosing function:
            # the closure executes (if ever) with these semantics.
            inner_locals = set(_all_args(stmt.args))
            saved = self.locals
            self.locals = self.locals | inner_locals
            for sub in stmt.body:
                self._stmt(sub)
            self.locals = saved
            return
        if isinstance(stmt, ast.ClassDef):
            self.locals.add(stmt.name)
            return
        if isinstance(stmt, ast.Global):
            self.declared_globals.update(stmt.names)
            return
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            self._local_import(stmt)
            return
        if isinstance(stmt, ast.Assign):
            self._assign(stmt)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._expr(stmt.value)
                if isinstance(stmt.target, ast.Name):
                    self._bind(stmt.target.id, value, stmt.value)
                elif isinstance(stmt.target, ast.Attribute):
                    self._attr_store(stmt.target, stmt.value, value, stmt)
            return
        if isinstance(stmt, ast.AugAssign):
            self._expr(stmt.value)
            if isinstance(stmt.target, ast.Name):
                self._note_global_write(stmt.target.id)
            elif isinstance(stmt.target, (ast.Attribute, ast.Subscript)):
                self._expr(stmt.target.value)
            return
        if isinstance(stmt, (ast.Return, ast.Expr)):
            if stmt.value is not None:
                self._expr(stmt.value)
            return
        if isinstance(stmt, ast.If):
            self._expr(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._expr(stmt.iter)
            for name in _target_names(stmt.target):
                self.locals.add(name)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.While):
            self._expr(stmt.test)
            for sub in stmt.body + stmt.orelse:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self._expr(item.context_expr)
                if item.optional_vars is not None and \
                        isinstance(item.optional_vars, ast.Name):
                    self._bind(item.optional_vars.id, value,
                               item.context_expr)
            for sub in stmt.body:
                self._stmt(sub)
            return
        if isinstance(stmt, ast.Try):
            bodies = stmt.body + stmt.orelse + stmt.finalbody
            for handler in stmt.handlers:
                if handler.name:
                    self.locals.add(handler.name)
                bodies = bodies + handler.body
            for sub in bodies:
                self._stmt(sub)
            return
        if isinstance(stmt, (ast.Raise, ast.Assert)):
            for value in ast.iter_child_nodes(stmt):
                if isinstance(value, ast.expr):
                    self._expr(value)
            return
        if isinstance(stmt, ast.Delete):
            return
        # Anything else: visit embedded expressions generically.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.stmt):
                self._stmt(child)

    # ------------------------------------------------------- assignment
    def _assign(self, stmt: ast.Assign) -> None:
        value = self._expr(stmt.value)
        for target in stmt.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, value, stmt.value)
            elif isinstance(target, ast.Attribute):
                self._attr_store(target, stmt.value, value, stmt)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for name in _target_names(target):
                    self.locals.add(name)
            elif isinstance(target, ast.Subscript):
                self._expr(target.value)

    def _bind(self, name: str, value: object,
              value_node: ast.expr) -> None:
        self._note_global_write(name)
        self.locals.add(name)
        self.env[name] = value
        tail = _attr_tail(value_node)
        if tail is not None:
            self.attr_tails[name] = tail
        else:
            self.attr_tails.pop(name, None)

    def _note_global_write(self, name: str) -> None:
        if name in self.declared_globals:
            self.facts.global_writes.add(name)
            self.program.mutated_globals.setdefault(
                self.module.name, set()).add(name)

    def _attr_store(self, target: ast.Attribute, value_node: ast.expr,
                    value: object, stmt: ast.stmt) -> None:
        attr = target.attr
        self.facts.attr_set_names.add(attr)
        receiver_is_self = (isinstance(target.value, ast.Name)
                            and target.value.id == "self"
                            and self.cls is not None)
        self._expr(target.value)
        # Rebinding another module's global is a mutation of that
        # module's state (RPR012 cares who reads it from a worker).
        receiver = self._expr_quiet(target.value)
        if isinstance(receiver, _Ref) and \
                isinstance(receiver.symbol, ModuleInfo):
            self.program.mutated_globals.setdefault(
                receiver.symbol.name, set()).add(attr)
        # Instance stores feed the alias analysis.
        if isinstance(value, _Instance):
            bucket = self.program.global_attr_instances.setdefault(
                attr, set())
            bucket.update(value.classes)
            if receiver_is_self:
                self.cls.attr_types.setdefault(attr, set()).update(
                    value.classes)
            return
        # Callable refs stored on self (RNG-factory laundering, RPR010;
        # foreign bound methods, RPR011).
        if isinstance(value, _Ref):
            symbol = value.symbol
            if receiver_is_self and isinstance(
                    symbol, (FunctionInfo, ClassInfo, External)):
                self.cls.attr_refs.setdefault(attr, set()).add(symbol)
            if isinstance(symbol, FunctionInfo) and symbol.cls is not None:
                own = self.fn.cls
                if receiver_is_self and symbol.cls != own:
                    self.facts.wrapper_installs.append(WrapperInstall(
                        line=stmt.lineno, col=stmt.col_offset,
                        target_attr=attr, target_is_self=True,
                        value_kind="foreign_method",
                        value_qname=symbol.qname))
                elif not receiver_is_self and symbol.cls == own:
                    self.facts.wrapper_installs.append(WrapperInstall(
                        line=stmt.lineno, col=stmt.col_offset,
                        target_attr=attr, target_is_self=False,
                        value_kind="bound_self_method",
                        value_qname=symbol.qname))
            return
        # Local closures / lambdas installed over a foreign attribute.
        if isinstance(value, _LocalFunc) or isinstance(value_node, ast.Lambda):
            self.facts.wrapper_installs.append(WrapperInstall(
                line=stmt.lineno, col=stmt.col_offset,
                target_attr=attr, target_is_self=receiver_is_self,
                value_kind="closure",
                value_qname=(value.name
                             if isinstance(value, _LocalFunc) else None)))

    def _local_import(self, stmt: Union[ast.Import, ast.ImportFrom]) -> None:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                bound = alias.asname or alias.name.split(".")[0]
                dotted = alias.name if alias.asname else alias.name.split(".")[0]
                self.locals.add(bound)
                self.env[bound] = _Ref(
                    self.table.resolve_absolute(dotted))
            return
        from .symbols import _import_base  # shared relative-import math

        base = _import_base(self.module, stmt)
        if base is None:
            return
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            dotted = f"{base}.{alias.name}" if base else alias.name
            self.locals.add(bound)
            resolved = self.table.resolve_absolute(dotted)
            if resolved is not None:
                self.env[bound] = _Ref(resolved)

    # ------------------------------------------------------ expressions
    def _expr(self, expr: ast.expr) -> object:
        """Record facts for ``expr`` and return its inferred value."""
        if isinstance(expr, ast.Call):
            return self._call(expr)
        if isinstance(expr, ast.Attribute):
            if expr.attr in CLOCK_READ_ATTRS:
                self.facts.clock_reads.append(
                    (expr.lineno, f"reads .{expr.attr}"))
            self._expr(expr.value)
            return self._expr_quiet(expr)
        if isinstance(expr, ast.Name):
            if (expr.id not in self.locals
                    and expr.id not in _BUILTIN_NAMES
                    and expr.id in self.module.bindings):
                self.facts.global_reads.add(expr.id)
            return self._expr_quiet(expr)
        if isinstance(expr, ast.Lambda):
            return None
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, (ast.comprehension,)):
                self._expr(child.iter)
                for name in _target_names(child.target):
                    self.locals.add(name)
                for cond in child.ifs:
                    self._expr(cond)
        return None

    def _expr_quiet(self, expr: ast.expr) -> object:
        """Type/ref inference without recording facts (bounded)."""
        if isinstance(expr, ast.Name):
            if expr.id == "self" and self.cls is not None:
                return _Instance(frozenset({self.cls.qname}))
            if expr.id in self.env:
                return self.env[expr.id]
            if expr.id in self.locals or expr.id in _BUILTIN_NAMES:
                return None
            resolved = self.table.resolve(self.module.name, expr.id)
            return _Ref(resolved) if resolved is not None else None
        if isinstance(expr, ast.Attribute):
            return self._attr_value(self._expr_quiet(expr.value), expr.attr)
        if isinstance(expr, ast.Call):
            # getattr(x, "lit") behaves like x.lit for inference.
            if (isinstance(expr.func, ast.Name)
                    and expr.func.id == "getattr"
                    and len(expr.args) >= 2
                    and isinstance(expr.args[1], ast.Constant)
                    and isinstance(expr.args[1].value, str)):
                return self._attr_value(
                    self._expr_quiet(expr.args[0]), expr.args[1].value)
            callee = self._expr_quiet(expr.func)
            if isinstance(callee, _Ref):
                if isinstance(callee.symbol, ClassInfo):
                    return _Instance(frozenset({callee.symbol.qname}))
                if isinstance(callee.symbol, External):
                    return _ExternalInstance(callee.symbol.dotted)
            # Builder chaining: ``C(...).install()`` yields a C.
            if (isinstance(expr.func, ast.Attribute)
                    and expr.func.attr in _CHAINING_METHODS):
                base = self._expr_quiet(expr.func.value)
                if isinstance(base, _Instance):
                    return base
            return None
        return None

    def _attr_value(self, base: object, attr: str) -> object:
        if isinstance(base, _Instance):
            types: Set[str] = set()
            refs: Set[object] = set()
            method: Optional[FunctionInfo] = None
            for cls_qname in base.classes:
                cls_info = self.table.class_info(cls_qname)
                if cls_info is None:
                    continue
                types.update(cls_info.attr_types.get(attr, ()))
                refs.update(cls_info.attr_refs.get(attr, ()))
                if method is None:
                    method = self.table.method_lookup(cls_info, attr)
            if types:
                return _Instance(frozenset(types))
            if refs:
                return _Ref(next(iter(refs)))
            if method is not None:
                return _Ref(method)
            return None
        if isinstance(base, _Ref):
            symbol = base.symbol
            if isinstance(symbol, ModuleInfo):
                resolved = self.table.resolve(symbol.name, attr)
                return _Ref(resolved) if resolved is not None else None
            if isinstance(symbol, External):
                return _Ref(External(f"{symbol.dotted}.{attr}"))
            if isinstance(symbol, ClassInfo):
                method = self.table.method_lookup(symbol, attr)
                return _Ref(method) if method is not None else None
        if isinstance(base, _ExternalInstance):
            return None
        return None

    # ------------------------------------------------------------ calls
    def _call(self, call: ast.Call) -> object:
        self._record_call_facts(call)
        # Visit children for nested facts (payload args of the call).
        self._expr(call.func)
        for arg in call.args:
            self._expr(arg)
        for keyword in call.keywords:
            self._expr(keyword.value)
        return self._expr_quiet(call)

    def _record_call_facts(self, call: ast.Call) -> None:
        func = call.func
        # Trace emission sites come first: their payload analysis is
        # separate from the plain call-edge bookkeeping.
        if (isinstance(func, ast.Attribute)
                and func.attr in _TRACE_EMIT_METHODS
                and _mentions_trace(func.value)):
            self.facts.emissions.append(self._emission(call, func.attr))
        internal, external, constructs, unresolved = self._resolve_call(call)
        self.facts.calls.update(internal)
        self.facts.constructs.update(constructs)
        for dotted in external:
            self.facts.external_calls.append(
                (call.lineno, call.col_offset, dotted))
            root = dotted.split(".")[0]
            if root == "random" or dotted.endswith("random.Random"):
                self.facts.rng_uses.append(
                    (call.lineno, f"calls {dotted}"))
        self.facts.unresolved_calls.update(unresolved)
        # RNG draws and clock mutation by method name: distinctive
        # spellings (``.randint``, ``.advance``) on any receiver.
        if isinstance(func, ast.Attribute):
            if func.attr in RNG_METHODS:
                self.facts.rng_uses.append(
                    (call.lineno, f"calls .{func.attr}() (RNG draw)"))
            elif func.attr in CLOCK_MUTATOR_METHODS:
                self.facts.clock_reads.append(
                    (call.lineno, f"calls .{func.attr}() (clock mutation)"))
            elif func.attr in ("install", "uninstall"):
                tail = self._receiver_tail(func.value)
                if tail is not None:
                    self.facts.lifecycle_calls.append((func.attr, tail))
        for name in internal:
            if name.endswith(".derive_rng") or name == "derive_rng":
                self.facts.rng_uses.append(
                    (call.lineno, "calls derive_rng (new RNG stream)"))
        self._pool_submission(call, internal, external)

    def _resolve_call(
        self, call: ast.Call,
    ) -> Tuple[Set[str], Set[str], Set[str], Set[str]]:
        """(internal qnames, external dotted, constructed classes,
        unresolved method names) for one call."""
        internal: Set[str] = set()
        external: Set[str] = set()
        constructs: Set[str] = set()
        unresolved: Set[str] = set()
        func = call.func
        callee = self._expr_quiet(func)
        if isinstance(callee, _Ref):
            symbol = callee.symbol
            if isinstance(symbol, FunctionInfo):
                internal.add(symbol.qname)
            elif isinstance(symbol, ClassInfo):
                constructs.add(symbol.qname)
            elif isinstance(symbol, External):
                external.add(symbol.dotted)
            return internal, external, constructs, unresolved
        if isinstance(func, ast.Attribute):
            receiver = self._expr_quiet(func.value)
            if isinstance(receiver, _Instance):
                bound = False
                for cls_qname in receiver.classes:
                    cls_info = self.table.class_info(cls_qname)
                    if cls_info is None:
                        continue
                    method = self.table.method_lookup(cls_info, func.attr)
                    if method is not None:
                        internal.add(method.qname)
                        bound = True
                if not bound:
                    unresolved.add(func.attr)
            elif isinstance(receiver, _ExternalInstance):
                external.add(f"{receiver.dotted}.{func.attr}")
            else:
                unresolved.add(func.attr)
        elif isinstance(func, ast.Name):
            if func.id not in _BUILTIN_NAMES and func.id not in self.locals:
                unresolved.add(func.id)
        return internal, external, constructs, unresolved

    def _receiver_tail(self, expr: ast.expr) -> Optional[str]:
        """Last attribute hop of a receiver, through local aliases."""
        if isinstance(expr, ast.Attribute):
            return expr.attr
        if isinstance(expr, ast.Name):
            return self.attr_tails.get(expr.id)
        return None

    # -------------------------------------------------------- emissions
    def _emission(self, call: ast.Call, method: str) -> Emission:
        emission = Emission(
            line=call.lineno, col=call.col_offset, method=method)
        payload: List[ast.expr] = list(call.args)
        payload.extend(kw.value for kw in call.keywords)
        for expr in payload:
            for node in ast.walk(expr):
                if isinstance(node, ast.Call):
                    internal, external, constructs, unresolved = \
                        self._resolve_call(node)
                    emission.payload_internal.update(internal)
                    for cls_qname in constructs:
                        init = f"{cls_qname}.__init__"
                        emission.payload_internal.add(init)
                    emission.payload_external.update(external)
                    emission.payload_unresolved.update(
                        u for u in unresolved if u not in _BUILTIN_NAMES)
                    if isinstance(node.func, ast.Attribute):
                        if node.func.attr in RNG_METHODS:
                            emission.direct_rng.append(
                                f".{node.func.attr}() at line {node.lineno}")
                        elif node.func.attr in CLOCK_MUTATOR_METHODS:
                            emission.direct_clock.append(
                                f".{node.func.attr}() at line {node.lineno}")
                    for dotted in external:
                        if dotted.split(".")[0] == "random":
                            emission.direct_rng.append(
                                f"{dotted} at line {node.lineno}")
                elif isinstance(node, ast.Attribute) and \
                        node.attr in CLOCK_READ_ATTRS:
                    emission.direct_clock.append(
                        f".{node.attr} at line {node.lineno}")
        return emission

    # -------------------------------------------------- pool submissions
    def _pool_submission(self, call: ast.Call, internal: Set[str],
                         external: Set[str]) -> None:
        func = call.func
        worker: Optional[ast.expr] = None
        api: Optional[str] = None
        if isinstance(func, ast.Attribute) and func.attr in POOL_METHODS:
            receiver = self._expr_quiet(func.value)
            looks_like_pool = (
                isinstance(receiver, _ExternalInstance)
                and ("Pool" in receiver.dotted
                     or "Executor" in receiver.dotted))
            if not looks_like_pool and isinstance(func.value, ast.Name):
                looks_like_pool = func.value.id in ("pool", "executor")
            if looks_like_pool and call.args:
                worker = call.args[0]
                api = f"pool.{func.attr}"
        if worker is None:
            # multiprocessing.Process(target=fn) and friends.
            for dotted in external:
                if dotted.endswith(".Process") or dotted.endswith(".Thread"):
                    for keyword in call.keywords:
                        if keyword.arg == "target":
                            worker = keyword.value
                            api = dotted
            if worker is None:
                return
        kind, qname = self._classify_callable(worker)
        self.facts.pool_submissions.append(PoolSubmission(
            line=call.lineno, col=call.col_offset, api=api or "pool",
            kind=kind, qname=qname,
            display=ast.unparse(worker)))

    def _classify_callable(
            self, expr: ast.expr) -> Tuple[str, Optional[str]]:
        if isinstance(expr, ast.Lambda):
            return "lambda", None
        value = self._expr_quiet(expr)
        if isinstance(value, _LocalFunc):
            return "nested", value.name
        if isinstance(value, _Ref) and isinstance(value.symbol, FunctionInfo):
            symbol = value.symbol
            if symbol.cls is not None:
                kind = "bound_method" if isinstance(expr, ast.Attribute) \
                    else "method"
                return kind, symbol.qname
            return "toplevel", symbol.qname
        if isinstance(expr, ast.Attribute) and \
                isinstance(expr.value, ast.Name) and expr.value.id == "self":
            return "bound_method", None
        return "unresolved", None


# --------------------------------------------------------------- helpers
def _all_args(args: ast.arguments) -> Iterable[str]:
    for group in (args.posonlyargs, args.args, args.kwonlyargs):
        for arg in group:
            yield arg.arg
    if args.vararg:
        yield args.vararg.arg
    if args.kwarg:
        yield args.kwarg.arg


def _target_names(target: ast.expr) -> Iterable[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _target_names(element)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value)


def _attr_tail(expr: ast.expr) -> Optional[str]:
    """Final attribute hop of a pure attribute chain, else ``None``."""
    node = expr
    # getattr(x, "name", default) counts as x.name.
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)):
        return node.args[1].value
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _mentions_trace(expr: ast.expr) -> bool:
    """Whether a receiver chain names the trace hub (``self.trace``)."""
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and "trace" in node.attr:
            return True
        if isinstance(node, ast.Name) and "trace" in node.id:
            return True
    return False
