"""Cross-module symbol table for the whole-program flow pass.

The per-file lint (:mod:`repro.checkers.rules`) sees one AST at a time,
so it cannot know that ``from .a import helper`` in one module re-exports
a function defined three modules away, or that ``Random`` in
``repro.rng`` is an alias for :class:`random.Random`.  This module
parses an entire package into :class:`ModuleInfo` records — top-level
functions, classes with their methods and base classes, import bindings,
star imports, and module-level aliases — and resolves dotted names
across module boundaries with a bounded, cycle-safe walk.

Resolution returns one of four shapes:

* :class:`FunctionInfo` — a function or method defined in the program;
* :class:`ClassInfo` — a class defined in the program;
* :class:`ModuleInfo` — a module of the program;
* :class:`External` — a dotted name that leaves the program (stdlib,
  third-party), e.g. ``random.Random`` or ``multiprocessing.Pool``.

``External`` is load-bearing: RPR010 keys on calls resolving to
``random.Random`` no matter how many re-export or alias hops the name
took to get there.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..framework import SourceFile

__all__ = [
    "External",
    "FunctionInfo",
    "ClassInfo",
    "ModuleInfo",
    "SymbolTable",
    "module_name_for",
    "package_root_of",
]

#: Maximum re-export / alias hops a single resolution may take.
_MAX_DEPTH = 24


@dataclass(frozen=True)
class External:
    """A dotted name that resolves outside the analysed program."""

    dotted: str

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"<external {self.dotted}>"


@dataclass
class FunctionInfo:
    """One function or method defined in the program."""

    qname: str
    module: str
    rel_path: str
    name: str
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    #: Enclosing class qname for methods, ``None`` for plain functions.
    cls: Optional[str] = None


@dataclass
class ClassInfo:
    """One class defined in the program."""

    qname: str
    module: str
    rel_path: str
    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Raw (dotted) base-class expressions, resolved lazily.
    bases: List[str] = field(default_factory=list)
    #: ``self.attr`` -> candidate class qnames (filled by the call-graph
    #: builder's bounded alias pass).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)
    #: ``self.attr`` -> callable refs stored on the instance (resolved
    #: FunctionInfo/ClassInfo/External objects) — catches RNG-factory
    #: laundering through ``self._factory = Random``.
    attr_refs: Dict[str, Set[object]] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module of the program."""

    name: str
    rel_path: str
    source_file: SourceFile
    is_package: bool
    #: Local name -> absolute dotted target (``repro.rng.derive_rng``).
    imports: Dict[str, str] = field(default_factory=dict)
    #: Modules star-imported at top level.
    star_imports: List[str] = field(default_factory=list)
    #: Module-level ``name = other.thing`` aliases (raw dotted RHS).
    aliases: Dict[str, str] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    #: Every top-level binding (for module-global read detection).
    bindings: Set[str] = field(default_factory=set)

    @property
    def tree(self) -> ast.Module:
        return self.source_file.tree

    @property
    def package(self) -> str:
        """The package this module's relative imports resolve against."""
        if self.is_package:
            return self.name
        return self.name.rsplit(".", 1)[0] if "." in self.name else ""


def package_root_of(path: Path) -> Path:
    """The topmost package directory containing ``path``.

    Ascends while the parent directory is itself a package (has an
    ``__init__.py``), so ``src/repro/core/tracer.py`` maps to
    ``src/repro``.
    """
    directory = path if path.is_dir() else path.parent
    while (directory / "__init__.py").exists() and \
            (directory.parent / "__init__.py").exists():
        directory = directory.parent
    return directory


def module_name_for(file_path: Path, root: Path) -> str:
    """Dotted module name of ``file_path`` under package ``root``."""
    rel = file_path.resolve().relative_to(root.resolve())
    parts = [root.name] + list(rel.parts)
    if parts[-1] == "__init__.py":
        parts = parts[:-1]
    else:
        parts[-1] = parts[-1][:-len(".py")]
    return ".".join(parts)


def _dotted_of(expr: ast.expr) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class SymbolTable:
    """Every module of one (or more) packages, with name resolution."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}

    # ------------------------------------------------------------ build
    @classmethod
    def build(cls, sources: Sequence[Tuple[SourceFile, str]]) -> "SymbolTable":
        """Index ``(source_file, dotted_module_name)`` pairs."""
        table = cls()
        for sf, module_name in sources:
            table.modules[module_name] = _index_module(sf, module_name)
        return table

    # ---------------------------------------------------------- resolve
    def resolve(self, module: str, dotted: str,
                _seen: Optional[Set[Tuple[str, str]]] = None):
        """Resolve ``dotted`` as seen from inside ``module``.

        Follows imports, star imports, module-level aliases and
        re-export chains across the whole program (cycle-safe, bounded).
        Returns FunctionInfo / ClassInfo / ModuleInfo / External / None.
        """
        seen = _seen if _seen is not None else set()
        key = (module, dotted)
        if key in seen or len(seen) > _MAX_DEPTH:
            return None
        seen.add(key)
        info = self.modules.get(module)
        if info is None:
            return None
        head, _, rest = dotted.partition(".")

        if head in info.classes:
            cls_info = info.classes[head]
            if not rest:
                return cls_info
            method = cls_info.methods.get(rest)
            return method
        if head in info.functions:
            return info.functions[head] if not rest else None
        if head in info.imports:
            target = info.imports[head]
            return self.resolve_absolute(
                f"{target}.{rest}" if rest else target, _seen=seen)
        if head in info.aliases:
            target = info.aliases[head]
            return self.resolve(
                module, f"{target}.{rest}" if rest else target, _seen=seen)
        # Submodule access from a package (``pkg.sub`` bound implicitly).
        child = f"{module}.{head}" if info.is_package else None
        if child and child in self.modules:
            if not rest:
                return self.modules[child]
            return self.resolve(child, rest, _seen=seen)
        for star in info.star_imports:
            found = self.resolve_absolute(
                f"{star}.{dotted}", _seen=seen)
            if found is not None and not isinstance(found, External):
                return found
        return None

    def resolve_absolute(self, dotted: str,
                         _seen: Optional[Set[Tuple[str, str]]] = None):
        """Resolve an absolute dotted path (``repro.rng.Random``).

        Unknown top-level packages resolve to :class:`External`.
        """
        parts = dotted.split(".")
        # Longest known module prefix wins.
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix in self.modules:
                rest = ".".join(parts[cut:])
                if not rest:
                    return self.modules[prefix]
                return self.resolve(prefix, rest, _seen=_seen)
        return External(dotted)

    # ----------------------------------------------------------- lookup
    def function(self, qname: str) -> Optional[FunctionInfo]:
        """A FunctionInfo by fully qualified name, or ``None``."""
        for cut in (2, 1):
            parts = qname.rsplit(".", cut)
            if len(parts) < cut + 1:
                continue
            module = parts[0]
            info = self.modules.get(module)
            if info is None:
                continue
            if cut == 1:
                found = info.functions.get(parts[1])
                if found is not None:
                    return found
            else:
                cls_info = info.classes.get(parts[1])
                if cls_info is not None:
                    return cls_info.methods.get(parts[2])
        return None

    def class_info(self, qname: str) -> Optional[ClassInfo]:
        """A ClassInfo by fully qualified name, or ``None``."""
        module, _, name = qname.rpartition(".")
        info = self.modules.get(module)
        return info.classes.get(name) if info else None

    def method_lookup(self, cls_info: ClassInfo, name: str,
                      _seen: Optional[Set[str]] = None
                      ) -> Optional[FunctionInfo]:
        """``name`` on ``cls_info`` or (depth-first) its program bases."""
        seen = _seen if _seen is not None else set()
        if cls_info.qname in seen:
            return None
        seen.add(cls_info.qname)
        if name in cls_info.methods:
            return cls_info.methods[name]
        for base in cls_info.bases:
            resolved = self.resolve(cls_info.module, base)
            if isinstance(resolved, ClassInfo):
                found = self.method_lookup(resolved, name, _seen=seen)
                if found is not None:
                    return found
        return None

    def all_functions(self) -> List[FunctionInfo]:
        """Every function and method in the program, sorted by qname."""
        out: List[FunctionInfo] = []
        for info in self.modules.values():
            out.extend(info.functions.values())
            for cls_info in info.classes.values():
                out.extend(cls_info.methods.values())
        return sorted(out, key=lambda fn: fn.qname)


# ------------------------------------------------------------- indexing
def _index_module(sf: SourceFile, module_name: str) -> ModuleInfo:
    is_package = sf.rel_path.endswith("__init__.py")
    info = ModuleInfo(
        name=module_name,
        rel_path=sf.rel_path,
        source_file=sf,
        is_package=is_package,
    )
    for stmt in _top_level_statements(sf.tree):
        _index_statement(info, stmt)
    return info


def _top_level_statements(tree: ast.Module):
    """Module body, looking through top-level ``if``/``try`` guards."""
    stack = list(tree.body)
    while stack:
        stmt = stack.pop(0)
        if isinstance(stmt, ast.If):
            stack = stmt.body + stmt.orelse + stack
            continue
        if isinstance(stmt, ast.Try):
            handler_bodies: List[ast.stmt] = []
            for handler in stmt.handlers:
                handler_bodies.extend(handler.body)
            stack = (stmt.body + stmt.orelse + stmt.finalbody
                     + handler_bodies + stack)
            continue
        yield stmt


def _index_statement(info: ModuleInfo, stmt: ast.stmt) -> None:
    if isinstance(stmt, ast.Import):
        for alias in stmt.names:
            if alias.asname:
                info.imports[alias.asname] = alias.name
                info.bindings.add(alias.asname)
            else:
                top = alias.name.split(".")[0]
                info.imports[top] = top
                info.bindings.add(top)
    elif isinstance(stmt, ast.ImportFrom):
        base = _import_base(info, stmt)
        if base is None:
            return
        for alias in stmt.names:
            if alias.name == "*":
                info.star_imports.append(base)
                continue
            bound = alias.asname or alias.name
            info.imports[bound] = f"{base}.{alias.name}" if base else alias.name
            info.bindings.add(bound)
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        info.functions[stmt.name] = FunctionInfo(
            qname=f"{info.name}.{stmt.name}",
            module=info.name,
            rel_path=info.rel_path,
            name=stmt.name,
            node=stmt,
        )
        info.bindings.add(stmt.name)
    elif isinstance(stmt, ast.ClassDef):
        info.classes[stmt.name] = _index_class(info, stmt)
        info.bindings.add(stmt.name)
    elif isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if not isinstance(target, ast.Name):
                continue
            info.bindings.add(target.id)
            if target.id == "__all__":
                continue
            dotted = _dotted_of(stmt.value)
            if dotted is not None:
                info.aliases[target.id] = dotted
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        info.bindings.add(stmt.target.id)
        if stmt.value is not None:
            dotted = _dotted_of(stmt.value)
            if dotted is not None and stmt.target.id != "__all__":
                info.aliases[stmt.target.id] = dotted


def _import_base(info: ModuleInfo, stmt: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted base a ``from X import ...`` resolves against."""
    if stmt.level == 0:
        return stmt.module or ""
    package_parts = info.package.split(".") if info.package else []
    strip = stmt.level - 1
    if strip > len(package_parts):
        return None
    base_parts = package_parts[:len(package_parts) - strip] if strip else \
        package_parts
    if stmt.module:
        base_parts = base_parts + stmt.module.split(".")
    return ".".join(base_parts)


def _index_class(info: ModuleInfo, stmt: ast.ClassDef) -> ClassInfo:
    qname = f"{info.name}.{stmt.name}"
    cls_info = ClassInfo(
        qname=qname,
        module=info.name,
        rel_path=info.rel_path,
        name=stmt.name,
        node=stmt,
    )
    for base in stmt.bases:
        dotted = _dotted_of(base)
        if dotted is not None:
            cls_info.bases.append(dotted)
    for sub in stmt.body:
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls_info.methods[sub.name] = FunctionInfo(
                qname=f"{qname}.{sub.name}",
                module=info.name,
                rel_path=info.rel_path,
                name=sub.name,
                node=sub,
                cls=qname,
            )
    return cls_info
