"""Shared machinery for the repo-specific lint passes.

Two passes share this module:

* the **shallow** pass (:mod:`repro.checkers.rules`) — one AST walk per
  file, every rule registered for the node types it cares about;
* the **flow** pass (:mod:`repro.checkers.flow`) — whole-program rules
  over a cross-module symbol table and call graph.

Rules are small classes (:class:`LintRule` for shallow,
``FlowRule`` for flow) producing :class:`Finding` objects.  Both kinds
register themselves here through :func:`register_rule`, so
``repro-lint``, ``--list-rules`` and rule-ID validation all read one
registry, and future RPR0xx rules are one-class additions.

The framework owns file I/O (:class:`SourceFile` caches the parsed AST
so the shallow and deep passes never re-read or re-parse a file),
suppression comments and output formatting.

Suppressions are per-line and honoured identically by both passes::

    entry |= 1 << 51  # repro-lint: disable=RPR003
    entry |= 1 << 51  # repro-lint: disable=all

A finding is suppressed when the comment sits on the line the finding
points at.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Registry kinds: per-file AST rules vs whole-program flow rules.
RULE_KINDS = ("shallow", "flow")


@dataclass(frozen=True)
class Finding:
    """One lint hit: a rule, a location, a message."""

    rule_id: str
    path: str
    line: int
    col: int
    message: str
    #: Enclosing symbol (``pkg.mod.Class.method``) when the producing
    #: pass knows it — flow findings carry it so a report names the
    #: function a whole-program chain starts from.
    symbol: str = ""

    def format_text(self) -> str:
        """``path:line:col: RPRxxx message`` — the text output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        """JSON-output shape."""
        out: Dict[str, object] = {
            "rule_id": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.symbol:
            out["symbol"] = self.symbol
        return out


def path_matches(rel_path: str, allowed: Sequence[str]) -> bool:
    """Whether ``rel_path`` is one of / under one of ``allowed``.

    Entries ending in ``/`` are directory prefixes; others are exact
    file paths.  Matching is against the *suffix* of the relative path,
    so ``repro/clock.py`` matches whether the lint was invoked on
    ``src/`` or on the repository root.
    """
    posix = PurePosixPath(rel_path).as_posix()
    for allow in allowed:
        if allow.endswith("/"):
            if f"/{allow}" in f"/{posix}":
                return True
        elif posix == allow or posix.endswith(f"/{allow}"):
            return True
    return False


@dataclass
class SourceFile:
    """One parsed file, shared between the shallow and deep passes.

    ``repro-lint --deep`` loads every file exactly once: the shallow
    rules walk :attr:`tree`, then the flow pass builds its symbol table
    from the *same* tree — no re-read, no re-parse.
    """

    path: Optional[Path]
    rel_path: str
    source: str
    tree: ast.Module
    suppressions: Dict[int, Set[str]]

    @classmethod
    def load(cls, path: Path, rel_path: Optional[str] = None) -> "SourceFile":
        """Read and parse ``path``; raises ``SyntaxError`` on bad source."""
        source = path.read_text(encoding="utf-8")
        return cls.from_source(source, rel_path or path.as_posix(), path=path)

    @classmethod
    def from_source(cls, source: str, rel_path: str,
                    path: Optional[Path] = None) -> "SourceFile":
        """Parse in-memory source (the test-suite entry point)."""
        tree = ast.parse(source, filename=rel_path)
        return cls(
            path=path,
            rel_path=PurePosixPath(rel_path).as_posix(),
            source=source,
            tree=tree,
            suppressions=parse_suppressions(source),
        )


@dataclass
class LintContext:
    """Everything a shallow rule needs to know about the file under lint."""

    #: Repo-relative POSIX path (what allow-lists match against).
    rel_path: str
    source: str
    tree: ast.Module
    #: line -> suppressed rule IDs ("ALL" suppresses everything).
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    @property
    def is_package_init(self) -> bool:
        """Whether the file is a package ``__init__.py``."""
        return PurePosixPath(self.rel_path).name == "__init__.py"

    def in_paths(self, allowed: Sequence[str]) -> bool:
        """Whether the file is one of / under one of ``allowed``."""
        return path_matches(self.rel_path, allowed)


class LintRule:
    """Base class for one per-file lint rule.

    Subclasses set :attr:`rule_id` / :attr:`description`, declare the
    AST node types they want in :attr:`interests`, and implement
    :meth:`check_node`; rules that reason about the whole module (e.g.
    export consistency) override :meth:`check_module` instead.
    """

    rule_id: str = "RPR000"
    description: str = ""
    #: Node types routed to :meth:`check_node` during the shared walk.
    interests: Tuple[Type[ast.AST], ...] = ()
    #: Files (exact) / directories (trailing ``/``) exempt from the rule.
    allowed_paths: Tuple[str, ...] = ()

    def applies_to(self, ctx: LintContext) -> bool:
        """Whether the rule runs on this file at all."""
        return not ctx.in_paths(self.allowed_paths)

    def check_node(self, node: ast.AST, ctx: LintContext) -> Iterable[Finding]:
        """Findings for one node of an interesting type."""
        return ()

    def check_module(self, ctx: LintContext) -> Iterable[Finding]:
        """Findings needing the whole module (runs once per file)."""
        return ()

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        """Convenience constructor anchored at ``node``."""
        return Finding(
            rule_id=self.rule_id,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


# ----------------------------------------------------------- registry
#: kind -> rule classes in registration order (sorted on read).
_REGISTRY: Dict[str, List[type]] = {kind: [] for kind in RULE_KINDS}


def register_rule(cls=None, *, kind: str = "shallow"):
    """Class decorator: add a rule class to the shared registry.

    ``@register_rule`` registers a shallow (per-file AST) rule;
    ``@register_rule(kind="flow")`` a whole-program flow rule.  The
    registry is what ``default_rules`` / ``flow_rules`` /
    ``--list-rules`` and rule-ID validation read, so registering is the
    *only* boilerplate a new RPR0xx rule needs.
    """
    if kind not in RULE_KINDS:
        raise ValueError(f"unknown rule kind {kind!r}; expected {RULE_KINDS}")

    def wrap(rule_cls):
        registered = _REGISTRY[kind]
        # Re-registration (module reload, tests) replaces by rule_id.
        registered[:] = [c for c in registered
                         if c.rule_id != rule_cls.rule_id]
        registered.append(rule_cls)
        return rule_cls

    return wrap if cls is None else wrap(cls)


def registered_rule_classes(kind: Optional[str] = None) -> Tuple[type, ...]:
    """Registered rule classes, sorted by rule ID.

    ``kind`` of ``None`` returns every kind (shallow first by ID order).
    """
    kinds = RULE_KINDS if kind is None else (kind,)
    out: List[type] = []
    for one in kinds:
        out.extend(_REGISTRY[one])
    return tuple(sorted(out, key=lambda cls: cls.rule_id))


def make_rules(kind: Optional[str] = None) -> Tuple[object, ...]:
    """Fresh instances of every registered rule of ``kind``, ID order."""
    return tuple(cls() for cls in registered_rule_classes(kind))


def rule_kind(rule_id: str) -> Optional[str]:
    """Which registry kind a rule ID belongs to, or ``None``."""
    for kind in RULE_KINDS:
        if any(cls.rule_id == rule_id.upper() for cls in _REGISTRY[kind]):
            return kind
    return None


# -------------------------------------------------------- suppressions
def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule IDs disabled on that line."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        ids = {
            token.strip().upper()
            for token in match.group(1).split(",")
            if token.strip()
        }
        if ids:
            out[lineno] = ids
    return out


def _suppressed(finding: Finding, suppressions: Dict[int, Set[str]]) -> bool:
    ids = suppressions.get(finding.line)
    if not ids:
        return False
    return "ALL" in ids or finding.rule_id.upper() in ids


def filter_suppressed(
    findings: Iterable[Finding],
    suppressions_by_path: Dict[str, Dict[int, Set[str]]],
) -> List[Finding]:
    """Drop findings carrying a same-line disable comment.

    ``suppressions_by_path`` maps each file's relative path to its
    per-line suppression table — both passes build it from the same
    :class:`SourceFile` objects, so a ``# repro-lint: disable=RPRxxx``
    comment silences a flow finding exactly like a shallow one.
    """
    return [
        finding for finding in findings
        if not _suppressed(finding,
                           suppressions_by_path.get(finding.path, {}))
    ]


# -------------------------------------------------------------- driver
def lint_file(sf: SourceFile, rules: Sequence[LintRule]) -> List[Finding]:
    """Run the shallow ``rules`` over one pre-parsed :class:`SourceFile`."""
    ctx = LintContext(
        rel_path=sf.rel_path,
        source=sf.source,
        tree=sf.tree,
        suppressions=sf.suppressions,
    )
    active = [rule for rule in rules if rule.applies_to(ctx)]
    if not active:
        return []
    findings: List[Finding] = []
    # Route node types to the rules interested in them, one shared walk.
    by_type: List[Tuple[Tuple[Type[ast.AST], ...], LintRule]] = [
        (rule.interests, rule) for rule in active if rule.interests
    ]
    if by_type:
        for node in ast.walk(sf.tree):
            for interests, rule in by_type:
                if isinstance(node, interests):
                    findings.extend(rule.check_node(node, ctx))
    for rule in active:
        findings.extend(rule.check_module(ctx))
    findings = [f for f in findings if not _suppressed(f, ctx.suppressions)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    return findings


def lint_source(
    source: str,
    rel_path: str,
    rules: Sequence[LintRule],
) -> List[Finding]:
    """Lint one file's source text with ``rules``; returns its findings.

    Raises :class:`SyntaxError` if the source does not parse — callers
    surface that as a distinct exit code rather than a finding.
    """
    return lint_file(SourceFile.from_source(source, rel_path), rules)
