"""Textual grammar for hammer patterns.

Line-oriented, whitespace-friendly, ``#`` comments::

    pattern many_sided(victim, rounds, acts=60, gap=0)
      repeat rounds
        act 0, victim - 1, acts
        act 0, victim + 1, acts
        wait gap
        sync
      end
    end

Statements: ``act BANK, ROW[, COUNT]`` / ``wait NS`` / ``sync`` /
``repeat N`` … ``end``.  Operands are integer expressions over the
declared parameters (``+ - *`` with the usual precedence, parentheses
allowed, at most :data:`MAX_EXPR_DEPTH` levels deep).
``ScenarioSpec.pattern`` carries exactly this text, so a scenario cell
can ship an attack program inline as plain data.

The parser is pure (flow rule RPR014): text in, :class:`Pattern` out,
with :class:`~repro.errors.PatternError` carrying the offending line
number on any syntax error.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple

from ..errors import PatternError
from .lang import (
    Act,
    BinOp,
    Const,
    Expr,
    Param,
    ParamSpec,
    Pattern,
    Repeat,
    Sync,
    Wait,
)

__all__ = ["MAX_EXPR_DEPTH", "parse_pattern", "parse_patterns"]

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*(),]))")

_HEADER = re.compile(
    r"^pattern\s+([A-Za-z_][A-Za-z_0-9]*)\s*\((.*)\)\s*$")


#: Deepest allowed operand expression: operator levels of the parsed
#: tree, and parenthesis nesting.  Registry patterns nest one level;
#: the cap keeps malformed source from overflowing the recursive
#: parser or :func:`~repro.patterns.compile.eval_expr`.
MAX_EXPR_DEPTH = 64


class _ExprParser:
    """Recursive-descent parser for the integer expression grammar.

    Each rule returns ``(expr, depth)``, ``depth`` being the operator
    levels of the tree, so a too-deep operand fails as it is built.
    """

    def __init__(self, text: str, line_no: int) -> None:
        self.tokens = self._tokenise(text, line_no)
        self.pos = 0
        self.line_no = line_no
        self.open_parens = 0

    @staticmethod
    def _tokenise(text: str, line_no: int) -> List[str]:
        tokens: List[str] = []
        pos = 0
        while pos < len(text):
            match = _TOKEN.match(text, pos)
            if match is None or match.end() == pos:
                rest = text[pos:].strip()
                if not rest:
                    break
                raise PatternError(
                    f"line {line_no}: cannot tokenise {rest!r}")
            tokens.append(match.group(1) or match.group(2) or match.group(3))
            pos = match.end()
        return tokens

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise PatternError(
                f"line {self.line_no}: unexpected end of expression")
        self.pos += 1
        return token

    def parse(self) -> Expr:
        expr, _depth = self.additive()
        if self.peek() is not None:
            raise PatternError(
                f"line {self.line_no}: trailing tokens after expression "
                f"({' '.join(self.tokens[self.pos:])!r})")
        return expr

    def too_deep(self) -> PatternError:
        return PatternError(
            f"line {self.line_no}: expression nested deeper than "
            f"{MAX_EXPR_DEPTH} levels")

    def binop(self, op: str, left: Tuple[Expr, int],
              right: Tuple[Expr, int]) -> Tuple[Expr, int]:
        depth = max(left[1], right[1]) + 1
        if depth > MAX_EXPR_DEPTH:
            raise self.too_deep()
        return BinOp(op, left[0], right[0]), depth

    def additive(self) -> Tuple[Expr, int]:
        expr = self.multiplicative()
        while self.peek() in ("+", "-"):
            op = self.take()
            expr = self.binop(op, expr, self.multiplicative())
        return expr

    def multiplicative(self) -> Tuple[Expr, int]:
        expr = self.unary()
        while self.peek() == "*":
            self.take()
            expr = self.binop("*", expr, self.unary())
        return expr

    def unary(self) -> Tuple[Expr, int]:
        signs = 0
        while self.peek() == "-":
            self.take()
            signs += 1
        expr = self.atom()
        for _ in range(signs):
            expr = self.binop("-", (Const(0), 0), expr)
        return expr

    def atom(self) -> Tuple[Expr, int]:
        token = self.take()
        if token == "(":
            self.open_parens += 1
            if self.open_parens > MAX_EXPR_DEPTH:
                raise self.too_deep()
            expr = self.additive()
            if self.take() != ")":
                raise PatternError(
                    f"line {self.line_no}: unbalanced parentheses")
            self.open_parens -= 1
            return expr
        if token.isdigit():
            return Const(int(token)), 0
        if token.isidentifier():
            return Param(token), 0
        raise PatternError(
            f"line {self.line_no}: unexpected token {token!r}")


def _parse_expr(text: str, line_no: int) -> Expr:
    text = text.strip()
    if not text:
        raise PatternError(f"line {line_no}: missing operand")
    return _ExprParser(text, line_no).parse()


def _split_operands(text: str, line_no: int) -> List[str]:
    """Split on commas outside parentheses."""
    parts: List[str] = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise PatternError(
                    f"line {line_no}: unbalanced parentheses")
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_params(text: str, line_no: int) -> Tuple[ParamSpec, ...]:
    text = text.strip()
    if not text:
        return ()
    specs: List[ParamSpec] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            raise PatternError(
                f"line {line_no}: empty parameter declaration")
        name, eq, default = chunk.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise PatternError(
                f"line {line_no}: bad parameter name {name!r}")
        if not eq:
            specs.append(ParamSpec(name))
            continue
        default = default.strip()
        try:
            value = int(default, 0)
        except ValueError:
            raise PatternError(
                f"line {line_no}: parameter {name!r} default {default!r} "
                "is not an integer") from None
        specs.append(ParamSpec(name, value))
    return tuple(specs)


def _meaningful_lines(source: str):
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line


def parse_patterns(source: str) -> List[Pattern]:
    """Every ``pattern … end`` block in ``source``, in order."""
    patterns: List[Pattern] = []
    #: Stack of open blocks: each entry is (kind, header, body) where
    #: kind is "pattern" or "repeat".
    stack: List[Tuple[str, object, List[object]]] = []
    for line_no, line in _meaningful_lines(source):
        keyword = line.split(None, 1)[0]
        rest = line[len(keyword):].strip()
        if keyword == "pattern":
            if stack:
                raise PatternError(
                    f"line {line_no}: 'pattern' inside an open block")
            match = _HEADER.match(line)
            if match is None:
                raise PatternError(
                    f"line {line_no}: bad pattern header {line!r} "
                    "(expected: pattern name(param, param=default))")
            header = (match.group(1),
                      _parse_params(match.group(2), line_no))
            stack.append(("pattern", header, []))
        elif keyword == "repeat":
            if not stack:
                raise PatternError(
                    f"line {line_no}: 'repeat' outside a pattern")
            stack.append(("repeat", _parse_expr(rest, line_no), []))
        elif keyword == "end":
            if rest:
                raise PatternError(
                    f"line {line_no}: 'end' takes no operands")
            if not stack:
                raise PatternError(f"line {line_no}: unmatched 'end'")
            kind, header, body = stack.pop()
            if kind == "repeat":
                if not body:
                    raise PatternError(
                        f"line {line_no}: empty repeat body")
                stack[-1][2].append(Repeat(header, tuple(body)))
            else:
                name, params = header
                if not body:
                    raise PatternError(
                        f"line {line_no}: pattern {name!r} has an "
                        "empty body")
                patterns.append(Pattern(name, params, tuple(body)))
        elif keyword == "act":
            if not stack:
                raise PatternError(
                    f"line {line_no}: 'act' outside a pattern")
            operands = _split_operands(rest, line_no)
            if len(operands) not in (2, 3):
                raise PatternError(
                    f"line {line_no}: act takes 'bank, row[, count]', "
                    f"got {len(operands)} operand(s)")
            bank = _parse_expr(operands[0], line_no)
            row = _parse_expr(operands[1], line_no)
            count = (_parse_expr(operands[2], line_no)
                     if len(operands) == 3 else Const(1))
            stack[-1][2].append(Act(bank, row, count))
        elif keyword == "wait":
            if not stack:
                raise PatternError(
                    f"line {line_no}: 'wait' outside a pattern")
            stack[-1][2].append(Wait(_parse_expr(rest, line_no)))
        elif keyword == "sync":
            if not stack:
                raise PatternError(
                    f"line {line_no}: 'sync' outside a pattern")
            if rest:
                raise PatternError(
                    f"line {line_no}: 'sync' takes no operands")
            stack[-1][2].append(Sync())
        else:
            raise PatternError(
                f"line {line_no}: unknown statement {keyword!r} "
                "(known: pattern/act/wait/sync/repeat/end)")
    if stack:
        kind = stack[-1][0]
        raise PatternError(f"unterminated {kind!r} block (missing 'end')")
    if not patterns:
        raise PatternError("source defines no pattern")
    return patterns


def parse_pattern(source: str) -> Pattern:
    """Parse exactly one pattern from ``source``."""
    patterns = parse_patterns(source)
    if len(patterns) != 1:
        raise PatternError(
            f"expected exactly one pattern, found {len(patterns)}: "
            f"{[p.name for p in patterns]}")
    return patterns[0]
