"""Command-line driver for the repo-specific lint pass.

Usage::

    python -m repro.checkers.lint src/
    repro-lint src/ --format json
    repro-lint src/ --deep                 # + whole-program flow rules
    repro-lint src/repro/core/tracer.py --rules RPR003,RPR004

``--deep`` layers the flow pass (RPR009..RPR014, see
:mod:`repro.checkers.flow`) on top of the per-file rules.  Both passes
share one :class:`~repro.checkers.framework.SourceFile` per file, so a
deep run reads and parses every file exactly once.

Exit codes: 0 = clean, 1 = findings, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

# Wall-time reporting for the lint run itself (host tooling measuring
# its own runtime, not simulated time).
import time  # repro-lint: disable=RPR001
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .framework import (
    Finding,
    LintRule,
    SourceFile,
    lint_file,
    registered_rule_classes,
    rule_kind,
)
from .rules import default_rules

__all__ = ["collect_files", "lint_paths", "lint_sources", "main"]


def collect_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            out.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return out


def load_sources(paths: Sequence[str]) -> List[SourceFile]:
    """Read and parse every ``.py`` file under ``paths`` exactly once."""
    return [SourceFile.load(path) for path in collect_files(paths)]


def lint_sources(
    sources: Sequence[SourceFile],
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Run the shallow ``rules`` over pre-parsed sources."""
    chosen = tuple(rules) if rules is not None else tuple(default_rules())
    findings: List[Finding] = []
    for sf in sources:
        findings.extend(lint_file(sf, chosen))
    return findings


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths``; returns all findings.

    Propagates :class:`FileNotFoundError` for missing paths and
    :class:`SyntaxError` for unparsable files.
    """
    return lint_sources(load_sources(paths), rules)


def deep_findings(sources: Sequence[SourceFile],
                  rule_ids: Optional[Sequence[str]] = None) -> List[Finding]:
    """Run the flow pass over the *same* parsed sources (no re-parse).

    Files are grouped by their enclosing package root; files outside any
    package (no ``__init__.py`` chain) cannot take part in cross-module
    resolution and are skipped by the flow pass.
    """
    from .flow import Program, flow_rules, run_flow_rules
    from .flow.symbols import module_name_for, package_root_of

    by_root: Dict[Path, List[Tuple[SourceFile, str]]] = {}
    for sf in sources:
        if sf.path is None:
            continue
        root = package_root_of(sf.path)
        if not (root / "__init__.py").exists():
            continue
        by_root.setdefault(root, []).append(
            (sf, module_name_for(sf.path, root)))
    chosen = flow_rules()
    if rule_ids is not None:
        wanted = {rid.upper() for rid in rule_ids}
        chosen = tuple(r for r in chosen if r.rule_id in wanted)
    findings: List[Finding] = []
    for root in sorted(by_root):
        program = Program.from_sources(by_root[root])
        findings.extend(run_flow_rules(program, chosen))
    return findings


def _select_rule_ids(spec: Optional[str],
                     deep: bool) -> Tuple[Optional[List[str]],
                                          Optional[List[str]]]:
    """(shallow IDs, flow IDs) selected by ``--rules``; None = all."""
    # Importing the flow package registers RPR009..RPR014.
    from . import flow  # noqa: F401

    if not spec:
        return None, None
    wanted = {token.strip().upper()
              for token in spec.split(",") if token.strip()}
    known = {cls.rule_id for cls in registered_rule_classes()}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown rule IDs: {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}")
    shallow = [rid for rid in sorted(wanted) if rule_kind(rid) == "shallow"]
    flow_ids = [rid for rid in sorted(wanted) if rule_kind(rid) == "flow"]
    if flow_ids and not deep:
        raise ValueError(
            f"rule(s) {', '.join(flow_ids)} need the flow pass; "
            "add --deep")
    return shallow, flow_ids


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.checkers.lint`` / ``repro-lint``."""
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Repo-specific lint for the SoftTRR reproduction "
                    "(rules RPR001..RPR008; --deep adds RPR009..RPR014).",
    )
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default: text)")
    parser.add_argument("--rules", default=None, metavar="IDS",
                        help="comma-separated rule IDs to run (default: all)")
    parser.add_argument("--deep", action="store_true",
                        help="also run the whole-program flow pass "
                             "(RPR009..RPR014) on the same parsed ASTs")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the known rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        from . import flow  # noqa: F401  (registers the flow rules)

        for cls in registered_rule_classes():
            kind = rule_kind(cls.rule_id)
            print(f"{cls.rule_id}  [{kind}]  {cls.description}")
        return 0
    if not args.paths:
        parser.error("the following arguments are required: paths")

    started = time.perf_counter()  # repro-lint: disable=RPR001
    try:
        shallow_ids, flow_ids = _select_rule_ids(args.rules, args.deep)
        sources = load_sources(args.paths)
        shallow_rules = tuple(default_rules())
        if shallow_ids is not None:
            shallow_rules = tuple(r for r in shallow_rules
                                  if r.rule_id in shallow_ids)
        run_shallow = shallow_ids is None or bool(shallow_ids)
        findings = lint_sources(sources, shallow_rules) if run_shallow \
            else []
        if args.deep:
            findings.extend(deep_findings(sources, flow_ids))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    except (FileNotFoundError, ValueError) as exc:
        print(f"repro-lint: error: {exc}", file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"repro-lint: parse error: {exc}", file=sys.stderr)
        return 2
    wall_time_s = round(time.perf_counter() - started, 4)  # repro-lint: disable=RPR001

    try:
        if args.format == "json":
            print(json.dumps(
                {"findings": [f.as_dict() for f in findings],
                 "count": len(findings),
                 "files": len(sources),
                 "deep": args.deep,
                 "wall_time_s": wall_time_s},
                indent=2,
            ))
        else:
            for finding in findings:
                print(finding.format_text())
            if findings:
                print(f"{len(findings)} finding(s)", file=sys.stderr)
    except BrokenPipeError:  # `repro-lint ... | head` is fine
        sys.stderr.close()
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
