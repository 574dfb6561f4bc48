"""Command-line driver for the whole-program flow pass.

Usage::

    repro-analyze src/repro                  # text findings
    repro-analyze src/repro --check --json   # CI gate, JSON report
    repro-analyze src/repro --graph          # resolved call-graph dump
    repro-analyze src/repro --write-baseline # grandfather current findings

Exit codes follow :mod:`repro.cli_common`: 0 clean (or only
grandfathered findings), 1 fresh findings, 2 bad invocation / parse
error.

Baselines: a ``.repro-analyze-baseline.json`` next to (or above) the
analysed root grandfathers known findings by line-independent
fingerprint, so the gate only fails on *new* violations.  The intent is
for the committed baseline to stay empty; anything grandfathered needs
a rationale in the PR that added it.
"""

from __future__ import annotations

import json
import sys

# Wall-time reporting for the analyzer itself (a host tool measuring its
# own runtime, not simulated time — the sim-clock rule does not apply).
import time  # repro-lint: disable=RPR001
from pathlib import Path
from typing import List, Optional, Sequence, Set

from ...cli_common import (
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_USAGE,
    add_check_option,
    add_json_option,
    add_out_option,
    build_parser,
)
from ..framework import Finding
from .callgraph import CallGraphError, Program
from .rules_flow import FlowRule, flow_rules, run_flow_rules

__all__ = ["BASELINE_NAME", "load_baseline", "main"]

BASELINE_NAME = ".repro-analyze-baseline.json"


def load_baseline(path: Path) -> Set[str]:
    """Fingerprints grandfathered by a baseline file."""
    data = json.loads(path.read_text(encoding="utf-8"))
    fingerprints = data.get("fingerprints", [])
    if not isinstance(fingerprints, list):
        raise ValueError(f"{path}: 'fingerprints' must be a list")
    return {str(fp) for fp in fingerprints}


def _default_baseline(root: Path) -> Optional[Path]:
    """Nearest ``.repro-analyze-baseline.json`` at or above ``root``."""
    for directory in [root] + list(root.parents):
        candidate = directory / BASELINE_NAME
        if candidate.is_file():
            return candidate
    return None


def _select_rules(spec: Optional[str]) -> Sequence[FlowRule]:
    rules = flow_rules()
    if not spec:
        return rules
    wanted = {token.strip().upper()
              for token in spec.split(",") if token.strip()}
    known = {rule.rule_id for rule in rules}
    unknown = wanted - known
    if unknown:
        raise ValueError(
            f"unknown flow rule IDs: {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known))}")
    return tuple(rule for rule in rules if rule.rule_id in wanted)


def _emit(text: str, destination: Optional[str]) -> None:
    if destination:
        Path(destination).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro.checkers.flow.analyze``."""
    parser = build_parser(
        "repro-analyze",
        "Whole-program determinism analyzer for the SoftTRR "
        "reproduction (flow rules RPR009..RPR014).")
    parser.add_argument(
        "root", nargs="?", default="src/repro",
        help="package directory to analyse (default: src/repro)")
    add_json_option(parser)
    add_check_option(
        parser, "gate mode: exit 1 on any non-grandfathered finding")
    add_out_option(
        parser, help_text="write the JSON report / graph dump to PATH")
    parser.add_argument(
        "--rules", default=None, metavar="IDS",
        help="comma-separated flow rule IDs to run (default: all)")
    parser.add_argument(
        "--graph", action="store_true",
        help="dump the resolved call graph as JSON and exit")
    parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help=f"baseline file (default: nearest {BASELINE_NAME})")
    parser.add_argument(
        "--write-baseline", action="store_true",
        help="record current findings as the new baseline and exit")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the known flow rules and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in flow_rules():
            print(f"{rule.rule_id}  {rule.description}")
        return EXIT_OK

    started = time.perf_counter()  # repro-lint: disable=RPR001
    try:
        rules = _select_rules(args.rules)
        program = Program.from_root(args.root)
    except (CallGraphError, FileNotFoundError, ValueError) as exc:
        print(f"repro-analyze: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SyntaxError as exc:
        print(f"repro-analyze: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    if args.graph:
        _emit(json.dumps(program.graph_dict(), indent=2, sort_keys=True),
              args.out)
        return EXIT_OK

    findings = run_flow_rules(program, rules)
    wall_time_s = round(time.perf_counter() - started, 4)  # repro-lint: disable=RPR001

    root = Path(args.root).resolve()
    baseline_path = Path(args.baseline) if args.baseline else \
        _default_baseline(root)
    if args.write_baseline:
        target = Path(args.baseline) if args.baseline else \
            (baseline_path or root.parent / BASELINE_NAME)
        target.write_text(json.dumps(
            {"fingerprints": sorted(f.fingerprint() for f in findings)},
            indent=2) + "\n", encoding="utf-8")
        print(f"repro-analyze: wrote {len(findings)} fingerprint(s) "
              f"to {target}", file=sys.stderr)
        return EXIT_OK

    grandfathered_fps: Set[str] = set()
    if baseline_path is not None:
        try:
            grandfathered_fps = load_baseline(baseline_path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            print(f"repro-analyze: bad baseline: {exc}", file=sys.stderr)
            return EXIT_USAGE
    fresh: List[Finding] = [
        f for f in findings if f.fingerprint() not in grandfathered_fps]
    grandfathered = len(findings) - len(fresh)

    report = {
        "root": str(args.root),
        "modules": program.module_count(),
        "functions": len(program.facts),
        "rules": [rule.rule_id for rule in rules],
        "findings": [f.as_dict() for f in fresh],
        "count": len(fresh),
        "grandfathered": grandfathered,
        "wall_time_s": wall_time_s,
    }
    try:
        if args.json or args.out:
            text = json.dumps(report, indent=2)
            _emit(text, args.out)
            if args.out and not args.json:
                for finding in fresh:
                    print(finding.format_text())
        else:
            for finding in fresh:
                print(finding.format_text())
            summary = (f"{len(fresh)} finding(s)"
                       + (f", {grandfathered} grandfathered"
                          if grandfathered else "")
                       + f" across {program.module_count()} module(s) "
                         f"in {wall_time_s}s")
            print(summary, file=sys.stderr)
    except BrokenPipeError:  # `repro-analyze ... | head` is fine
        sys.stderr.close()
    return EXIT_CHECK_FAILED if fresh else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
