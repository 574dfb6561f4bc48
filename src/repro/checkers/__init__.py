"""Correctness tooling: lint passes + runtime invariant sanitizers.

Three halves:

* :mod:`repro.checkers.lint` — a per-file AST lint with repo-specific
  rules (RPR001..RPR008), runnable as ``python -m repro.checkers.lint
  src/`` or via the ``repro-lint`` entry point.
* :mod:`repro.checkers.flow` — a whole-program flow pass (RPR009..
  RPR014: trace purity, RNG provenance, snapshot safety, sweep
  picklability, tracker layering, pattern compile purity), runnable as
  ``repro-lint --deep``.
* :mod:`repro.checkers.sanitizers` — runtime invariant checks that
  install at the simulation's choke points and accumulate violations
  into a :class:`~repro.checkers.report.SanitizerReport`.

See the "Correctness tooling" sections of README.md and DESIGN.md
(§6 runtime, §9 static).
"""

from .framework import (
    Finding,
    LintContext,
    LintRule,
    SourceFile,
    lint_source,
    make_rules,
    register_rule,
    registered_rule_classes,
)
from .report import SanitizerReport, Violation
from .rules import default_rules
from .sanitizers import (
    SanitizerManager,
    check_window,
    check_window_config,
    install_sanitizers,
    sanitized,
)

__all__ = [
    "Finding",
    "LintContext",
    "LintRule",
    "SourceFile",
    "lint_source",
    "make_rules",
    "register_rule",
    "registered_rule_classes",
    "SanitizerReport",
    "Violation",
    "default_rules",
    "SanitizerManager",
    "check_window",
    "check_window_config",
    "install_sanitizers",
    "sanitized",
]
