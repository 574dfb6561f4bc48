"""Whole-program flow analysis (``repro-lint --deep`` / ``--graph``).

Layered on the per-file lint framework: :mod:`.symbols` builds a
cross-module symbol table, :mod:`.callgraph` resolves calls and collects
per-function facts, :mod:`.taint` runs reachability, and
:mod:`.rules_flow` implements RPR009–RPR014 on top.  The CLI is
:mod:`repro.checkers.lint`.

Importing this package registers the flow rules in the shared registry.
"""

from .callgraph import Program
from .rules_flow import (
    FlowRule,
    RngProvenanceRule,
    SnapshotSafetyRule,
    SweepPicklabilityRule,
    TracePurityRule,
    flow_rules,
    run_flow_rules,
)
from .symbols import (
    ClassInfo,
    External,
    FunctionInfo,
    ModuleInfo,
    SymbolTable,
    module_name_for,
    package_root_of,
)
from .taint import chain_to, closure_from

__all__ = [
    "ClassInfo",
    "External",
    "FlowRule",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "RngProvenanceRule",
    "SnapshotSafetyRule",
    "SweepPicklabilityRule",
    "SymbolTable",
    "TracePurityRule",
    "chain_to",
    "closure_from",
    "flow_rules",
    "module_name_for",
    "package_root_of",
    "run_flow_rules",
]
