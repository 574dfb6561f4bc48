"""Sharded, checkpointed, crash-tolerant experiment fleets.

Layers a campaign-scale pipeline over the pure scenario runner: a
:class:`FleetSpec` expands the scenario x seed x defense x fault-plan
cross product into content-hashed cells, a supervisor drives them
(in its own process at ``jobs=1``, across a work-stealing worker pool
above that) with per-cell timeouts, bounded retry and poison-cell
quarantine, every completed cell streams to an
append-only per-shard JSONL checkpoint, and a killed fleet resumes
from its manifest with a byte-identical aggregate report (the
``repro-fleet`` CLI).
"""

from .checkpoint import MANIFEST_NAME, REPORT_NAME, ResultDir
from .report import build_report, fleet_status, render_report
from .runners import materialise_scenario, run_fleet_cell, run_window_cell
from .spec import (
    CELL_RUNNERS,
    FleetCell,
    FleetSpec,
    cell_id_of,
    expand_cells,
    shard_of,
)
from .supervisor import FleetSummary, resume_fleet, run_fleet

__all__ = [
    "CELL_RUNNERS",
    "FleetCell",
    "FleetSpec",
    "FleetSummary",
    "MANIFEST_NAME",
    "REPORT_NAME",
    "ResultDir",
    "build_report",
    "cell_id_of",
    "expand_cells",
    "fleet_status",
    "materialise_scenario",
    "render_report",
    "resume_fleet",
    "run_fleet",
    "run_fleet_cell",
    "run_window_cell",
    "shard_of",
]
