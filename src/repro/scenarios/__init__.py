"""Scenario registry and sweep runner for the paper's evaluation grid.

Names every paper scenario (Tables II–V, Figures 4–5, extra benches) as
declarative :class:`ScenarioSpec` data on top of :mod:`repro.machine`,
and runs any subset serially or across multiprocessing workers with
byte-identical merged output.  ``repro-fleet run --group`` runs a group
as a checkpointed fleet and ``repro-fleet list`` prints the registry.
"""

from .registry import SCENARIOS, list_groups, scenario, scenario_group
from .runner import run_scenario, run_scenario_guarded, run_sweep
from .spec import KINDS, ScenarioResult, ScenarioSpec, results_to_json

__all__ = [
    "KINDS",
    "SCENARIOS",
    "ScenarioResult",
    "ScenarioSpec",
    "list_groups",
    "results_to_json",
    "run_scenario",
    "run_scenario_guarded",
    "run_sweep",
    "scenario",
    "scenario_group",
]
