"""Chaos cells: SoftTRR's protection under injected machine faults.

The paper's security argument (``threshold = timer_inr x (count_limit -
1)``) silently assumes a perfectly reliable substrate: every timer tick
fires, every hook notify lands, every RSVD fault reaches the tracer,
every ``invlpg`` invalidates, every refresh read recharges its row.  The
chaos harness perturbs exactly those five choke points through
:mod:`repro.faults` and measures two things per site:

* **protection-window erosion** — simulated nanoseconds of hammer time
  the tracer effectively lost to unhealed faults (counter-based, so it
  is deterministic and cheap);
* **ground truth** — whether any :class:`FlipEvent` landed in an L1PT
  frame, read straight from the DRAM substrate.

Each cell runs the smoke-scale memory-spray attack on the tiny machine
with one fault site active, healing on (`HEALING_PARAMS`) or off, under
the runtime sanitizers in report mode.  The sweep grid is the
registry's ``chaos`` group, run as ``repro-fleet run --group chaos``;
``repro-fleet status --check`` gates it (:mod:`repro.fleet.report`):
healing on must keep every L1PT clean, and at least one raw cell must
show measurable erosion (otherwise the injection itself is dead).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..errors import ConfigError
from ..faults import FAULT_SITES, SITE_MODES, FaultPlan, FaultSpec
from ..scenarios.spec import ScenarioSpec
from .zoo import SPRAY_KNOBS, build_machine, spray_leg

__all__ = [
    "DEFAULT_INTENSITY",
    "HEALING_PARAMS",
    "run_chaos_cell",
    "run_chaos_scenario",
    "site_spec",
]

#: SoftTrrParams overrides that switch every graceful-degradation
#: policy on (the "healed" column of the sweep).
HEALING_PARAMS = {
    "heal_refresh_retries": 4,
    "heal_refresh_backoff_ns": 500,
    "heal_watchdog": True,
    "heal_resync_every": 4,
}

#: Default per-opportunity fault probability for every site.
DEFAULT_INTENSITY = 0.25


def site_spec(site: str, seed: int = 0) -> FaultSpec:
    """The representative :class:`FaultSpec` for one site: its first
    :data:`~repro.faults.SITE_MODES` mode at :data:`DEFAULT_INTENSITY`."""
    if site not in SITE_MODES:
        raise ConfigError(
            f"unknown fault site {site!r}; known: {FAULT_SITES}")
    return FaultSpec(site=site, mode=SITE_MODES[site][0],
                     probability=DEFAULT_INTENSITY, seed=seed)


def _erosion_ns(site: str, counters: Mapping[str, int],
                timer_inr_ns: int, protection_window_ns: int) -> int:
    """Simulated hammer time the tracer lost to unhealed faults.

    A lost tick/notify/fault/invlpg blinds the tracer for roughly one
    timer interval (the counting granularity); a failed refresh forfeits
    a whole protection window the refresher believed it had closed.
    """
    unhealed = max(0, counters["injected"] - counters["healed"])
    if site == "refresher":
        return unhealed * protection_window_ns
    return unhealed * timer_inr_ns


def run_chaos_cell(
    site: str,
    healing: bool = True,
    seed: int = 11,
    machine_name: str = "tiny",
    defense_params: Optional[Mapping] = None,
    attack_params: Optional[Mapping] = None,
) -> dict:
    """One chaos cell: smoke attack under one active fault site.

    Deterministic in all arguments (seeded injector streams, simulated
    clock); returns a JSON-stable payload dict.
    """
    params = dict(defense_params or {})
    if healing:
        params.update(HEALING_PARAMS)
    spec = site_spec(site, seed)
    # The plan makes build_machine arm report-mode sanitizers, never
    # strict: a lost invlpg legitimately leaves a stale TLB entry
    # behind — that is the fault, not a model bug.
    machine = build_machine(
        "softtrr", params, machine_name,
        fault_plan=FaultPlan(specs=(spec,), seed=seed))
    payload: Dict[str, object] = {
        "site": site,
        "mode": spec.mode,
        "intensity": DEFAULT_INTENSITY,
        "healing": healing,
        "seed": seed,
    }
    payload.update(spray_leg(machine, {**SPRAY_KNOBS,
                                       **(attack_params or {})}))
    softtrr = machine.softtrr
    trr_params = softtrr.params
    site_counters = machine.telemetry.group(f"faults.{site}")
    payload["faults"] = site_counters
    payload["erosion_ns"] = _erosion_ns(
        site, site_counters, trr_params.timer_inr_ns,
        trr_params.protection_window_ns)
    stats = softtrr.stats()
    payload["healing_stats"] = {
        "refreshes": stats.refreshes,
        "failed_refreshes": stats.failed_refreshes,
        "retried_refreshes": stats.retried_refreshes,
        "watchdog_refreshes": stats.watchdog_refreshes,
        "resyncs": stats.resyncs,
        "resync_repairs": stats.resync_repairs,
    }
    sanitizers = machine.sanitizers
    payload["sanitizer_violations"] = (
        0 if sanitizers is None else len(sanitizers.checkpoint()))
    return payload


def run_chaos_scenario(spec: ScenarioSpec) -> dict:
    """Adapter for the scenario runner (``kind="chaos"``).

    The cell fixes its own defense (SoftTRR) and fault plan, so the
    fleet rejects a defenses or fault-plans axis on chaos scenarios
    (:meth:`repro.fleet.spec.FleetSpec.validate_names`).
    """
    params = spec.params
    return run_chaos_cell(
        site=params["site"],
        healing=params.get("healing", True),
        seed=params.get("seed", 11),
        machine_name=spec.machine,
        defense_params=spec.defense_params,
        attack_params={k: params[k] for k in SPRAY_KNOBS if k in params},
    )
