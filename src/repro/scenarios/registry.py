"""The paper's evaluation grid as a flat scenario registry.

Every cell of Tables II–V, Figures 4–5 and the extra benches is named
here as data — machine + defense + attack/workload + knobs — so any
subset can be handed to :func:`repro.scenarios.runner.run_sweep` or run
as a ``repro-fleet run --group`` fleet (``repro-fleet list`` prints
them).  Groups:

``table2``     Section V security grid: each paper machine runs its
               attack on the vanilla system and under SoftTRR.
``baselines``  The Sections I/II comparison matrix on the tiny machine
               (CATT/CTA/ZebRAM/ANVIL/RIP-RH/ALIS/SoftTRR vs attacks).
``table3``     SPECspeed 2017 Integer overhead (10 programs).
``table4``     Phoronix suite overhead (17 programs).
``table5``     LTP robustness (20 stress tests x vanilla/Δ±1/Δ±6).
``lamp``       Figures 4–5 LAMP memory/page series (Δ±1 and Δ±6).
``anatomy``    The DP3 overhead decomposition (extra bench).
``smoke``      A seconds-scale subset used by CI and the test suite.
``chaos``      Fault-injection cells (one per ``repro.faults`` site,
               healing on and off), gated by ``repro-fleet status``.
``zoo``        Defense-zoo cells (every tracker vs every hammer pattern
               and the memory spray), gated the same way.
``patterns``   Hammer-pattern DSL cells (:mod:`repro.patterns`):
               DSL-authored sided patterns vs the headline defenses on
               the rows and page-table targets.

This registry is the only copy of the paper's grids: the paper-table
benches under ``benchmarks/`` run and render these groups.  The params
here are the laptop-friendly scale that regenerates the tables' *shape
and verdicts*; ``REPRO_FULL=1`` makes those benches lay paper-scale
params over the specs (``FULL_PARAMS`` in ``benchmarks/conftest.py``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ConfigError
from .spec import ScenarioSpec

__all__ = ["SCENARIOS", "scenario", "scenario_group", "list_groups"]

#: ANVIL timing scaled to the tiny machine's weaker DRAM.  SoftTRR's and
#: the smoke spray knobs come from :mod:`repro.analysis.zoo`, imported in
#: the builders: a module-level import would cycle back here.
_TINY_ANVIL = {"interval_ns": 50_000, "miss_threshold": 300,
               "row_threshold": 3}


def _table2() -> List[ScenarioSpec]:
    grid: Tuple = (
        ("optiplex_390", "memory_spray", 8_000_000),
        ("optiplex_990", "cattmew", 8_000_000),
        ("thinkpad_x230", "pthammer", 16_000_000),
    )
    out = []
    for machine, attack, hammer_ns in grid:
        for defense in ("vanilla", "softtrr"):
            out.append(ScenarioSpec(
                name=f"table2-{attack}-{defense}",
                kind="attack",
                group="table2",
                title=f"Table II: {attack} on {machine} ({defense})",
                machine=machine,
                defense=defense,
                attack=attack,
                params={
                    "m": 2,
                    "region_pages": 288,
                    "template_rounds": 16_000,
                    "hammer_ns": hammer_ns,
                    # Paper order: template first, then "enable SoftTRR
                    # ... re-start the optimized attack".
                    "install_after_setup": True,
                },
            ))
    return out


def _baselines() -> List[ScenarioSpec]:
    from ..analysis.zoo import SPRAY_KNOBS, TINY_DEFENSE_PARAMS

    #: (defense, defense_params, attack, extra params)
    grid = (
        ("vanilla", {}, "memory_spray", {}),
        ("vanilla", {}, "cattmew", {}),
        ("vanilla", {}, "pthammer_spray", {}),
        ("catt", {}, "memory_spray", {}),
        ("catt", {}, "cattmew", {}),
        ("catt", {}, "pthammer_spray", {}),
        ("cta", {}, "memory_spray", {}),
        ("cta", {}, "cattmew", {}),
        ("cta", {}, "pthammer_spray", {}),
        ("zebram", {}, "memory_spray", {}),
        ("zebram", {}, "memory_spray_d2", {}),
        ("anvil", _TINY_ANVIL, "memory_spray", {}),
        ("anvil", _TINY_ANVIL, "pthammer_spray", {}),
        ("riprh", {}, "memory_spray", {}),
        ("alis", {}, "memory_spray", {}),
        # Fit inside ALIS's bounded DMA partition.
        ("alis", {}, "cattmew", {"region_pages": 96}),
        ("softtrr", TINY_DEFENSE_PARAMS["softtrr"], "memory_spray", {}),
        ("softtrr", TINY_DEFENSE_PARAMS["softtrr"], "cattmew", {}),
        ("softtrr", TINY_DEFENSE_PARAMS["softtrr"], "pthammer_spray", {}),
    )
    out = []
    for defense, defense_params, attack, extra in grid:
        out.append(ScenarioSpec(
            name=f"baselines-{defense}-{attack}",
            kind="attack",
            group="baselines",
            title=f"Baseline matrix: {attack} vs {defense}",
            machine="tiny",
            defense=defense,
            defense_params=defense_params,
            attack=attack,
            params={**SPRAY_KNOBS, **extra},
        ))
    return out


def _overhead_suite(group: str, suite: str, order, duration_ms: int
                    ) -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name=f"{group}-{program.replace(':', '_')}",
            kind="overhead",
            group=group,
            title=f"{suite} overhead: {program}",
            machine="perf_testbed",
            defense="softtrr",
            workload=f"{suite}:{program}",
            params={"duration_ms": duration_ms, "seed": 17},
        )
        for program in order
    ]


def _table3() -> List[ScenarioSpec]:
    from ..workloads.spec import SPEC_ORDER

    return _overhead_suite("table3", "spec", SPEC_ORDER, 80)


def _table4() -> List[ScenarioSpec]:
    from ..workloads.phoronix import PHORONIX_ORDER

    return _overhead_suite("table4", "phoronix", PHORONIX_ORDER, 70)


def _table5() -> List[ScenarioSpec]:
    from ..workloads.ltp import LTP_STRESS_TESTS

    out = []
    for test in LTP_STRESS_TESTS:
        for label, distance in (("vanilla", None), ("d1", 1), ("d6", 6)):
            out.append(ScenarioSpec(
                name=f"table5-{test}-{label}",
                kind="stress",
                group="table5",
                title=f"Table V: {test} ({label})",
                machine="perf_testbed",
                defense="vanilla" if distance is None else "softtrr",
                workload=test,
                params={"distance": distance, "iterations": 10},
            ))
    return out


def _lamp() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name=f"lamp-d{distance}",
            kind="lamp",
            group="lamp",
            title=f"Figures 4-5: LAMP series under Δ±{distance}",
            machine="perf_testbed",
            defense="softtrr",
            params={"distance": distance, "minutes": 24, "workers": 3,
                    "requests_per_minute": 20, "seed": 60},
        )
        for distance in (1, 6)
    ]


def _anatomy() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(
            name=f"anatomy-{program}",
            kind="breakdown",
            group="anatomy",
            title=f"DP3 overhead anatomy: {program}",
            machine="perf_testbed",
            defense="softtrr",
            workload=f"spec:{program}",
            params={"duration_ms": 50, "seed": 17},
        )
        for program in ("exchange2_s", "gcc_s", "xalancbmk_s")
    ]


def _smoke() -> List[ScenarioSpec]:
    from ..analysis.zoo import SPRAY_KNOBS, TINY_DEFENSE_PARAMS

    return [
        ScenarioSpec(
            name="smoke-spray-vanilla",
            kind="attack",
            group="smoke",
            title="Smoke: memory spray corrupts the vanilla tiny machine",
            machine="tiny",
            attack="memory_spray",
            params=SPRAY_KNOBS,
        ),
        ScenarioSpec(
            name="smoke-spray-softtrr",
            kind="attack",
            group="smoke",
            title="Smoke: SoftTRR stops the same spray",
            machine="tiny",
            defense="softtrr",
            defense_params=TINY_DEFENSE_PARAMS["softtrr"],
            attack="memory_spray",
            params=SPRAY_KNOBS,
        ),
        ScenarioSpec(
            name="smoke-overhead-exchange2",
            kind="overhead",
            group="smoke",
            title="Smoke: one SPEC program overhead",
            workload="spec:exchange2_s",
            defense="softtrr",
            params={"duration_ms": 10, "seed": 17},
        ),
        ScenarioSpec(
            name="smoke-stress-clone",
            kind="stress",
            group="smoke",
            title="Smoke: clone storm under Δ±1",
            defense="softtrr",
            workload="clone",
            params={"distance": 1, "iterations": 2},
        ),
        ScenarioSpec(
            name="smoke-lamp-d1",
            kind="lamp",
            group="smoke",
            title="Smoke: two LAMP minutes under Δ±1",
            defense="softtrr",
            params={"distance": 1, "minutes": 2, "workers": 3,
                    "requests_per_minute": 20, "seed": 60},
        ),
    ]


def _chaos() -> List[ScenarioSpec]:
    from ..analysis.zoo import TINY_DEFENSE_PARAMS
    from ..faults import FAULT_SITES

    out = []
    for site in FAULT_SITES:
        for healing in (True, False):
            label = "healed" if healing else "raw"
            out.append(ScenarioSpec(
                name=f"chaos-{site}-{label}",
                kind="chaos",
                group="chaos",
                title=(f"Chaos: {site} faults at default intensity "
                       f"({'healing on' if healing else 'healing off'})"),
                machine="tiny",
                defense="softtrr",
                defense_params=TINY_DEFENSE_PARAMS["softtrr"],
                params={"site": site, "healing": healing},
            ))
    return out


def _zoo() -> List[ScenarioSpec]:
    from ..analysis.zoo import zoo_specs

    return zoo_specs()


def _patterns() -> List[ScenarioSpec]:
    from ..patterns.scenario import pattern_specs

    return pattern_specs()


def _build() -> Dict[str, ScenarioSpec]:
    registry: Dict[str, ScenarioSpec] = {}
    for builder in (_table2, _baselines, _table3, _table4, _table5,
                    _lamp, _anatomy, _smoke, _chaos, _zoo, _patterns):
        for spec in builder():
            if spec.name in registry:
                raise ConfigError(f"duplicate scenario name {spec.name!r}")
            registry[spec.name] = spec
    return registry


#: name -> ScenarioSpec for every registered paper scenario.
SCENARIOS: Dict[str, ScenarioSpec] = _build()


def scenario(name: str) -> ScenarioSpec:
    """Look up one scenario by name."""
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ConfigError(
            f"unknown scenario {name!r}; see list_groups() or "
            "`repro-fleet list`") from None


def scenario_group(group: str) -> List[ScenarioSpec]:
    """All scenarios of one group, in registration order."""
    specs = [s for s in SCENARIOS.values() if s.group == group]
    if not specs:
        raise ConfigError(
            f"unknown scenario group {group!r}; known: {list_groups()}")
    return specs


def list_groups() -> List[str]:
    """Registered group names, in registration order."""
    seen: List[str] = []
    for spec in SCENARIOS.values():
        if spec.group not in seen:
            seen.append(spec.group)
    return seen
