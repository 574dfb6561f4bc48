"""Scenario execution: one spec in, one JSON-stable result out.

``run_scenario`` dispatches on the scenario kind and drives the
corresponding analysis machinery on a freshly assembled
:class:`~repro.machine.Machine`.  ``run_sweep`` fans a scenario list
across multiprocessing workers; because every scenario is a pure
function of its spec (seeded RNG, simulated clock, no wall-clock or
process state), the merged result list is byte-identical to serial
execution — ``--jobs N`` is a throughput knob, never a semantics
knob.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Iterable, List, Sequence, Union

from ..errors import AttackError, ConfigError, DefenseError, TemplatingError
from ..machine import Machine, MachineConfig, build_defense
from .spec import ScenarioResult, ScenarioSpec

__all__ = ["run_scenario", "run_scenario_guarded", "run_sweep"]


# ------------------------------------------------------------- workloads
def _suite_profiles(suite: str):
    if suite == "spec":
        from ..workloads.spec import SPEC_PROFILES

        return SPEC_PROFILES
    if suite == "phoronix":
        from ..workloads.phoronix import PHORONIX_PROFILES

        return PHORONIX_PROFILES
    raise ConfigError(f"unknown workload suite {suite!r}")


def _resolve_profile(workload: str, duration_ms=None):
    """``"suite:program"`` -> a (possibly re-timed) WorkloadProfile."""
    suite, _, program = workload.partition(":")
    if not program:
        raise ConfigError(
            f"workload {workload!r} must be 'suite:program'")
    profiles = _suite_profiles(suite)
    try:
        profile = profiles[program]
    except KeyError:
        raise ConfigError(
            f"unknown program {program!r} in suite {suite!r}") from None
    if duration_ms is not None:
        profile = profile.replace(duration_ms=duration_ms)
    return profile


# --------------------------------------------------------------- attacks
def _build_attack(kernel, name: str, params):
    from ..attacks.cattmew import CattmewAttack
    from ..attacks.memory_spray import MemorySprayAttack
    from ..attacks.pthammer import PthammerAttack, PthammerSprayAttack

    m = params.get("m", 1)
    kwargs = {
        "m": m,
        "region_pages": params.get("region_pages", 224),
        "template_rounds": params.get("template_rounds", 5_000),
    }
    if name == "memory_spray":
        return MemorySprayAttack(kernel, **kwargs)
    if name == "memory_spray_d2":
        return MemorySprayAttack(
            kernel, pattern_override="distance_two", **kwargs)
    if name == "cattmew":
        return CattmewAttack(kernel, **kwargs)
    if name == "pthammer":
        return PthammerAttack(kernel, **kwargs)
    if name == "pthammer_spray":
        return PthammerSprayAttack(
            kernel, spray_count=params.get("spray_count", 96), victims=m)
    raise ConfigError(f"unknown attack {name!r}")


def _run_attack(spec: ScenarioSpec) -> dict:
    params = spec.params
    install_after_setup = params.get("install_after_setup", False)
    config = MachineConfig(
        machine=spec.machine,
        defense="vanilla" if install_after_setup else spec.defense,
        defense_params={} if install_after_setup else spec.defense_params,
        # Fleet cells sweep the machine seed and an optional fault plan
        # through scenario params; absent both, defaults apply.
        seed=params.get("seed"),
        fault_plan=params.get("fault_plan"),
    )
    machine = Machine(config)
    kernel = machine.kernel
    try:
        attack = _build_attack(kernel, spec.attack, params)
        attack.setup()
        if install_after_setup and spec.defense != "vanilla":
            build_defense(spec.defense, spec.defense_params).install(kernel)
        outcome = attack.run(
            hammer_ns_per_victim=params.get("hammer_ns", 8_000_000))
    except (DefenseError, TemplatingError) as exc:
        return {"verdict": "blocked",
                "detail": f"{type(exc).__name__}: structural"}
    except AttackError as exc:
        return {"verdict": "blocked", "detail": str(exc)[:60]}
    return {
        "verdict": "bypassed" if outcome.succeeded else "blocked",
        "attack": outcome.attack,
        "machine": outcome.machine,
        "m": outcome.m,
        "hammer_time_ns": outcome.hammer_time_ns,
        "targeted_pt_pages": sorted(outcome.targeted_pt_pages),
        "flipped_pt_pages": sorted(outcome.flipped_pt_pages),
        "flip_events_in_pts": outcome.flip_events_in_pts,
        "softtrr_loaded": outcome.softtrr_loaded,
        "bit_flip_failed": outcome.bit_flip_failed,
    }


# -------------------------------------------------------------- overhead
def _spec_factory(spec: ScenarioSpec):
    def factory():
        return MachineConfig(machine=spec.machine).build_spec()

    return factory


def _run_overhead(spec: ScenarioSpec) -> dict:
    from ..analysis.overhead import measure_overhead

    params = spec.params
    profile = _resolve_profile(spec.workload, params.get("duration_ms"))
    row = measure_overhead(
        profile,
        spec_factory=_spec_factory(spec),
        seed=params.get("seed", 17),
        noise_sigma_pct=params.get("noise_sigma_pct", 0.35),
    )
    return asdict(row)


def _run_breakdown(spec: ScenarioSpec) -> dict:
    from ..analysis.breakdown import measure_breakdown
    from ..core.profile import SoftTrrParams

    params = spec.params
    profile = _resolve_profile(spec.workload, params.get("duration_ms"))
    breakdown = measure_breakdown(
        profile,
        spec_factory=_spec_factory(spec),
        params=SoftTrrParams(**spec.defense_params)
        if spec.defense_params else None,
        seed=params.get("seed", 17),
    )
    return asdict(breakdown)


# ------------------------------------------------------------------ lamp
def _run_lamp(spec: ScenarioSpec) -> dict:
    from ..analysis.memory import measure_lamp, summarise

    params = spec.params
    distance = params.get("distance", 1)
    samples = measure_lamp(
        distance,
        minutes=params.get("minutes", 24),
        spec_factory=_spec_factory(spec),
        workers=params.get("workers", 3),
        requests_per_minute=params.get("requests_per_minute", 20),
        seed=params.get("seed", 60),
    )
    return {
        "distance": distance,
        "summary": summarise(samples),
        "series": [asdict(sample) for sample in samples],
    }


# ---------------------------------------------------------------- stress
def _run_stress(spec: ScenarioSpec) -> dict:
    from ..analysis.robustness import stress_machine
    from ..workloads.ltp import run_stress_test

    params = spec.params
    distance = params.get("distance")
    machine = stress_machine(_spec_factory(spec), distance)
    result = run_stress_test(
        machine.kernel, spec.workload, iterations=params.get("iterations"))
    return {
        "test": spec.workload,
        "distance": distance,
        "iterations": result.iterations,
        "passed": result.passed,
        "error": result.error,
    }


# ----------------------------------------------------------------- chaos
def _run_chaos(spec: ScenarioSpec) -> dict:
    from ..analysis.chaos import run_chaos_scenario

    return run_chaos_scenario(spec)


# ------------------------------------------------------------------- zoo
def _run_zoo(spec: ScenarioSpec) -> dict:
    from ..analysis.zoo import run_zoo_scenario

    return run_zoo_scenario(spec)


# --------------------------------------------------------------- pattern
def _run_pattern(spec: ScenarioSpec) -> dict:
    from ..patterns.scenario import run_pattern_scenario

    return run_pattern_scenario(spec)


_RUNNERS = {
    "attack": _run_attack,
    "overhead": _run_overhead,
    "breakdown": _run_breakdown,
    "lamp": _run_lamp,
    "stress": _run_stress,
    "chaos": _run_chaos,
    "zoo": _run_zoo,
    "pattern": _run_pattern,
}


def run_scenario(spec: Union[ScenarioSpec, str]) -> ScenarioResult:
    """Execute one scenario (by spec or registered name)."""
    if isinstance(spec, str):
        from .registry import scenario

        spec = scenario(spec)
    payload = _RUNNERS[spec.kind](spec)
    return ScenarioResult(
        name=spec.name, kind=spec.kind, group=spec.group, payload=payload)


def run_scenario_guarded(spec: ScenarioSpec) -> ScenarioResult:
    """``run_scenario`` with per-cell failure containment.

    A raising cell becomes a structured error result (name, kind,
    error type/message under ``payload["error"]``) instead of
    propagating — so one bad cell can never sink its siblings, and a
    sweep always returns a full-length result list with failures
    recorded in place.
    """
    try:
        return run_scenario(spec)
    except Exception as exc:  # noqa: BLE001 — the containment boundary
        return ScenarioResult(
            name=spec.name,
            kind=spec.kind,
            group=spec.group,
            payload={
                "error": {
                    "type": type(exc).__name__,
                    "message": str(exc)[:200],
                },
            },
        )


def run_sweep(specs: Iterable[Union[ScenarioSpec, str]],
              workers: int = 1) -> List[ScenarioResult]:
    """Run a scenario list, optionally fanned across worker processes.

    Results come back in input order and are byte-identical to a
    serial run for any worker count: each scenario is a pure function
    of its spec (seeded RNG, simulated clock), and the merge preserves
    order rather than completion time.  A raising cell is caught into a
    structured error result (:func:`run_scenario_guarded`) rather than
    aborting the sibling cells, on both the serial and parallel paths.
    """
    from .registry import scenario

    resolved: Sequence[ScenarioSpec] = [
        scenario(s) if isinstance(s, str) else s for s in specs]
    if workers <= 1 or len(resolved) <= 1:
        return [run_scenario_guarded(s) for s in resolved]
    import multiprocessing

    with multiprocessing.Pool(processes=min(workers, len(resolved))) as pool:
        return pool.map(run_scenario_guarded, resolved)
