"""Fleet data model: the experiment cross product as plain data.

A :class:`FleetSpec` names four axes — scenarios x seeds x defenses x
fault plans — plus the cell runner and the supervisor's robustness
knobs (shard count, per-cell timeout, retry budget, backoff).  It
expands deterministically into a stably-ordered list of
:class:`FleetCell` records, each with a content-hashed ``cell_id``:
two processes expanding the same spec agree on every cell, its id and
its shard, which is what makes a killed fleet resumable — the manifest
and the re-expanded spec must name the same work.

Axis semantics per cell runner:

* ``"scenario"`` — the scenarios axis holds registered scenario names
  (:mod:`repro.scenarios.registry`); the defense/seed/fault-plan axes
  override the named spec's fields (seed and fault plan travel through
  ``params`` and are honoured by the scenario runner's machine
  assembly).  Chaos scenarios fix SoftTRR and their own fault plan, so
  they reject a defenses or fault-plans axis.
* ``"window"`` — the scenarios axis holds hammer pattern names
  (``one_sided``/``double_sided``/``many_sided``/``spray``); each cell
  is a protection-window bench on a fresh machine (flips, refresh
  overhead, windows covered, span histograms).
* ``"synthetic"`` — any names; cells are hash-derived payloads used by
  the fleet's own tests and CI smoke (poison/flaky/hang injection via
  ``runner_params``).
* ``"fuzz"`` — the scenarios axis holds fuzz-point names
  (``point-0``, ``point-1``, ...); each cell regenerates that point of
  the seeded pattern-fuzz campaign (:mod:`repro.patterns.fuzz`) from
  its index and runs it against the cell's defense — the campaign's
  sampling seed travels in ``runner_params["fuzz_seed"]``, while the
  seed axis varies the machine under the point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import ConfigError, FaultError

__all__ = [
    "CELL_RUNNERS",
    "FleetCell",
    "FleetSpec",
    "cell_id_of",
    "expand_cells",
    "shard_of",
]

#: Cell runners the fleet supervisor knows how to drive
#: (implementations live in :mod:`repro.fleet.runners`).
CELL_RUNNERS = ("scenario", "window", "synthetic", "fuzz")


def _canonical(payload) -> str:
    """Canonical JSON — the hashing and comparison form."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cell_id_of(scenario: str, seed: Optional[int],
               defense: Optional[str], defense_params: Mapping,
               fault_plan: Optional[Mapping]) -> str:
    """Content-hashed cell identity (stable across processes/runs)."""
    digest = hashlib.sha256(_canonical({
        "scenario": scenario,
        "seed": seed,
        "defense": defense,
        "defense_params": dict(defense_params or {}),
        "fault_plan": dict(fault_plan) if fault_plan else None,
    }).encode("utf-8")).hexdigest()
    return digest[:16]


def shard_of(cell_id: str, shards: int) -> int:
    """Deterministic shard assignment by cell id."""
    if shards < 1:
        raise ConfigError("shards must be >= 1")
    return int(cell_id, 16) % shards


@dataclass(frozen=True)
class FleetCell:
    """One expanded experiment cell (a point of the cross product)."""

    index: int
    cell_id: str
    scenario: str
    seed: Optional[int]
    defense: Optional[str]
    defense_params: Mapping
    fault_plan: Optional[Mapping]
    shard: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "defense_params",
                           dict(self.defense_params or {}))
        if self.fault_plan is not None:
            object.__setattr__(self, "fault_plan", dict(self.fault_plan))

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-stable; the manifest/queue format)."""
        return {
            "index": self.index,
            "cell_id": self.cell_id,
            "scenario": self.scenario,
            "seed": self.seed,
            "defense": self.defense,
            "defense_params": dict(self.defense_params),
            "fault_plan": (dict(self.fault_plan)
                           if self.fault_plan else None),
            "shard": self.shard,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FleetCell":
        return cls(**{key: payload[key] for key in (
            "index", "cell_id", "scenario", "seed", "defense",
            "defense_params", "fault_plan", "shard")})

    def label(self) -> str:
        """Short human-readable tag for logs and the failure ledger."""
        parts = [self.scenario]
        if self.seed is not None:
            parts.append(f"seed={self.seed}")
        if self.defense is not None:
            parts.append(self.defense)
        if self.fault_plan:
            parts.append("faulted")
        return " ".join(parts)


#: The keys of a fleet spec's dict form, in :meth:`FleetSpec.to_dict`
#: order.
SPEC_FIELDS = ("scenarios", "seeds", "defenses", "fault_plans", "runner",
               "runner_params", "shards", "timeout_s", "max_attempts",
               "backoff_s")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


#: Supervisor knobs: (field, validity check, the rule it enforces).
_KNOBS = (
    ("shards", lambda v: _is_int(v) and v >= 1, "an int >= 1"),
    ("timeout_s", lambda v: _is_number(v) and v > 0, "a positive number"),
    ("max_attempts", lambda v: _is_int(v) and v >= 1, "an int >= 1"),
    ("backoff_s", lambda v: _is_number(v) and v >= 0, "a number >= 0"),
)


def _check_object(where: str, payload, known: Sequence[str]) -> None:
    """ConfigError unless ``payload`` is an object of ``known`` keys."""
    if not isinstance(payload, Mapping):
        raise ConfigError(
            f"{where} must be an object, not {type(payload).__name__}")
    unknown = sorted(set(payload) - set(known), key=str)
    if unknown:
        raise ConfigError(
            f"{where} has unknown keys {unknown}; known: {list(known)}")


def _axis(name: str, points, valid=lambda _: True, rule: str = "") -> tuple:
    """An axis as a tuple of valid points (a string is not an axis)."""
    if not isinstance(points, (list, tuple)):
        raise ConfigError(
            f"fleet spec {name!r} must be a list, not "
            f"{type(points).__name__}")
    for point in points:
        if not valid(point):
            raise ConfigError(
                f"fleet spec {name!r} entries must be {rule}, not {point!r}")
    return tuple(points)


def _coerce_defense(entry) -> Dict[str, object]:
    """A defenses-axis entry as ``{"name":..., "params": {...}}``.

    ``None`` is the neutral point (keep the scenario's own defense); its
    dict form, ``{"name": None, "params": {}}``, parses back to it.
    """
    where = f"fleet spec 'defenses' entry {entry!r}"
    if entry is None or isinstance(entry, str):
        entry = {"name": entry}
    _check_object(where, entry, ("name", "params"))
    name, params = entry.get("name", ""), entry.get("params", {})
    if not isinstance(params, Mapping):
        raise ConfigError(f"{where}: 'params' must be an object")
    if name is None and not params:
        return {"name": None, "params": {}}
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{where} needs a non-empty 'name' string")
    return {"name": name, "params": dict(params)}


def _coerce_fault_plan(entry) -> Optional[Dict[str, object]]:
    """A fault-plans-axis entry as a FaultPlan dict (or ``None``)."""
    if entry is None:
        return None
    from ..faults import FaultPlan

    where = f"fleet spec 'fault_plans' entry {entry!r}"
    specs, seeds = entry, []
    if isinstance(entry, Mapping):
        _check_object(where, entry, ("specs", "seed"))
        specs, seeds = entry.get("specs", ()), [entry.get("seed", 0)]
    if isinstance(specs, (list, tuple)):
        seeds += [spec.get("seed", 0) for spec in specs
                  if isinstance(spec, Mapping)]
    if not all(_is_int(seed) for seed in seeds):
        raise ConfigError(f"{where}: every 'seed' must be an int")
    try:
        return FaultPlan.coerce(entry).to_dict()
    except (FaultError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


@dataclass(frozen=True)
class FleetSpec:
    """The whole fleet as data: axes + runner + robustness knobs.

    ``scenarios`` is the only mandatory axis; an empty ``seeds`` /
    ``defenses`` / ``fault_plans`` axis contributes a single neutral
    point (``None`` — keep the scenario's own seed/defense, no fault
    plan), so the expansion is always the full cross product.
    """

    scenarios: Tuple[str, ...]
    seeds: Tuple[Optional[int], ...] = ()
    defenses: Tuple[Mapping, ...] = ()
    fault_plans: Tuple[Optional[Mapping], ...] = ()
    runner: str = "scenario"
    runner_params: Mapping = field(default_factory=dict)
    shards: int = 4
    timeout_s: float = 120.0
    max_attempts: int = 3
    backoff_s: float = 0.5

    def __post_init__(self) -> None:
        scenarios = _axis("scenarios", self.scenarios,
                          lambda v: isinstance(v, str) and v != "",
                          "non-empty strings")
        if not scenarios:
            raise ConfigError("a fleet needs at least one scenario")
        object.__setattr__(self, "scenarios", scenarios)
        object.__setattr__(self, "seeds", _axis(
            "seeds", self.seeds, lambda v: v is None or _is_int(v),
            "ints or null"))
        object.__setattr__(
            self, "defenses",
            tuple(_coerce_defense(entry)
                  for entry in _axis("defenses", self.defenses)))
        object.__setattr__(
            self, "fault_plans",
            tuple(_coerce_fault_plan(entry)
                  for entry in _axis("fault_plans", self.fault_plans)))
        if not isinstance(self.runner_params, Mapping):
            raise ConfigError(
                "fleet spec 'runner_params' must be an object, not "
                f"{type(self.runner_params).__name__}")
        object.__setattr__(self, "runner_params", dict(self.runner_params))
        if self.runner not in CELL_RUNNERS:
            raise ConfigError(
                f"unknown cell runner {self.runner!r}; known: "
                f"{CELL_RUNNERS}")
        for name, valid, rule in _KNOBS:
            value = getattr(self, name)
            if not valid(value):
                raise ConfigError(
                    f"fleet spec {name!r} must be {rule}, not {value!r}")

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-stable; stored in the manifest)."""
        return {
            "scenarios": list(self.scenarios),
            "seeds": list(self.seeds),
            "defenses": [dict(entry) for entry in self.defenses],
            "fault_plans": [dict(plan) if plan else None
                            for plan in self.fault_plans],
            "runner": self.runner,
            "runner_params": dict(self.runner_params),
            "shards": self.shards,
            "timeout_s": self.timeout_s,
            "max_attempts": self.max_attempts,
            "backoff_s": self.backoff_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FleetSpec":
        """Parse a spec dict; any malformed field raises ConfigError."""
        _check_object("fleet spec", payload, SPEC_FIELDS)
        if "scenarios" not in payload:
            raise ConfigError("fleet spec needs a 'scenarios' axis")
        return cls(**payload)

    def validate_names(self) -> None:
        """Check the scenarios axis against the runner's namespace."""
        if self.runner == "scenario":
            from ..scenarios.registry import scenario

            axes = {"defenses": any(d["name"] for d in self.defenses),
                    "fault_plans": any(self.fault_plans)}
            for name in self.scenarios:
                spec = scenario(name)  # raises ConfigError on unknown names
                for axis, used in axes.items():
                    if spec.kind == "chaos" and used:
                        raise ConfigError(
                            f"chaos scenario {name!r} runs SoftTRR under "
                            f"its own fault plan; drop the {axis} axis")
        elif self.runner == "window":
            from .runners import WINDOW_PATTERNS

            for name in self.scenarios:
                if name not in WINDOW_PATTERNS:
                    raise ConfigError(
                        f"unknown window pattern {name!r}; known: "
                        f"{WINDOW_PATTERNS}")
        elif self.runner == "fuzz":
            from .runners import fuzz_point_index

            for name in self.scenarios:
                fuzz_point_index(name)  # raises ConfigError on bad names

    def expand(self) -> List[FleetCell]:
        """The deterministic, stably-ordered cell list."""
        return expand_cells(self)


def expand_cells(spec: FleetSpec) -> List[FleetCell]:
    """Cross the axes into cells: scenario-major, stable order.

    Empty optional axes contribute one neutral point each, so the cell
    count is ``len(scenarios) x max(1, len(seeds)) x
    max(1, len(defenses)) x max(1, len(fault_plans))``.
    """
    seeds: Sequence[Optional[int]] = spec.seeds or (None,)
    defenses: Sequence[Optional[Mapping]] = spec.defenses or (None,)
    fault_plans: Sequence[Optional[Mapping]] = spec.fault_plans or (None,)
    cells: List[FleetCell] = []
    seen: Dict[str, str] = {}
    for scenario_name in spec.scenarios:
        for seed in seeds:
            for defense in defenses:
                name = None if defense is None else defense["name"]
                params = {} if defense is None else defense["params"]
                for plan in fault_plans:
                    cell_id = cell_id_of(
                        scenario_name, seed, name, params, plan)
                    if cell_id in seen:
                        raise ConfigError(
                            f"duplicate fleet cell {cell_id} "
                            f"({seen[cell_id]}): axes repeat a point")
                    seen[cell_id] = scenario_name
                    cells.append(FleetCell(
                        index=len(cells),
                        cell_id=cell_id,
                        scenario=scenario_name,
                        seed=seed,
                        defense=name,
                        defense_params=params,
                        fault_plan=plan,
                        shard=shard_of(cell_id, spec.shards),
                    ))
    return cells
