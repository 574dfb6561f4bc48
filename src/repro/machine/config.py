"""Declarative machine assembly configuration.

A :class:`MachineConfig` names everything needed to build one evaluation
machine — the hardware profile, the defense riding on it, whether the
runtime sanitizers are installed, and the execution path — as plain data.
It is picklable (scenario sweeps ship configs to worker processes) and
every field has a deterministic default, so two processes building the
same config produce bit-identical machines.

The config layer deliberately speaks in *names* (registry keys) rather
than objects: ``defense="softtrr"`` + ``defense_params={"max_distance":
1}`` instead of a ``SoftTrrDefense(SoftTrrParams(max_distance=1))``
instance.  That is what makes the paper's evaluation grid — 4 machines x
{vanilla, SoftTRR Δ±1..±6, 5 baseline defenses} — representable as a
list of records (:mod:`repro.scenarios`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

from ..config import MACHINES, MachineSpec, machine as machine_spec
from ..errors import ConfigError

__all__ = ["MachineConfig", "build_defense", "check_machine"]


def check_machine(name) -> None:
    """ConfigError unless ``name`` is a machine profile key: one of
    :data:`repro.config.MACHINES`, or ``"tiny"``."""
    if not isinstance(name, str) or (name not in MACHINES
                                     and name != "tiny"):
        raise ConfigError(
            f"unknown machine {name!r}; known: "
            f"{sorted(MACHINES) + ['tiny']}")


def build_defense(name: str, params: Optional[Mapping] = None):
    """Instantiate a defense by registry name with plain-dict params.

    SoftTRR's parameters travel as a dict and are hydrated into
    :class:`~repro.core.profile.SoftTrrParams`; every other defense
    factory takes its params as keyword arguments directly.  An unknown
    name raises :class:`ConfigError`, and so does a ``TypeError`` from
    the params: an unknown key, or a value their checks cannot compare.
    """
    from ..defenses.base import DEFENSES

    params = dict(params or {})
    try:
        factory = DEFENSES[name]
    except KeyError:
        raise ConfigError(
            f"unknown defense {name!r}; known: {sorted(DEFENSES.keys())}"
        ) from None
    try:
        if name == "softtrr":
            from ..core.profile import SoftTrrParams

            return factory(SoftTrrParams(**params))
        return factory(**params)
    except TypeError as exc:
        raise ConfigError(
            f"defense {name!r} rejects params {params!r}: {exc}") from None


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to assemble one machine, as plain data.

    ``machine`` is a :data:`repro.config.MACHINES` key; ``defense`` a
    :data:`repro.defenses.base.DEFENSES` key with ``defense_params``
    passed to its factory (for ``"softtrr"`` they hydrate a
    :class:`SoftTrrParams`).  ``sanitize``/``strict_sanitizers`` install
    the runtime invariant sanitizers at boot; ``batch=False`` runs
    workloads through the machine on the scalar reference path.
    """

    machine: str = "perf_testbed"
    defense: str = "vanilla"
    defense_params: Mapping = field(default_factory=dict)
    sanitize: bool = False
    strict_sanitizers: bool = False
    batch: bool = True
    #: Override the machine profile's seed (None = profile default).
    seed: Optional[int] = None
    #: Deterministic fault plan installed at assembly (``repro.faults``).
    #: Accepts a :class:`~repro.faults.FaultPlan` or its dict form
    #: (scenario params travel as plain JSON); ``None`` = no injection.
    fault_plan: Optional[object] = None
    #: Tracing level (:mod:`repro.trace`): ``"off"`` (default, zero
    #: overhead beyond one attribute test per choke point),
    #: ``"metrics"``, ``"events"`` or ``"spans"``.
    trace: str = "off"
    #: Ring-buffer capacity in events (``None`` = the trace default).
    trace_capacity: Optional[int] = None

    def __post_init__(self) -> None:
        check_machine(self.machine)
        if self.strict_sanitizers and not self.sanitize:
            raise ConfigError("strict_sanitizers requires sanitize=True")
        if self.seed is not None and (
                isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise ConfigError(f"machine seed must be an int, got {self.seed!r}")
        from ..trace.hub import LEVELS

        if self.trace not in LEVELS:
            raise ConfigError(
                f"unknown trace level {self.trace!r}; known: {LEVELS}")
        if self.trace_capacity is not None and self.trace_capacity < 1:
            raise ConfigError("trace_capacity must be positive")
        # Normalise to a plain dict so configs pickle/compare cleanly.
        object.__setattr__(self, "defense_params", dict(self.defense_params))
        if self.fault_plan is not None:
            from ..faults import FaultPlan

            object.__setattr__(
                self, "fault_plan", FaultPlan.coerce(self.fault_plan))

    def build_spec(self) -> MachineSpec:
        """The machine profile this config names (seed applied)."""
        if self.machine == "tiny":
            from ..config import tiny_machine

            factory = tiny_machine
        else:
            factory = None
        kwargs = {} if self.seed is None else {"seed": self.seed}
        return (factory(**kwargs) if factory is not None
                else machine_spec(self.machine, **kwargs))

    def build_defense(self):
        """Fresh defense instance for this config."""
        return build_defense(self.defense, self.defense_params)

    def replace(self, **overrides) -> "MachineConfig":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)

    def label(self) -> str:
        """Short human-readable tag, e.g. ``perf_testbed+softtrr``."""
        return f"{self.machine}+{self.defense}"
