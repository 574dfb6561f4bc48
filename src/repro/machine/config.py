"""Declarative machine assembly configuration.

A :class:`MachineConfig` names everything needed to build one evaluation
machine — the hardware profile, the defense riding on it, the runtime
sanitizer mode, the fault plan and the trace level — as plain data.
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

from dataclasses import dataclass, field
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


#: Sanitizer modes (:mod:`repro.checkers.sanitizers`): ``"off"``
#: installs none, ``"report"`` collects violations into the manager's
#: report, ``"strict"`` raises at the first one.
SANITIZER_MODES = ("off", "report", "strict")


@dataclass(frozen=True)
class MachineConfig:
    """Everything needed to assemble one machine, as plain data.

    This is the one place a machine's assembly knobs are set and
    checked: a malformed value raises :class:`ConfigError` naming its
    field (a defense its factory rejects, at build; a malformed fault
    plan raises :class:`~repro.errors.FaultError`).
    ``machine`` is a :data:`repro.config.MACHINES` key; ``defense`` a
    :data:`repro.defenses.base.DEFENSES` key with ``defense_params``
    passed to its factory (for ``"softtrr"`` they hydrate a
    :class:`SoftTrrParams`).  ``sanitizers`` is one of
    :data:`SANITIZER_MODES`.
    """

    machine: str = "perf_testbed"
    defense: str = "vanilla"
    defense_params: Mapping = field(default_factory=dict)
    sanitizers: str = "off"
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
        if not isinstance(self.defense_params, Mapping):
            raise ConfigError(
                f"defense_params must be a mapping, got "
                f"{self.defense_params!r}")
        if self.sanitizers not in SANITIZER_MODES:
            raise ConfigError(
                f"unknown sanitizers mode {self.sanitizers!r}; known: "
                f"{SANITIZER_MODES}")
        if self.seed is not None and (
                isinstance(self.seed, bool) or not isinstance(self.seed, int)):
            raise ConfigError(f"machine seed must be an int, got {self.seed!r}")
        from ..trace.hub import LEVELS

        if self.trace not in LEVELS:
            raise ConfigError(
                f"unknown trace level {self.trace!r}; known: {LEVELS}")
        capacity = self.trace_capacity
        if capacity is not None and (isinstance(capacity, bool) or not
                                     isinstance(capacity, int) or capacity < 1):
            raise ConfigError(
                f"trace_capacity must be a positive int, got {capacity!r}")
        # Normalise to a plain dict so configs pickle/compare cleanly.
        object.__setattr__(self, "defense_params", dict(self.defense_params))
        if self.fault_plan is not None:
            from ..faults import FaultPlan

            object.__setattr__(
                self, "fault_plan", FaultPlan.coerce(self.fault_plan))

    def build_spec(self) -> MachineSpec:
        """The machine profile this config names (seed applied)."""
        kwargs = {} if self.seed is None else {"seed": self.seed}
        if self.machine == "tiny":
            from ..config import tiny_machine

            return tiny_machine(**kwargs)
        return machine_spec(self.machine, **kwargs)
