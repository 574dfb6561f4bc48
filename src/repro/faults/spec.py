"""Declarative fault specifications for the injection layer.

SoftTRR's safety identity — ``threshold = timer_inr x (count_limit - 1)``
— silently assumes the kernel side never degrades: timer ticks fire on
period, every RSVD trace fault is delivered, every clflush-refresh
lands, every hook notification arrives.  TRRespass demonstrated that
in-DRAM TRR fails exactly when its tracking assumptions are stressed;
this module makes the equivalent assumptions of the *software* TRR
perturbable, as data.

A :class:`FaultSpec` names one fault: the *site* (which choke point),
the *mode* (what goes wrong there), and a trigger — either a
per-opportunity probability or an exact schedule of opportunity
indexes.  Specs compose into a :class:`FaultPlan` that
:class:`~repro.machine.MachineConfig` accepts as a first-class field.
Every random draw is seeded through :func:`repro.rng.derive_rng`, so a
plan replays bit-identically across runs, worker processes and
:meth:`Machine.snapshot`/``restore``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Mapping, Sequence, Tuple

from ..errors import FaultError

__all__ = ["FAULT_SITES", "SITE_MODES", "FaultSpec", "FaultPlan"]

#: Choke points the injector knows how to perturb.
FAULT_SITES = ("timers", "hooks", "mmu", "tlb", "refresher")

#: Valid fault modes per site.
SITE_MODES = {
    # KernelTimers._fire: a due tick is dropped outright, or deferred
    # by ``magnitude_ns`` (delayed/coalesced delivery).
    "timers": ("drop", "delay"),
    # HookManager.notify: a notifier delivery is dropped, or its
    # callbacks run in reverse registration order.  Handler-style
    # dispatch (do_page_fault) is deliberately NOT perturbed here — an
    # undelivered RSVD fault is modelled by the safer "mmu" site below;
    # dropping the dispatch wholesale would panic the kernel rather
    # than degrade the defense.
    "hooks": ("drop", "reorder"),
    # Kernel.handle_page_fault: an armed-PTE trace fault is swallowed —
    # the entry is disarmed so execution continues, but the tracer
    # never sees the access (no count, no re-queue).
    "mmu": ("swallow",),
    # Mmu.invlpg: the TLB shootdown is lost; the stale translation
    # keeps serving accesses that bypass the trace fault (the paper's
    # stale-TLB discussion).
    "tlb": ("lost_invlpg",),
    # RowRefresher: a clflush+read refresh attempt fails and must be
    # retried; without the retry policy the row stays uncharged.
    "refresher": ("fail_refresh",),
}


def _check_int(owner: str, name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise FaultError(f"{owner} {name} must be an int, got {value!r}")


def _check_keys(owner: str, value: Mapping, known) -> None:
    for key in value:
        if key not in known:
            raise FaultError(
                f"unknown {owner} key {key!r}; known: {tuple(known)}")


def _check_sequence(owner: str, name: str, value) -> None:
    if isinstance(value, (str, bytes, Mapping)) or not isinstance(
            value, Sequence):
        raise FaultError(
            f"{owner} {name} must be a list, got {type(value).__name__}")


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault: site + mode + trigger (+ magnitude).

    Exactly one trigger must be set: ``probability`` (a per-opportunity
    Bernoulli draw from the spec's derived RNG stream) or
    ``at_opportunities`` (exact 1-based opportunity indexes at the
    site, for reproducing a specific interleaving).  ``magnitude_ns``
    is the deferral for ``mode="delay"`` and is rejected elsewhere.
    ``seed`` discriminates the RNG stream of otherwise-identical specs.
    """

    site: str
    mode: str
    probability: float = 0.0
    at_opportunities: Tuple[int, ...] = ()
    magnitude_ns: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise FaultError(
                f"unknown fault site {self.site!r}; known: {FAULT_SITES}")
        if self.mode not in SITE_MODES[self.site]:
            raise FaultError(
                f"mode {self.mode!r} is invalid for site {self.site!r}; "
                f"known: {SITE_MODES[self.site]}")
        _check_sequence("fault spec", "at_opportunities",
                        self.at_opportunities)
        object.__setattr__(
            self, "at_opportunities", tuple(self.at_opportunities))
        _check_int("fault spec", "magnitude_ns", self.magnitude_ns)
        _check_int("fault spec", "seed", self.seed)
        if isinstance(self.probability, bool) or not isinstance(
                self.probability, (int, float)):
            raise FaultError(
                f"fault spec probability must be a number, "
                f"got {self.probability!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultError(
                f"probability must be within [0, 1], got {self.probability}")
        has_prob = self.probability > 0.0
        has_schedule = bool(self.at_opportunities)
        if has_prob == has_schedule:
            raise FaultError(
                "exactly one trigger is required: probability > 0 or a "
                "non-empty at_opportunities schedule")
        for index in self.at_opportunities:
            if isinstance(index, bool) or not isinstance(index, int) or (
                    index < 1):
                raise FaultError(
                    f"at_opportunities must hold 1-based ints, got {index!r}")
        if list(self.at_opportunities) != sorted(set(self.at_opportunities)):
            raise FaultError(
                "at_opportunities must be strictly increasing")
        if self.mode == "delay":
            if self.magnitude_ns <= 0:
                raise FaultError(
                    "mode='delay' needs magnitude_ns > 0 (the deferral)")
        elif self.magnitude_ns != 0:
            raise FaultError(
                f"magnitude_ns is only meaningful for mode='delay', "
                f"not {self.mode!r}")

    def replace(self, **overrides) -> "FaultSpec":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-stable; feeds scenario params)."""
        return {
            "site": self.site,
            "mode": self.mode,
            "probability": self.probability,
            "at_opportunities": list(self.at_opportunities),
            "magnitude_ns": self.magnitude_ns,
            "seed": self.seed,
        }

    @classmethod
    def coerce(cls, value) -> "FaultSpec":
        """``value`` as a FaultSpec: passes instances, hydrates dicts.

        A dict must name ``site`` and ``mode`` and may use only the
        fields of :meth:`to_dict`; anything else raises
        :class:`FaultError` naming the key or field.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            _check_keys("fault spec", value, [f.name for f in fields(cls)])
            for required in ("site", "mode"):
                if required not in value:
                    raise FaultError(f"fault spec needs {required!r}")
            return cls(**value)
        raise FaultError(
            f"cannot build a FaultSpec from {type(value).__name__}")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered composition of fault specs plus a plan-level seed.

    The plan is what travels: picklable (sweep workers), comparable,
    and accepted by :class:`~repro.machine.MachineConfig` as the
    ``fault_plan`` field.  ``seed`` shifts every spec's RNG stream at
    once, so sweeping seeds reuses one spec list.
    """

    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    seed: int = 0

    def __post_init__(self) -> None:
        _check_sequence("fault plan", "specs", self.specs)
        _check_int("fault plan", "seed", self.seed)
        object.__setattr__(
            self, "specs",
            tuple(FaultSpec.coerce(spec) for spec in self.specs))

    def __bool__(self) -> bool:
        return bool(self.specs)

    def for_site(self, site: str) -> Tuple[FaultSpec, ...]:
        """The plan's specs targeting ``site`` (plan order)."""
        if site not in FAULT_SITES:
            raise FaultError(
                f"unknown fault site {site!r}; known: {FAULT_SITES}")
        return tuple(spec for spec in self.specs if spec.site == site)

    def sites(self) -> Tuple[str, ...]:
        """Distinct sites the plan perturbs, in FAULT_SITES order."""
        mine = {spec.site for spec in self.specs}
        return tuple(site for site in FAULT_SITES if site in mine)

    def to_dict(self) -> dict:
        """Plain-dict form (JSON-stable; feeds scenario params)."""
        return {
            "specs": [spec.to_dict() for spec in self.specs],
            "seed": self.seed,
        }

    @classmethod
    def coerce(cls, value) -> "FaultPlan":
        """``value`` as a FaultPlan.

        Accepts a plan, a mapping (``{"specs": [...], "seed": ...}``),
        or a bare sequence of specs/dicts.  A mapping with any other key
        raises :class:`FaultError`, so a typo such as ``"spec"`` cannot
        quietly become an empty plan.
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, Mapping):
            _check_keys("fault plan", value, ("specs", "seed"))
            return cls(specs=value.get("specs", ()),
                       seed=value.get("seed", 0))
        if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
            return cls(specs=tuple(value))
        raise FaultError(
            f"cannot build a FaultPlan from {type(value).__name__}")
