"""Common defense interface and registry.

A defense can contribute two things:

* a *frame-placement policy* (allocator modification — what CATT, CTA
  and ZebRAM are), installed at boot; and/or
* a *module* installed after boot (what ANVIL and SoftTRR are).

``Machine.from_parts(spec, defense)`` (:mod:`repro.machine`) builds a
machine with both applied, which is what the security benches iterate
over.

Defenses self-register by decorating their class with
:func:`register_defense`; ``DEFENSES`` is the resulting name -> factory
catalogue, loaded lazily so importing this module never drags in every
defense (or trips an import cycle).
"""

from __future__ import annotations

import importlib
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, Optional

from ..core.profile import SoftTrrParams
from ..core.softtrr import SoftTrr
from ..kernel.kernel import Kernel


class Defense:
    """Interface for a deployable defense configuration."""

    name = "abstract"
    #: Short description used by report tables.
    summary = ""

    def frame_policy_factory(self) -> Optional[Callable]:
        """Factory passed to :class:`Kernel` (None = vanilla allocator)."""
        return None

    def install(self, kernel: Kernel) -> None:
        """Post-boot installation (module load, timers...)."""

    def module_name(self) -> Optional[str]:
        """Name under which :meth:`install` registered a module."""
        return None


#: Modules that define ``@register_defense``-decorated classes.  The
#: registry imports these on first lookup, so nothing pays the import
#: cost (or risks a cycle) until a defense is actually requested.
_DEFENSE_MODULES = (
    "repro.defenses.alis",
    "repro.defenses.anvil",
    "repro.defenses.catt",
    "repro.defenses.cta",
    "repro.defenses.riprh",
    "repro.defenses.zebram",
    "repro.defenses.trackers.chiptrr",
    "repro.defenses.trackers.para",
    "repro.defenses.trackers.misra_gries",
    "repro.defenses.trackers.ptmp",
    "repro.defenses.trackers.dapper",
)


class DefenseRegistry(Mapping):
    """Name -> Defense factory, populated by :func:`register_defense`.

    A read-only mapping from the outside; defense modules add themselves
    by decorating their :class:`Defense` subclass, exactly like lint
    rules do with ``@register_rule``.  Unknown names raise a
    :class:`KeyError` that lists the full catalogue.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Callable[..., Defense]] = {}
        self._loaded = False

    def register(self, factory: Callable[..., Defense]):
        name = getattr(factory, "name", None)
        if not name or name == Defense.name:
            raise ValueError(
                f"defense class {factory!r} must define a concrete `name`"
            )
        # Re-registration (module reload, tests) replaces by name.
        self._factories[name] = factory
        return factory

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in _DEFENSE_MODULES:
            importlib.import_module(module)

    def __getitem__(self, key: str) -> Callable[..., Defense]:
        self._load()
        try:
            return self._factories[key]
        except KeyError:
            known = ", ".join(sorted(self._factories))
            raise KeyError(
                f"unknown defense {key!r}; known: {known}"
            ) from None

    def __iter__(self) -> Iterator[str]:
        self._load()
        return iter(self._factories)

    def __len__(self) -> int:
        self._load()
        return len(self._factories)


#: name -> Defense factory.
DEFENSES = DefenseRegistry()


def register_defense(cls):
    """Class decorator: add a :class:`Defense` subclass to ``DEFENSES``.

    The class registers under its ``name`` attribute.  Registration is
    the *only* boilerplate a new defense needs; the registry, config
    hydration, differential harness parametrization and the zoo sweep
    all read ``DEFENSES``.
    """
    return DEFENSES.register(cls)


@register_defense
class NoDefense(Defense):
    """The vanilla system (the Table II 'attack succeeds' baseline)."""

    name = "vanilla"
    summary = "unmodified kernel and allocator"


@register_defense
class SoftTrrDefense(Defense):
    """SoftTRR as a defense configuration (for head-to-head benches)."""

    name = "softtrr"
    summary = "software-only target row refresh (this paper)"

    def __init__(self, params: Optional[SoftTrrParams] = None) -> None:
        self.params = params or SoftTrrParams()

    def install(self, kernel: Kernel) -> None:
        kernel.load_module("softtrr", SoftTrr(self.params))
        # Let the first tracer tick arm the already-adjacent pages.
        kernel.clock.advance(2 * self.params.timer_inr_ns)
        kernel.dispatch_timers()

    def module_name(self) -> Optional[str]:
        return "softtrr"
