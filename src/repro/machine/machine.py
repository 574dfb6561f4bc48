"""The Machine facade: the one sanctioned assembly path.

Everything that used to be hand-wired at every entry point — ``Kernel(
perf_testbed())`` + ``load_module(...)`` + ad-hoc sanitizer installs +
per-layer counter spelunking — lives here.  A :class:`Machine` owns the
full simulated stack (clock, DRAM, MMU, kernel, defense, sanitizers,
fault injector, trace hub), is built from a declarative
:class:`MachineConfig`, and offers:

* :attr:`telemetry` — every per-layer statistic (TLB, CPU cache, DRAM
  banks, disturbance engine, in-DRAM TRR, feed trackers, kernel,
  timers, SoftTRR) under one typed facade;
* :meth:`snapshot` / :meth:`restore` — deterministic whole-machine
  checkpointing.  A restored machine replays to bit-identical
  FlipEvent streams because *all* replay-relevant state travels:
  DRAM cell arrays, disturbance accumulators, page tables, TLB/cache,
  ChipTRR trackers, RNG streams, the event clock and pending timers.

Direct ``Kernel(...)`` / ``DramModule(...)`` construction outside this
layer is a lint violation (RPR006) — the facade is how the repo builds
machines.
"""

from __future__ import annotations

import copy
from dataclasses import replace
from typing import Optional

from ..config import MachineSpec
from ..kernel.kernel import Kernel
from .config import MachineConfig, build_defense

__all__ = ["Machine", "MachineSnapshot"]


class MachineSnapshot:
    """An immutable, reusable checkpoint of one machine.

    Holds a fully isolated deep copy of the machine state; restoring
    copies it again, so one snapshot supports any number of restores
    and is never mutated by subsequent simulation.
    """

    __slots__ = ("_state", "taken_at_ns")

    def __init__(self, state, taken_at_ns: int) -> None:
        self._state = state
        self.taken_at_ns = taken_at_ns

    def materialise(self):
        """A fresh (kernel, defense, manager, injector) replica."""
        return copy.deepcopy(self._state)


class Machine:
    """A fully assembled simulated machine behind one facade.

    Build declaratively — ``Machine(MachineConfig(machine="perf_testbed",
    defense="softtrr"))`` or the equivalent ``Machine(machine=...,
    defense=...)`` keyword form — or from pre-built parts with
    :meth:`from_parts`.
    """

    def __init__(self, config: Optional[MachineConfig] = None, **overrides) -> None:
        if config is None:
            config = MachineConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self._assemble(config.build_spec(),
                       build_defense(config.defense, config.defense_params),
                       config)

    @classmethod
    def from_parts(cls, spec: MachineSpec, defense=None) -> "Machine":
        """Assemble from already-built spec/defense objects.

        This is the escape hatch for callers that need a bespoke
        :class:`MachineSpec` (custom disturbance params, test
        geometries) that no registry name describes.  Every knob keeps
        its :class:`MachineConfig` default (no sanitizers, trace or
        fault plan), and ``config`` is ``None`` on the result.
        """
        self = cls.__new__(cls)
        self.config = None
        if defense is None:
            from ..defenses.base import NoDefense

            defense = NoDefense()
        self._assemble(spec, defense, MachineConfig())
        return self

    def _assemble(self, spec: MachineSpec, defense,
                  config: MachineConfig) -> None:
        """Build the stack around ``spec`` and ``defense``; of the
        checked ``config`` only the sanitizer, trace and fault-plan
        fields are read."""
        self.spec = spec
        self.defense = defense
        self.kernel = Kernel(
            spec, frame_policy_factory=defense.frame_policy_factory())
        # The trace hub attaches before the defense installs so module
        # load (initial collection, warm-up ticks) is observable too.
        if config.trace != "off":
            from ..trace.hub import TraceHub

            TraceHub.build(self.kernel.clock, config.trace,
                           config.trace_capacity).attach(self.kernel)
        if config.sanitizers != "off":
            from ..checkers.sanitizers import install_sanitizers

            install_sanitizers(self.kernel,
                               strict=config.sanitizers == "strict")
        defense.install(self.kernel)
        # The fault injector installs LAST so its wrappers sit outermost
        # (raw -> sanitizer -> injector): a suppressed event never reaches
        # the sanitizer underneath, which observes the machine the fault
        # produced rather than the fault machinery itself.
        self.fault_injector = None
        if config.fault_plan:
            from ..faults import FaultInjector

            self.fault_injector = FaultInjector(
                self.kernel, config.fault_plan).install()

    # ======================================================== conveniences
    @property
    def clock(self):
        """The machine's simulated clock."""
        return self.kernel.clock

    @property
    def dram(self):
        """The machine's DRAM module."""
        return self.kernel.dram

    @property
    def mmu(self):
        """The machine's MMU."""
        return self.kernel.mmu

    @property
    def sanitizers(self):
        """The installed sanitizer manager, or None."""
        return self.kernel.sanitizers

    @property
    def softtrr(self):
        """The loaded SoftTRR module, or None."""
        return self.kernel.module("softtrr")

    def module(self, name: str):
        """A loaded module by name, or None."""
        return self.kernel.module(name)

    def load_softtrr(self, params=None):
        """Load the SoftTRR module raw (no warm-up ticks); returns it.

        This is the overhead-measurement path: unlike the
        ``defense="softtrr"`` config route (which advances two timer
        intervals so the tracer arms pre-existing pages, the Table II
        semantics), the module starts cold and the first tick lands
        inside the measured region — exactly how Tables III–V and the
        LAMP figures boot their machines.
        """
        from ..core.profile import SoftTrrParams
        from ..core.softtrr import SoftTrr

        module = SoftTrr(params or SoftTrrParams())
        self.kernel.load_module("softtrr", module)
        return module

    def run_workload(self, profile, seed: int = 1234):
        """Run a :class:`WorkloadProfile` on this machine's kernel, on
        the batched path (the scalar reference path is
        ``SliceWorkload(..., use_batch=False)``)."""
        from ..workloads.base import SliceWorkload

        return SliceWorkload(self.kernel, profile, seed=seed).run()

    # =========================================================== telemetry
    @property
    def telemetry(self):
        """The typed :class:`~repro.trace.Telemetry` facade.

        Stateless — built per access over the live machine, so it never
        needs snapshot/restore handling and is always current::

            m.telemetry.counter("tlb.misses")
            m.telemetry.group("dram")
            m.telemetry.as_flat_dict()
        """
        from ..trace.telemetry import Telemetry

        return Telemetry(self)

    # ==================================================== snapshot/restore
    def snapshot(self) -> MachineSnapshot:
        """Checkpoint the whole machine deterministically.

        The deep copy covers every piece of replay-relevant state —
        DRAM cell arrays and disturbance accumulators, page tables
        (they live *in* DRAM), TLB/CPU-cache contents, ChipTRR
        trackers, module RNG streams, the clock and its pending timer
        heap (bound-method callbacks rebind to the copied objects via
        deepcopy memoization).

        The sanitizer manager and fault injector wrap kernel choke
        points with closures over the live objects, which a naive
        deepcopy would leak into the copy — so both are uninstalled
        around the copy and reinstalled on both sides.  The injector
        installs outermost, so it uninstalls FIRST and reinstalls LAST
        (reverse order would capture each other's wrappers as
        "originals" and restore dangling closures, e.g. on the shared
        ``mmu.invlpg`` site).
        """
        manager = self.kernel.sanitizers
        injector = self.fault_injector
        if injector is not None:
            injector.uninstall()
        if manager is not None:
            manager.uninstall()
        try:
            state = copy.deepcopy(
                (self.kernel, self.defense, manager, injector))
        finally:
            if manager is not None:
                manager.install()
            if injector is not None:
                injector.install()
        return MachineSnapshot(state, self.kernel.clock.now_ns)

    def restore(self, snap: MachineSnapshot) -> "Machine":
        """Rewind this machine to a snapshot (in place); returns self.

        The snapshot is copied, not adopted, so it stays reusable.
        Replaying the same inputs after a restore reproduces the
        original run bit-for-bit: identical FlipEvents, counters and
        simulated nanoseconds.
        """
        kernel, defense, manager, injector = snap.materialise()
        self.kernel = kernel
        self.defense = defense
        if manager is not None:
            manager.install()
        self.fault_injector = injector
        if injector is not None:
            injector.install()
        return self
