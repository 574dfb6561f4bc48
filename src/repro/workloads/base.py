"""Deterministic slice-based workload engine.

The performance evaluation needs the *marginal* cost SoftTRR adds to a
workload, so the engine is built for perfectly fair A/B runs:

* a workload is a seeded, deterministic sequence of kernel interactions
  (page touches, mmap/munmap churn, forks, syscalls) issued in 1 ms
  *slices* of simulated time;
* per slice, the engine issues the profile's *hot-page* touches (the
  resident set a real program hits every millisecond) plus a sampled
  spread over the cold pool, then pads the slice to 1 ms — the padding
  stands in for the program's compute and for the bulk memory traffic
  that is not modelled access-by-access;
* the issued sequence depends only on the seed, never on defense state,
  so the vanilla and SoftTRR runs replay the identical workload and the
  runtime delta is exactly the defense's added cost (page-fault capture,
  timer arming, hook work, row refreshes).

Runtime can exceed ``duration_ms`` x 1 ms when a defense adds work — the
excess over the vanilla run *is* the measured overhead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Optional

from ..clock import NS_PER_MS
from ..errors import ConfigError
from ..kernel.vma import PAGE
from ..rng import derive_rng


@dataclass(frozen=True)
class WorkloadProfile:
    """Shape of one benchmark program.

    ``hot_pages`` are touched every slice (a real program's per-ms
    resident set); ``cold_pool_pages`` is the total footprint from which
    ``cold_touches`` extra pages are sampled per slice.  ``churn_prob``
    is the per-slice probability of an mmap+touch+munmap burst (page-
    table churn — what drives the collector).  ``fork_every_slices``
    (if set) forks-and-reaps a child periodically.  ``syscalls_per_slice``
    issues cheap getpid-class syscalls (kernel-entry pressure).
    """

    name: str
    duration_ms: int = 200
    hot_pages: int = 16
    cold_pool_pages: int = 128
    cold_touches: int = 4
    write_fraction: float = 0.3
    churn_prob: float = 0.0
    churn_pages: int = 8
    fork_every_slices: Optional[int] = None
    syscalls_per_slice: int = 0
    category: str = "cpu"

    def __post_init__(self) -> None:
        if self.duration_ms <= 0:
            raise ConfigError("workload needs a positive duration")
        if self.hot_pages < 0 or self.cold_pool_pages < self.hot_pages:
            raise ConfigError("cold pool must contain the hot set")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be a probability")

    def replace(self, **overrides) -> "WorkloadProfile":
        """A copy with ``overrides`` applied (validation re-runs)."""
        return dataclasses.replace(self, **overrides)


@dataclass
class WorkloadResult:
    """Outcome of one workload run."""

    name: str
    runtime_ns: int
    slices: int
    touches: int
    forks: int
    churn_events: int
    syscalls: int
    #: Kernel accountant snapshot delta (per-category ns).
    accounting: Dict[str, int] = field(default_factory=dict)


class SliceWorkload:
    """Runs one :class:`WorkloadProfile` against a kernel."""

    def __init__(self, kernel, profile: WorkloadProfile,
                 seed: int = 1234) -> None:
        self.kernel = kernel
        self.profile = profile
        self.seed = seed

    def run(self) -> WorkloadResult:
        """Execute the workload; returns its measured result."""
        kernel = self.kernel
        prof = self.profile
        rng = derive_rng("workload", prof.name, self.seed)
        process = kernel.create_process(prof.name)
        base = kernel.mmap(process, prof.cold_pool_pages * PAGE,
                           name=f"{prof.name}-ws")
        pages = [base + i * PAGE for i in range(prof.cold_pool_pages)]
        hot = pages[:prof.hot_pages]
        cold = pages[prof.hot_pages:] or hot
        # Pre-fault the hot set (programs warm up before the measured
        # region; this also avoids demand-paging noise in the A/B delta).
        for vaddr in hot:
            kernel.user_write(process, vaddr, b"w")
        accounting_before = kernel.accountant.snapshot()
        touches = forks = churn_events = syscalls = 0
        defense_seen = kernel.defense_overhead_ns()
        start_ns = kernel.clock.now_ns
        for slice_index in range(prof.duration_ms):
            slice_start = kernel.clock.now_ns
            kernel.dispatch_timers()
            # Hot set: every page touched once per slice; one rng draw
            # per page decides read vs write.
            for vaddr in hot:
                if rng.random() < prof.write_fraction:
                    kernel.user_write(process, vaddr, b"x")
                else:
                    kernel.user_read(process, vaddr, 8)
                touches += 1
            # Cold spread.
            for _ in range(prof.cold_touches):
                vaddr = rng.choice(cold)
                kernel.user_read(process, vaddr, 8)
                touches += 1
            # Page-table churn.
            if prof.churn_prob and rng.random() < prof.churn_prob:
                churn_events += 1
                scratch = kernel.mmap(process, prof.churn_pages * PAGE,
                                      name=f"{prof.name}-churn")
                for i in range(prof.churn_pages):
                    kernel.user_write(process, scratch + i * PAGE, b"c")
                kernel.munmap(process, scratch, prof.churn_pages * PAGE)
            # Fork pressure.
            if (prof.fork_every_slices
                    and slice_index % prof.fork_every_slices == 0
                    and slice_index > 0):
                child = kernel.fork(process)
                kernel.exit_process(child)
                forks += 1
            # Kernel-entry pressure.
            for _ in range(prof.syscalls_per_slice):
                kernel.dispatch_timers()
                kernel.clock.advance(kernel.cost.syscall_ns)
                syscalls += 1
            # Pad the slice to 1 ms of *program* time (compute + the
            # unmodelled bulk of its memory traffic).  Defense-added
            # time (module overhead accumulators) rides on top of the
            # padding — otherwise the padding would silently absorb it
            # and every overhead measurement would read zero.
            defense_now = kernel.defense_overhead_ns()
            defense_delta = defense_now - defense_seen
            defense_seen = defense_now
            elapsed = kernel.clock.now_ns - slice_start
            target = NS_PER_MS + defense_delta
            if elapsed < target:
                kernel.clock.advance(target - elapsed)
        runtime = kernel.clock.now_ns - start_ns
        accounting_after = kernel.accountant.snapshot()
        delta = {
            key: accounting_after.get(key, 0) - accounting_before.get(key, 0)
            for key in accounting_after
        }
        kernel.exit_process(process)
        return WorkloadResult(
            name=prof.name,
            runtime_ns=runtime,
            slices=prof.duration_ms,
            touches=touches,
            forks=forks,
            churn_events=churn_events,
            syscalls=syscalls,
            accounting=delta,
        )
