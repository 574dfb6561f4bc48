"""The offline profile of Section IV-E.

SoftTRR picks its two runtime parameters — the tracer timer interval
``timer_inr`` and the charge-leak limit ``count_limit`` — from DRAM
characteristics measured offline:

* ``threshold = tRC x #ACT`` is the shortest time in which hammering can
  produce a first bit flip (tRC ~= 50 ns, #ACT ~= 20 K on both DDR3 and
  DDR4 once ChipTRR forces DDR4 attacks to split across >= 2 aggressors);
* the tracer counts at most one access per traced page per timer
  interval, so the maximum unprotected hammer window is
  ``timer_inr x (count_limit - 1)``;
* both parameters are unsigned integers and ``count_limit`` must be
  >= 2 (a limit of 1 would refresh on every ordinary access), giving
  ``timer_inr = 1 ms`` and ``count_limit = 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..clock import NS_PER_MS
from ..dram.timing import DramTimings
from ..errors import ConfigError
from .ringbuf import DEFAULT_CAPACITY

#: Activation count to first flip the profile assumes (Section IV-E).
DEFAULT_ACT_TO_FIRST_FLIP = 20_000


def check_window(
    timer_inr_ns: int,
    count_limit: int,
    t_rc_ns: int,
    act_to_first_flip: int = DEFAULT_ACT_TO_FIRST_FLIP,
) -> Optional[str]:
    """The protection-window inequality; returns a message if violated.

    ``timer_inr × (count_limit − 1)`` is the longest a row can be
    hammered without the refresher intervening; it must not exceed
    ``tRC × #ACT``, the shortest time to a first flip (Section IV-E).
    """
    window = timer_inr_ns * (count_limit - 1)
    threshold = t_rc_ns * act_to_first_flip
    if window > threshold:
        return (
            f"protection window {window} ns (timer_inr {timer_inr_ns} ns x "
            f"(count_limit {count_limit} - 1)) exceeds the DRAM "
            f"time-to-first-flip {threshold} ns"
        )
    return None


@dataclass(frozen=True)
class SoftTrrParams:
    """Runtime configuration of the SoftTRR module."""

    #: Tracked adjacency distance: 1 reproduces the ZebRAM-style +-1
    #: assumption (Delta+-1), 6 is the paper's default (Delta+-6).
    max_distance: int = 6
    timer_inr_ns: int = NS_PER_MS
    count_limit: int = 2
    ringbuf_capacity: int = DEFAULT_CAPACITY
    #: Which PTE bit the tracer abuses: "rsvd" (the paper's choice) or
    #: "present" (the rejected design that panics the kernel under fork).
    trace_bit: str = "rsvd"
    #: Page-table levels to protect.  (1,) is the paper's implementation
    #: (all existing attacks target L1PTs); (1, 2) enables the Section
    #: VII extension that also protects L2 (PMD) pages.
    protect_levels: tuple = (1,)
    #: Graceful-degradation knobs (``repro.faults``).  All default to off
    #: so the paper-faithful configuration is byte-identical to before.
    #: Extra read attempts when a row refresh fails (0 = give up at one).
    heal_refresh_retries: int = 0
    #: Simulated wait before the first retry; doubles per further retry.
    heal_refresh_backoff_ns: int = 500
    #: Detect missed timer windows from the simulated clock and compensate
    #: by shrinking the effective count_limit for one catch-up pass.
    heal_watchdog: bool = False
    #: Re-walk collector/tracer state every N ticks (0 = never) to repair
    #: desync from dropped hook deliveries.
    heal_resync_every: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.max_distance <= 6:
            raise ConfigError("max_distance must be within [1, 6] (Kim et al.)")
        if not set(self.protect_levels) <= {1, 2} or 1 not in self.protect_levels:
            raise ConfigError(
                "protect_levels must include 1 and may add 2 (Section VII)")
        if self.timer_inr_ns <= 0:
            raise ConfigError("timer_inr must be positive")
        if self.count_limit < 2:
            raise ConfigError(
                "count_limit must be >= 2: a limit of 1 refreshes on every "
                "ordinary access (Section IV-D)"
            )
        if self.trace_bit not in ("rsvd", "present"):
            raise ConfigError("trace_bit must be 'rsvd' or 'present'")
        if self.heal_refresh_retries < 0:
            raise ConfigError("heal_refresh_retries must be >= 0")
        if self.heal_refresh_backoff_ns <= 0:
            raise ConfigError("heal_refresh_backoff_ns must be positive")
        if self.heal_resync_every < 0:
            raise ConfigError("heal_resync_every must be >= 0")

    @property
    def protection_window_ns(self) -> int:
        """Max unprotected hammer time: timer_inr x (count_limit - 1)."""
        return self.timer_inr_ns * (self.count_limit - 1)

    def with_distance(self, max_distance: int) -> "SoftTrrParams":
        """This configuration at a different adjacency distance."""
        return replace(self, max_distance=max_distance)


@dataclass(frozen=True)
class OfflineProfile:
    """Derives :class:`SoftTrrParams` from DRAM characteristics."""

    timings: DramTimings
    act_to_first_flip: int = DEFAULT_ACT_TO_FIRST_FLIP

    def threshold_ns(self) -> int:
        """threshold = tRC x #ACT: the minimum time to a first flip."""
        return self.timings.t_rc_ns * self.act_to_first_flip

    def derive(self, *, max_distance: int = 6,
               ringbuf_capacity: int = DEFAULT_CAPACITY) -> SoftTrrParams:
        """Pick (timer_inr, count_limit) under the safety equation.

        ``timer_inr x (count_limit - 1) <= threshold`` with integral
        parameters, count_limit >= 2 and timer_inr maximal at whole
        milliseconds (coarser timers cost less).  With the paper's
        numbers this lands exactly on timer_inr = 1 ms, count_limit = 2.
        """
        threshold = self.threshold_ns()
        # Largest whole-millisecond timer not exceeding the threshold.
        timer_ms = max(1, threshold // NS_PER_MS)
        timer_inr = min(timer_ms, threshold) * NS_PER_MS \
            if threshold >= NS_PER_MS else threshold
        # With count_limit = 2 the window is timer_inr itself, which
        # this clamp keeps within the threshold.
        timer_inr = min(timer_inr, threshold)
        return SoftTrrParams(
            max_distance=max_distance,
            timer_inr_ns=int(timer_inr),
            count_limit=2,
            ringbuf_capacity=ringbuf_capacity,
        )

    def check(self, params: SoftTrrParams) -> Optional[str]:
        """:func:`check_window` for ``params`` on this DRAM."""
        return check_window(params.timer_inr_ns, params.count_limit,
                            self.timings.t_rc_ns, self.act_to_first_flip)

    def is_safe(self, params: SoftTrrParams) -> bool:
        """Whether a configuration keeps the unprotected window below
        the time-to-first-flip."""
        return self.check(params) is None
