"""DDR timing parameters used by the simulation.

Only the parameters the paper's arithmetic actually touches are modelled:

* ``t_rc`` — the row-cycle time, i.e. the minimum interval between two
  ACT commands to the same bank.  The paper uses tRC ~= 50 ns in its
  offline profile (Section IV-E): ``threshold = tRC x #ACT``.
* ``t_cas`` — the row-buffer *hit* latency.  The gap between hit and
  conflict latency is the timing side channel DRAMA exploits.
* ``refresh_window_ns`` — the auto-refresh period (64 ms on every module
  in the paper).  All disturbance accumulated in a row is healed when the
  window rolls over, so a hammer attack must land its flips within one
  window.
* ``ctrl_overhead_ns`` — fixed memory-controller overhead added to every
  DRAM transaction.  This matters for the security arithmetic: it bounds
  the attacker's best-case activation rate strictly *below* 1/tRC, which
  is what gives SoftTRR's 1 ms protection window its safety margin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..clock import NS_PER_MS
from ..errors import ConfigError


@dataclass(frozen=True)
class DramTimings:
    """Timing parameters of a simulated module (all in nanoseconds)."""

    t_rc_ns: int = 50
    t_cas_ns: int = 15
    ctrl_overhead_ns: int = 15
    refresh_window_ns: int = 64 * NS_PER_MS

    def __post_init__(self) -> None:
        if self.t_rc_ns <= 0 or self.t_cas_ns <= 0:
            raise ConfigError("tRC and tCAS must be positive")
        if self.t_cas_ns >= self.t_rc_ns:
            raise ConfigError("row-buffer hit must be faster than a row conflict")
        if self.ctrl_overhead_ns < 0:
            raise ConfigError("controller overhead cannot be negative")
        if self.refresh_window_ns <= self.t_rc_ns:
            raise ConfigError("refresh window must exceed tRC")

    # Cached: every memory transaction reads one of the two, and the
    # fields they sum are frozen.
    @cached_property
    def conflict_latency_ns(self) -> int:
        """End-to-end latency of a row-buffer conflict (precharge+ACT+CAS)."""
        return self.t_rc_ns + self.ctrl_overhead_ns

    @cached_property
    def hit_latency_ns(self) -> int:
        """End-to-end latency of a row-buffer hit."""
        return self.t_cas_ns + self.ctrl_overhead_ns

    def refresh_epoch(self, now_ns: int) -> int:
        """The auto-refresh epoch containing ``now_ns``.

        The simulator heals all disturbance lazily when a row is next
        touched in a newer epoch, which is behaviourally equivalent to
        the staggered refresh a real controller performs and much
        cheaper to simulate.
        """
        return now_ns // self.refresh_window_ns


#: Timings used for the DDR3 machines in Table II (Optiplex 990, X230).
DDR3_TIMINGS = DramTimings(t_rc_ns=50, t_cas_ns=14, ctrl_overhead_ns=15)

#: Timings used for the DDR4 machines in Table II / Section VI.  tRC is
#: the paper's ~50 ns; the controller overhead on top is what gives the
#: offline profile's 1 ms window its real-world safety margin.
DDR4_TIMINGS = DramTimings(t_rc_ns=50, t_cas_ns=14, ctrl_overhead_ns=16)
