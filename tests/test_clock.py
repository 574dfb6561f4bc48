"""Tests for the simulated clock and cycle accountant."""

import copy
import math
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.clock import NS_PER_MS, CycleAccountant, SimClock
from repro.errors import ConfigError
from repro.kernel.kernel import Kernel
from repro.kernel.timer import KernelTimers


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ns == 0

    def test_custom_start(self):
        assert SimClock(start_ns=42).now_ns == 42

    def test_negative_start_rejected(self):
        with pytest.raises(ConfigError):
            SimClock(start_ns=-1)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(100) == 100
        assert clock.advance(50) == 150
        assert clock.now_ns == 150

    def test_advance_negative_rejected(self):
        with pytest.raises(ConfigError):
            SimClock().advance(-1)

    def test_advance_to(self):
        clock = SimClock()
        clock.advance_to(500)
        assert clock.now_ns == 500
        clock.advance_to(100)  # into the past: no-op
        assert clock.now_ns == 500

    def test_now_ms(self):
        clock = SimClock()
        clock.advance(2 * NS_PER_MS)
        assert clock.now_ms == pytest.approx(2.0)


class TestScheduling:
    def test_one_shot_event_fires_once(self):
        clock = SimClock()
        fired = []
        clock.schedule(100, lambda: fired.append("a"))
        assert clock.pop_due() == []
        clock.advance(99)
        assert clock.pop_due() == []
        clock.advance(1)
        events = clock.pop_due()
        assert len(events) == 1
        events[0].callback()
        assert fired == ["a"]
        clock.advance(1000)
        assert clock.pop_due() == []

    def test_events_pop_in_time_order(self):
        clock = SimClock()
        clock.schedule(200, lambda: None, name="late")
        clock.schedule(100, lambda: None, name="early")
        clock.advance(300)
        names = [e.name for e in clock.pop_due()]
        assert names == ["early", "late"]

    def test_tie_broken_by_schedule_order(self):
        clock = SimClock()
        clock.schedule(100, lambda: None, name="first")
        clock.schedule(100, lambda: None, name="second")
        clock.advance(100)
        assert [e.name for e in clock.pop_due()] == ["first", "second"]

    def test_periodic_event_rearms(self):
        clock = SimClock()
        clock.schedule(10, lambda: None, period_ns=10, name="tick")
        clock.advance(10)
        assert len(clock.pop_due()) == 1
        clock.advance(10)
        assert len(clock.pop_due()) == 1

    def test_periodic_missed_ticks_coalesce(self):
        clock = SimClock()
        clock.schedule(10, lambda: None, period_ns=10, name="tick")
        clock.advance(95)  # 9 periods elapsed; only ticks due so far pop
        due = clock.pop_due()
        # One original + re-arms pop as they come due within the window.
        assert len(due) >= 1
        # After the pop, the one re-armed tick lies in the future.
        assert clock.pending_count() == 1
        assert not clock.has_due()

    def test_cancel(self):
        clock = SimClock()
        event = clock.schedule(10, lambda: None)
        clock.cancel(event)
        clock.advance(100)
        assert clock.pop_due() == []
        assert clock.pending_count() == 0

    def test_cancel_is_idempotent(self):
        clock = SimClock()
        event = clock.schedule(10, lambda: None)
        clock.cancel(event)
        clock.cancel(event)
        clock.advance(20)
        assert clock.pop_due() == []

    def test_schedule_in_past_rejected(self):
        clock = SimClock()
        with pytest.raises(ConfigError):
            clock.schedule(-5, lambda: None)

    def test_pending_count(self):
        clock = SimClock()
        clock.schedule(10, lambda: None)
        clock.schedule(20, lambda: None)
        assert clock.pending_count() == 2


#: One step of a timer schedule: arm a one-shot timer whose callback
#: advances the clock a little, or a periodic one whose callback
#: advances it by less than its period, cancel the n-th armed timer
#: (often the heap's head), advance a little, stall past several
#: periods, or dispatch.
_STEPS = st.one_of(
    st.tuples(st.just("oneshot"), st.integers(0, 40), st.integers(0, 3)),
    st.integers(1, 25).flatmap(lambda period: st.tuples(
        st.just("periodic"), st.just(period), st.integers(0, period - 1))),
    st.tuples(st.just("cancel"), st.integers(0, 30)),
    st.tuples(st.just("advance"), st.integers(0, 12)),
    st.tuples(st.just("stall"), st.integers(60, 400)),
    st.tuples(st.just("dispatch")),
)


def _would_pop(clock):
    """Whether ``pop_due()`` pops anything: run it on a copy and see
    whether the copy's head entry left its heap."""
    probe = copy.deepcopy(clock)
    if not probe._heap:
        return False
    head = probe._heap[0]
    probe.pop_due()
    return all(entry is not head for entry in probe._heap)


class TestDueCheck:
    """``has_due`` is ``pop_due``'s loop condition, and the kernel's
    dispatch returns on it without touching the timer queue."""

    @given(st.lists(_STEPS, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_due_check_matches_pop_due(self, steps):
        clock = SimClock()
        timers = KernelTimers(clock)
        # Kernel.dispatch_timers needs only these three attributes.
        kernel = SimpleNamespace(_in_timer_dispatch=False, clock=clock,
                                 timers=timers)
        armed = []
        # The periodic callbacks' costs per period sum to less than
        # one, so every drain catches up with the clock: each cost is
        # cut to fit what is left.  At a full period a drain re-fires
        # forever; tests/kernel/test_hooks_rmap_timer.py pins that.
        rate_left = Fraction(1)

        def callback(cost):
            return lambda: clock.advance(cost)

        for step in steps:
            kind = step[0]
            if kind == "oneshot":
                armed.append(timers.add_oneshot(step[1], callback(step[2])))
            elif kind == "periodic":
                period = step[1]
                cost = min(step[2], math.ceil(rate_left * period) - 1)
                rate_left -= Fraction(cost, period)
                armed.append(timers.add_periodic(period, callback(cost)))
            elif kind == "cancel" and armed:
                timers.cancel(armed[step[1] % len(armed)])
            elif kind in ("advance", "stall"):
                clock.advance(step[1])
            elif kind == "dispatch":
                due = clock.has_due()
                before = (timers.fired, clock.now_ns, list(clock._heap),
                          set(clock._cancelled))
                Kernel.dispatch_timers(kernel)
                after = (timers.fired, clock.now_ns, list(clock._heap),
                         set(clock._cancelled))
                if not due:
                    assert after == before
                assert not clock.has_due()
            assert clock.has_due() == _would_pop(clock)

    def test_cancelled_head_is_due(self):
        clock = SimClock()
        head = clock.schedule(5, lambda: None)
        clock.schedule(50, lambda: None)
        clock.cancel(head)
        clock.advance(10)
        # pop_due pops the cancelled head (and returns nothing).
        assert clock.has_due()
        assert clock.pop_due() == []
        assert not clock.has_due()


class TestCycleAccountant:
    def test_charge_and_totals(self):
        acct = CycleAccountant()
        acct.charge("fault", 100)
        acct.charge("fault", 50)
        acct.charge("timer", 10)
        assert acct.total("fault") == 150
        assert acct.total("timer") == 10
        assert acct.total("absent") == 0
        assert acct.grand_total() == 160

    def test_snapshot_is_a_copy(self):
        acct = CycleAccountant()
        acct.charge("x", 1)
        snap = acct.snapshot()
        snap["x"] = 999
        assert acct.total("x") == 1

    def test_reset(self):
        acct = CycleAccountant()
        acct.charge("x", 1)
        acct.reset()
        assert acct.grand_total() == 0
