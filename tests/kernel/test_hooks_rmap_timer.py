"""Tests for hooks, the reverse map and kernel timers."""

import pytest

from repro.clock import SimClock
from repro.errors import HookError, KernelError
from repro.kernel.hooks import (
    HOOK_FREE_PAGES,
    HOOK_PAGE_FAULT,
    HOOK_PTE_ALLOC,
    HookManager,
)
from repro.kernel.rmap import ReverseMap
from repro.kernel.timer import KernelTimers


class TestHookManager:
    def test_unknown_point_rejected(self):
        hooks = HookManager()
        with pytest.raises(HookError):
            hooks.register("not_a_hook", lambda: None)

    def test_register_and_notify(self):
        hooks = HookManager()
        seen = []
        hooks.register(HOOK_PTE_ALLOC, lambda *a: seen.append(a))
        hooks.notify(HOOK_PTE_ALLOC, "proc", 42)
        assert seen == [("proc", 42)]

    def test_double_register_rejected(self):
        hooks = HookManager()
        cb = lambda *a: None
        hooks.register(HOOK_PTE_ALLOC, cb)
        with pytest.raises(HookError):
            hooks.register(HOOK_PTE_ALLOC, cb)

    def test_unregister(self):
        hooks = HookManager()
        seen = []
        cb = lambda *a: seen.append(a)
        hooks.register(HOOK_FREE_PAGES, cb)
        hooks.unregister(HOOK_FREE_PAGES, cb)
        hooks.notify(HOOK_FREE_PAGES, 1, 0, None)
        assert seen == []

    def test_unregister_missing_rejected(self):
        hooks = HookManager()
        with pytest.raises(HookError):
            hooks.unregister(HOOK_FREE_PAGES, lambda: None)

    def test_dispatch_first_claimer_wins(self):
        hooks = HookManager()
        hooks.register(HOOK_PAGE_FAULT, lambda *a: None)       # passes
        hooks.register(HOOK_PAGE_FAULT, lambda *a: "handled")  # claims
        hooks.register(HOOK_PAGE_FAULT, lambda *a: "late")     # never runs
        assert hooks.dispatch(HOOK_PAGE_FAULT, "fault") == "handled"

    def test_dispatch_none_when_unclaimed(self):
        hooks = HookManager()
        hooks.register(HOOK_PAGE_FAULT, lambda *a: None)
        assert hooks.dispatch(HOOK_PAGE_FAULT, "fault") is None

    def test_unregister_all(self):
        hooks = HookManager()
        cb1, cb2 = (lambda *a: None), (lambda *a: "x")
        hooks.register(HOOK_PTE_ALLOC, cb1)
        hooks.register(HOOK_PAGE_FAULT, cb2)
        hooks.unregister_all({cb1, cb2})
        assert hooks.hooked(HOOK_PTE_ALLOC) == 0
        assert hooks.hooked(HOOK_PAGE_FAULT) == 0

    def test_dispatch_count(self):
        hooks = HookManager()
        hooks.notify(HOOK_PTE_ALLOC)
        hooks.notify(HOOK_PTE_ALLOC)
        assert hooks.dispatch_count[HOOK_PTE_ALLOC] == 2


class TestHookUnhookAliases:
    def test_hook_and_unhook_roundtrip(self):
        hooks = HookManager()
        seen = []
        cb = lambda *a: seen.append(a)
        hooks.hook(HOOK_PTE_ALLOC, cb)
        hooks.notify(HOOK_PTE_ALLOC, "proc", 1)
        hooks.unhook(HOOK_PTE_ALLOC, cb)
        hooks.notify(HOOK_PTE_ALLOC, "proc", 2)
        assert seen == [("proc", 1)]

    def test_hook_unknown_point_raises_hook_error(self):
        with pytest.raises(HookError):
            HookManager().hook("not_a_hook", lambda: None)

    def test_unhook_unknown_point_raises_hook_error(self):
        with pytest.raises(HookError):
            HookManager().unhook("not_a_hook", lambda: None)

    def test_unhook_never_hooked_raises_hook_error(self):
        # Symmetric with hook()'s double-install rejection: never a
        # ValueError, never a silent pass.
        hooks = HookManager()
        hooks.hook(HOOK_PTE_ALLOC, lambda *a: None)
        with pytest.raises(HookError):
            hooks.unhook(HOOK_PTE_ALLOC, lambda *a: None)

    def test_double_hook_raises_hook_error(self):
        hooks = HookManager()
        cb = lambda *a: None
        hooks.hook(HOOK_PTE_ALLOC, cb)
        with pytest.raises(HookError):
            hooks.hook(HOOK_PTE_ALLOC, cb)

    def test_unhook_twice_raises_hook_error(self):
        hooks = HookManager()
        cb = lambda *a: None
        hooks.hook(HOOK_PTE_ALLOC, cb)
        hooks.unhook(HOOK_PTE_ALLOC, cb)
        with pytest.raises(HookError):
            hooks.unhook(HOOK_PTE_ALLOC, cb)

    def test_callbacks_returns_ordered_copy(self):
        hooks = HookManager()
        a, b = (lambda *x: None), (lambda *x: "b")
        hooks.hook(HOOK_PAGE_FAULT, a)
        hooks.hook(HOOK_PAGE_FAULT, b)
        listed = hooks.callbacks(HOOK_PAGE_FAULT)
        assert listed == [a, b]
        listed.clear()  # mutating the copy must not unhook anything
        assert hooks.hooked(HOOK_PAGE_FAULT) == 2

    def test_callbacks_unknown_point_raises_hook_error(self):
        with pytest.raises(HookError):
            HookManager().callbacks("not_a_hook")


class TestReverseMap:
    def test_add_and_lookup(self):
        rmap = ReverseMap()
        rmap.add(7, pid=1, vaddr=0x1000)
        rmap.add(7, pid=2, vaddr=0x2000)
        assert rmap.mappings_of(7) == [(1, 0x1000), (2, 0x2000)]
        assert rmap.is_mapped(7)

    def test_remove(self):
        rmap = ReverseMap()
        rmap.add(7, 1, 0x1000)
        rmap.remove(7, 1, 0x1000)
        assert not rmap.is_mapped(7)
        assert rmap.mappings_of(7) == []

    def test_remove_untracked_raises(self):
        rmap = ReverseMap()
        with pytest.raises(KernelError):
            rmap.remove(7, 1, 0x1000)

    def test_remove_process(self):
        rmap = ReverseMap()
        rmap.add(7, 1, 0x1000)
        rmap.add(7, 2, 0x1000)
        rmap.add(9, 1, 0x3000)
        rmap.remove_process(1)
        assert rmap.mappings_of(7) == [(2, 0x1000)]
        assert not rmap.is_mapped(9)

    def test_mapped_page_count(self):
        rmap = ReverseMap()
        rmap.add(1, 1, 0x1000)
        rmap.add(2, 1, 0x2000)
        assert rmap.mapped_page_count() == 2


class _RunawayDrain(Exception):
    """A timer callback fired far more often than its timer was due:
    the drain that ran it would not have returned."""


class TestKernelTimers:
    def test_periodic_fires_each_period(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        timers.add_periodic(100, lambda: fired.append(clock.now_ns))
        clock.advance(100)
        timers.run_pending()
        clock.advance(100)
        timers.run_pending()
        assert len(fired) == 2

    def test_oneshot(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        timers.add_oneshot(50, lambda: fired.append(1))
        clock.advance(200)
        timers.run_pending()
        timers.run_pending()
        assert fired == [1]

    def test_cancel(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        event = timers.add_periodic(100, lambda: fired.append(1))
        timers.cancel(event)
        clock.advance(500)
        timers.run_pending()
        assert fired == []

    def test_cancel_all(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        timers.add_periodic(100, lambda: fired.append(1))
        timers.add_oneshot(100, lambda: fired.append(2))
        timers.cancel_all()
        clock.advance(500)
        assert timers.run_pending() == 0

    def test_run_pending_returns_count(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        timers.add_oneshot(10, lambda: None)
        timers.add_oneshot(20, lambda: None)
        clock.advance(30)
        assert timers.run_pending() == 2
        assert timers.fired == 2

    @pytest.mark.parametrize("costs", [(100,), (50, 50)],
                             ids=["one_timer", "two_timers"])
    @pytest.mark.xfail(
        strict=True, raises=_RunawayDrain,
        reason="run_pending never returns once the periodic callbacks "
               "advance the clock by a full period per period: every "
               "re-armed timer is due again")
    def test_callbacks_costing_a_period_fire_once(self, costs):
        clock = SimClock()
        timers = KernelTimers(clock)
        fires = []

        def tick(cost):
            def callback():
                fires.append(cost)
                if len(fires) > 100:
                    raise _RunawayDrain
                clock.advance(cost)
            return callback

        for cost in costs:
            timers.add_periodic(100, tick(cost))
        clock.advance(100)
        timers.run_pending()
        assert len(fires) == len(costs)


class TestSiblingCancellation:
    """A callback cancelling a sibling timer of the same due batch.

    The sibling is already out of the clock's heap when the cancelling
    callback runs, so ``run_pending`` itself must honour the
    cancellation — firing a just-cancelled callback is a use-after-free
    in the real kernel.
    """

    def test_oneshot_cancels_oneshot_sibling(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        second = timers.add_oneshot(100, lambda: fired.append("second"))
        timers.add_oneshot(50, lambda: timers.cancel(second))
        clock.advance(100)
        assert timers.run_pending() == 1
        assert fired == []

    def test_oneshot_cancels_periodic_sibling(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        victim = timers.add_periodic(100, lambda: fired.append(1))
        timers.add_oneshot(50, lambda: timers.cancel(victim))
        clock.advance(100)
        timers.run_pending()
        assert fired == []
        # The re-armed heap instance must stay dead on later pops too.
        clock.advance(300)
        timers.run_pending()
        assert fired == []

    def test_periodic_cancels_periodic_sibling(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        holder = {}
        holder["victim"] = timers.add_periodic(
            100, lambda: fired.append("victim"))
        timers.add_periodic(90, lambda: timers.cancel(holder["victim"]))
        clock.advance(100)
        timers.run_pending()
        clock.advance(200)
        timers.run_pending()
        assert fired == []

    def test_cancelled_oneshot_does_not_leak_into_reuse(self):
        # A skipped one-shot consumes its cancellation: a later,
        # unrelated event must not inherit it.
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        victim = timers.add_oneshot(100, lambda: fired.append("victim"))
        timers.add_oneshot(50, lambda: timers.cancel(victim))
        clock.advance(100)
        timers.run_pending()
        timers.add_oneshot(10, lambda: fired.append("fresh"))
        clock.advance(10)
        timers.run_pending()
        assert fired == ["fresh"]

    def test_unrelated_siblings_still_fire(self):
        clock = SimClock()
        timers = KernelTimers(clock)
        fired = []
        victim = timers.add_oneshot(100, lambda: fired.append("victim"))
        timers.add_oneshot(50, lambda: timers.cancel(victim))
        timers.add_oneshot(100, lambda: fired.append("bystander"))
        clock.advance(100)
        timers.run_pending()
        assert fired == ["bystander"]
