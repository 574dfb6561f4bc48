"""Trace-enabled runs are behaviourally invisible, bit for bit.

The no-wrap instrumentation contract: emission sites never touch the
clock or any RNG, so a trace-enabled machine replays the exact run a
trace-off machine does — identical FlipEvent streams, identical
behavioural counters (``telemetry.as_flat_dict()`` deliberately
excludes trace-side keys), identical simulated nanoseconds.  Checked
at every trace level, with the hammer bursts on the scalar and on the
batched DRAM path, under strict sanitizers and under an active fault
plan; plus snapshot/restore of a partially-filled (and wrapped) ring
buffer.
"""

import pytest

from repro.faults import FaultPlan, FaultSpec
from repro.kernel.vma import PAGE
from repro.machine import Machine, MachineConfig
from repro.workloads.spec import SPEC_PROFILES

SHORT = SPEC_PROFILES["exchange2_s"].replace(duration_ms=4)

SOFTTRR = {"timer_inr_ns": 50_000}

CHAOS_PLAN = FaultPlan(specs=(
    FaultSpec(site="timers", mode="drop", probability=0.2),
    FaultSpec(site="hooks", mode="drop", probability=0.1),
    FaultSpec(site="mmu", mode="swallow", probability=0.5),
    FaultSpec(site="tlb", mode="lost_invlpg", probability=0.3),
    FaultSpec(site="refresher", mode="fail_refresh", probability=0.5),
), seed=23)


def _config(trace, **overrides):
    base = dict(machine="tiny", defense="softtrr", defense_params=SOFTTRR,
                trace=trace)
    base.update(overrides)
    return MachineConfig(**base)


def _aggressor_paddr(machine):
    dram = machine.dram
    best = None
    for row in range(4, dram.geometry.rows_per_bank - 4):
        cells = dram.engine.vulnerable_cells(0, row)
        if cells and (best is None or cells[0].threshold < best[1]):
            best = (row, cells[0].threshold)
    if best is None:
        pytest.skip("no vulnerable row on this machine seed")
    return dram.mapping.dram_to_phys(0, best[0] - 1, 0)


def _drive(machine, batch=False):
    """A fixed mixed load: workload slices + hammer bursts + a tick.

    ``batch`` sends the 40 bursts through one ``hammer_batch`` call
    instead of 40 ``hammer`` calls.
    """
    machine.run_workload(SHORT, seed=11)
    aggr = _aggressor_paddr(machine)
    if batch:
        bank, row = machine.dram.mapping.row_of(aggr)
        machine.dram.hammer_batch([(bank, row, 1_000)] * 40)
    else:
        for _ in range(40):
            machine.dram.hammer(aggr, 1_000)
    machine.clock.advance(2 * 50_000)
    machine.kernel.dispatch_timers()


def _observables(machine):
    return (tuple(machine.dram.flip_log), machine.clock.now_ns,
            machine.telemetry.as_flat_dict())


def _run(trace, batch=False, **overrides):
    machine = Machine(_config(trace, **overrides))
    _drive(machine, batch)
    return _observables(machine)


class TestTraceOffEquivalence:
    @pytest.mark.parametrize("level", ["metrics", "events", "spans"])
    def test_every_level_matches_off(self, level):
        assert _run(level) == _run("off")

    @pytest.mark.parametrize("batch", [False, True])
    def test_matches_under_both_exec_paths(self, batch):
        assert _run("spans", batch=batch) == _run("off", batch=batch)

    def test_matches_under_strict_sanitizers(self):
        on = _run("spans", sanitizers="strict")
        off = _run("off", sanitizers="strict")
        assert on == off

    def test_matches_with_active_fault_plan(self):
        on = _run("spans", sanitizers="report", fault_plan=CHAOS_PLAN)
        off = _run("off", sanitizers="report", fault_plan=CHAOS_PLAN)
        # The comparison must actually cover drawn fault streams.
        assert any(value > 0 for key, value in on[2].items()
                   if key.startswith("faults.") and key.endswith(".injected"))
        assert on == off

    def test_tiny_capacity_overflow_is_still_invisible(self):
        assert _run("spans", trace_capacity=8) == _run("off")

    def test_trace_runs_are_deterministic(self):
        a = Machine(_config("spans"))
        b = Machine(_config("spans"))
        _drive(a)
        _drive(b)
        assert _observables(a) == _observables(b)
        assert a.telemetry.events() == b.telemetry.events()
        assert a.telemetry.trace_metrics() == b.telemetry.trace_metrics()


class TestSnapshotRestoreWithTracing:
    def test_partial_buffer_travels_and_replays(self):
        m = Machine(_config("events"))
        kernel = m.kernel
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 8 * PAGE)
        for i in range(8):
            kernel.user_write(proc, base + i * PAGE, bytes([i + 1]))
        snap = m.snapshot()
        pre_events = m.telemetry.events()
        assert pre_events, "buffer should be partially filled pre-snapshot"
        _drive(m)
        first_events = m.telemetry.events()
        first_obs = _observables(m)
        m.restore(snap)
        # Restore rewound the ring to its snapshot contents...
        assert m.telemetry.events() == pre_events
        # ...and the hub is the copied one, still wired everywhere.
        hub = m.kernel.trace_hub
        assert m.kernel.clock.trace is hub
        assert m.kernel.dram.trace is hub
        assert m.softtrr.tracer.trace is hub
        _drive(m)
        assert m.telemetry.events() == first_events
        assert _observables(m) == first_obs

    def test_wrapped_ring_replays_bit_identically(self):
        m = Machine(_config("events", trace_capacity=32))
        _drive(m)
        assert m.kernel.trace_hub.buffer.dropped > 0
        snap = m.snapshot()
        dropped_at_snap = m.kernel.trace_hub.buffer.dropped
        m.run_workload(SHORT, seed=3)
        first = (m.telemetry.events(), m.kernel.trace_hub.buffer.dropped,
                 _observables(m))
        m.restore(snap)
        assert m.kernel.trace_hub.buffer.dropped == dropped_at_snap
        m.run_workload(SHORT, seed=3)
        second = (m.telemetry.events(), m.kernel.trace_hub.buffer.dropped,
                  _observables(m))
        assert first == second
