"""Snapshot/restore determinism: restore + replay = bit-identical run.

The acceptance property: snapshot a machine, disturb it (hammer DRAM,
run workloads, let SoftTRR tick), record the FlipEvent stream and the
full counter registry, then restore and replay the same inputs — every
observable must match, under strict sanitizers, with batching pinned on
and off.
"""

import pytest

from repro.clock import NS_PER_MS
from repro.defenses import DEFENSES
from repro.faults import FaultPlan, FaultSpec
from repro.kernel.vma import PAGE
from repro.machine import Machine
from repro.workloads.base import SliceWorkload
from repro.workloads.spec import SPEC_PROFILES

SHORT = SPEC_PROFILES["exchange2_s"].replace(duration_ms=4)

#: Tiny-machine-scaled params so each defense's policy actually runs
#: (and therefore actually has state that must travel with snapshots).
DEFENSE_PARAMS = {
    "softtrr": {"timer_inr_ns": 50_000},
    "chiptrr": {"tracker_slots": 2, "trr_threshold": 600,
                "refresh_distance": 3},
    "para": {"probability": 0.01},
    "misra_gries": {"table_entries": 4, "threshold": 600},
    "ptmp": {"table_entries": 4, "threshold": 600,
             "insert_probability": 0.25},
    "dapper": {"table_entries": 4, "threshold": 600,
               "mitigation_budget": 3},
}

#: All five sites active at once, probability-triggered — the injector's
#: RNG streams and opportunity counters must travel with the snapshot.
CHAOS_PLAN = FaultPlan(specs=(
    FaultSpec(site="timers", mode="drop", probability=0.2),
    FaultSpec(site="hooks", mode="drop", probability=0.1),
    FaultSpec(site="mmu", mode="swallow", probability=0.5),
    FaultSpec(site="tlb", mode="lost_invlpg", probability=0.3),
    FaultSpec(site="refresher", mode="fail_refresh", probability=0.5),
), seed=23)

#: Healing on, so the heal paths (retry, watchdog, resync) are inside
#: the replayed state too.
HEALING = {"timer_inr_ns": 50_000, "heal_refresh_retries": 2,
           "heal_watchdog": True, "heal_resync_every": 3}


def _aggressor_paddr(machine):
    """Physical address whose row flanks the cheapest vulnerable row."""
    dram = machine.dram
    best = None
    for row in range(4, dram.geometry.rows_per_bank - 4):
        cells = dram.engine.vulnerable_cells(0, row)
        if cells and (best is None or cells[0].threshold < best[1]):
            best = (row, cells[0].threshold)
    if best is None:
        pytest.skip("no vulnerable row on this machine seed")
    return dram.mapping.dram_to_phys(0, best[0] - 1, 0)


def _hammer_replay(machine, aggr):
    """A fixed disturbance: hammer bursts + a small process + a tick."""
    kernel = machine.kernel
    proc = kernel.create_process("replayed-app")
    base = kernel.mmap(proc, 8 * PAGE)
    for i in range(8):
        kernel.user_write(proc, base + i * PAGE, bytes([i + 1]))
    for _ in range(40):
        machine.dram.hammer(aggr, 1_000)
    machine.clock.advance(2 * NS_PER_MS)
    kernel.dispatch_timers()
    return _observables(machine)


def _observables(machine):
    return (tuple(machine.dram.flip_log), machine.clock.now_ns,
            machine.telemetry.as_flat_dict())


def _run_workload(machine, batch, seed):
    """``SHORT`` on the batched or the scalar reference path."""
    return SliceWorkload(machine.kernel, SHORT, seed=seed,
                         use_batch=batch).run()


class TestSnapshotRestore:
    def test_restore_replays_identical_flip_stream(self):
        m = Machine(machine="tiny", sanitizers="strict")
        aggr = _aggressor_paddr(m)
        snap = m.snapshot()
        first = _hammer_replay(m, aggr)
        assert first[0], "disturbance produced no FlipEvents to compare"
        m.restore(snap)
        second = _hammer_replay(m, aggr)
        assert first == second

    def test_snapshot_is_reusable_across_restores(self):
        m = Machine(machine="tiny", sanitizers="strict")
        aggr = _aggressor_paddr(m)
        snap = m.snapshot()
        runs = []
        for _ in range(2):
            m.restore(snap)
            runs.append(_hammer_replay(m, aggr))
        assert runs[0] == runs[1]

    def test_snapshot_untouched_by_later_simulation(self):
        m = Machine(machine="tiny")
        snap = m.snapshot()
        baseline = snap.taken_at_ns
        m.run_workload(SHORT, seed=5)
        m.restore(snap)
        assert m.clock.now_ns == baseline

    def test_restore_reinstalls_strict_sanitizers(self):
        m = Machine(machine="tiny", sanitizers="strict")
        snap = m.snapshot()
        m.run_workload(SHORT, seed=5)
        m.restore(snap)
        assert m.sanitizers is not None
        assert m.sanitizers.strict is True
        # The manager's wrappers are live again (uninstall clears them).
        assert m.sanitizers._originals

    @pytest.mark.parametrize("batch", [False, True])
    def test_workload_replay_matches_under_both_exec_paths(self, batch):
        m = Machine(machine="tiny", defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000},
                    sanitizers="strict")
        snap = m.snapshot()
        first = _run_workload(m, batch, seed=11)
        first_obs = _observables(m)
        m.restore(snap)
        second = _run_workload(m, batch, seed=11)
        assert (first.runtime_ns, first.slices) == (
            second.runtime_ns, second.slices)
        assert first_obs == _observables(m)

    def test_mid_run_snapshot_resumes_identically(self):
        # Snapshot *after* some history, not just at boot.
        m = Machine(machine="tiny", defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000})
        m.run_workload(SHORT, seed=2)
        snap = m.snapshot()
        first = (m.run_workload(SHORT, seed=3).runtime_ns, _observables(m))
        m.restore(snap)
        second = (m.run_workload(SHORT, seed=3).runtime_ns, _observables(m))
        assert first == second


class TestSnapshotPerDefense:
    """Every registry defense replays bit-identically after restore."""

    @pytest.mark.parametrize("defense", sorted(DEFENSES))
    def test_restore_replays_identically(self, defense):
        m = Machine(machine="tiny", defense=defense,
                    defense_params=DEFENSE_PARAMS.get(defense, {}),
                    sanitizers="strict")
        aggr = _aggressor_paddr(m)
        snap = m.snapshot()
        first = _hammer_replay(m, aggr)
        m.restore(snap)
        second = _hammer_replay(m, aggr)
        assert first == second

    @pytest.mark.parametrize(
        "defense", ["chiptrr", "para", "misra_gries", "ptmp", "dapper"])
    def test_tracker_state_travels_with_snapshot(self, defense):
        # The restored machine must *re-drive the same tracker*, not a
        # fresh one: counters rewind with the snapshot, and replay after
        # restore reproduces them exactly.
        m = Machine(machine="tiny", defense=defense,
                    defense_params=DEFENSE_PARAMS.get(defense, {}))
        aggr = _aggressor_paddr(m)
        snap = m.snapshot()
        _hammer_replay(m, aggr)
        flat = m.telemetry.as_flat_dict()
        moved = {key: value for key, value in flat.items()
                 if key.startswith("tracker.") or key == "actuator.refreshes"}
        assert moved["actuator.refreshes"] > 0, (
            f"{defense} never actuated; params too weak for the test")
        m.restore(snap)
        rewound = m.telemetry.as_flat_dict()
        assert all(rewound[key] == 0 for key in moved
                   if not key.endswith("sram_bits"))
        _hammer_replay(m, aggr)
        replayed = m.telemetry.as_flat_dict()
        assert {key: replayed[key] for key in moved} == moved


class TestSnapshotWithFaultPlan:
    """Snapshot/restore replays an active fault stream bit-identically."""

    def _machine(self):
        return Machine(machine="tiny", defense="softtrr",
                       defense_params=HEALING, sanitizers="report",
                       fault_plan=CHAOS_PLAN)

    @pytest.mark.parametrize("batch", [False, True])
    def test_fault_stream_replays_identically(self, batch):
        m = self._machine()
        snap = m.snapshot()
        _run_workload(m, batch, seed=11)
        first = _observables(m)
        # The run must have actually drawn from the fault streams,
        # otherwise this test proves nothing.
        assert any(value > 0 for key, value in first[2].items()
                   if key.startswith("faults.") and key.endswith(".injected"))
        m.restore(snap)
        _run_workload(m, batch, seed=11)
        assert first == _observables(m)

    def test_restore_reinstalls_the_injector(self):
        m = self._machine()
        snap = m.snapshot()
        _run_workload(m, False, seed=11)
        m.restore(snap)
        assert m.fault_injector is not None
        assert m.fault_injector.installed
        assert m.kernel.fault_injector is m.fault_injector
        # Counters rewound with the rest of the machine.
        assert all(
            value == 0
            for key, value in m.telemetry.as_flat_dict().items()
            if key.startswith("faults."))

    def test_snapshot_is_reusable_with_faults_active(self):
        m = self._machine()
        aggr = _aggressor_paddr(m)
        snap = m.snapshot()
        runs = []
        for _ in range(2):
            m.restore(snap)
            runs.append(_hammer_replay(m, aggr))
        assert runs[0] == runs[1]
