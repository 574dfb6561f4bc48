"""Unit tests for the tracker zoo policies and the layered feed.

The trackers are tested standalone (policy logic: insertion, eviction,
thresholds, budgets) and installed (the defense subscribes them to the
machine's activation feed and the shared actuator heals their victims).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.dram.chiptrr import ChipTrr, TrrParams
from repro.dram.feed import ActivationFeed, RefreshActuator, Tracker
from repro.dram.remap import FoldedRemap, IdentityRemap
from repro.defenses import DEFENSES, register_defense
from repro.defenses.base import Defense
from repro.defenses.trackers.dapper import DapperParams, DapperTracker
from repro.defenses.trackers.misra_gries import (
    MisraGriesParams,
    MisraGriesTracker,
)
from repro.defenses.trackers.para import ParaParams, ParaTracker
from repro.defenses.trackers.ptmp import PtmpParams, PtmpTracker
from repro.errors import ConfigError
from repro.machine import Machine, build_defense
from repro.rng import derive_rng

from .reference import (
    ReferenceChipTrr,
    ReferenceDapper,
    ReferenceMisraGries,
    ReferencePara,
    ReferencePtmp,
)


class TestFeedPlumbing:
    def test_publish_observes_then_actuates(self):
        healed = []
        actuator = RefreshActuator(lambda bank, row: healed.append((bank, row)))
        feed = ActivationFeed(actuator)

        class Echo(Tracker):
            name = "echo"

            def observe(self, bank, row, count, epoch, now_ns):
                self.queue_refresh(bank, row + 1)

        feed.subscribe(Echo())
        assert feed.active
        feed.publish(0, 5, 3, 0, 0)
        assert healed == [(0, 6)]
        assert actuator.refreshes == 1

    def test_unsubscribe_deactivates(self):
        feed = ActivationFeed(RefreshActuator(lambda bank, row: None))
        tracker = feed.subscribe(ParaTracker(
            ParaParams(probability=1.0), derive_rng("t", 0)))
        feed.unsubscribe(tracker)
        assert not feed.active
        assert feed.trackers() == ()


class TestPara:
    def test_probability_one_triggers_every_act(self):
        tracker = ParaTracker(ParaParams(probability=1.0),
                              derive_rng("para-test", 1))
        tracker.observe(0, 10, 5, 0, 0)
        assert tracker.triggers == 5
        assert set(tracker.drain_refreshes()) == {(0, 9), (0, 11)}
        assert tracker.sram_bits() == 0

    def test_draws_are_seed_deterministic(self):
        def run(seed):
            tracker = ParaTracker(ParaParams(probability=0.3),
                                  derive_rng("para-test", seed))
            for row in range(50):
                tracker.observe(0, row, 4, 0, 0)
            return tracker.triggers, tuple(tracker.drain_refreshes())

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            ParaParams(probability=0.0)
        with pytest.raises(ConfigError):
            ParaParams(refresh_distance=0)


class TestMisraGries:
    def params(self, **overrides):
        merged = dict(table_entries=2, threshold=10, refresh_distance=1)
        merged.update(overrides)
        return MisraGriesParams(**merged)

    def test_mitigation_subtracts_threshold(self):
        tracker = MisraGriesTracker(self.params())
        tracker.observe(0, 5, 25, 0, 0)
        # 25 ACTs = two crossings of threshold 10 with 5 left over.
        assert tracker.mitigations == 2
        assert tracker.tracked_rows(0, 0) == {5: 5}
        assert tracker.drain_refreshes() == [(0, 4), (0, 6)] * 2

    def test_spillover_decrements_everybody(self):
        tracker = MisraGriesTracker(self.params())
        tracker.observe(0, 1, 3, 0, 0)
        tracker.observe(0, 2, 6, 0, 0)
        tracker.observe(0, 3, 4, 0, 0)  # spill: 3 dies, 2 drops to 2
        assert tracker.evictions == 1
        assert tracker.tracked_rows(0, 0) == {2: 2}

    def test_epoch_reset_is_lazy(self):
        tracker = MisraGriesTracker(self.params())
        tracker.observe(0, 1, 9, 0, 0)
        assert tracker.tracked_rows(0, 1) == {}
        tracker.observe(0, 1, 9, 1, 0)
        assert tracker.mitigations == 0


class TestPtmp:
    def params(self, **overrides):
        merged = dict(table_entries=2, threshold=10,
                      insert_probability=1.0, refresh_distance=1)
        merged.update(overrides)
        return PtmpParams(**merged)

    def test_certain_insertion_behaves_like_counter(self):
        tracker = PtmpTracker(self.params(), derive_rng("ptmp-test", 0))
        tracker.observe(0, 5, 10, 0, 0)
        assert tracker.mitigations == 1
        assert tracker.tracked_rows(0, 0) == {5: 0}

    def test_rejection_probability_zero_point(self):
        tracker = PtmpTracker(self.params(insert_probability=1e-12),
                              derive_rng("ptmp-test", 0))
        for row in range(100):
            tracker.observe(0, row, 10, 0, 0)
        assert tracker.insertions == 0
        assert tracker.rejected == 100
        assert tracker.mitigations == 0

    def test_full_table_evicts_random_victim(self):
        tracker = PtmpTracker(self.params(), derive_rng("ptmp-test", 3))
        tracker.observe(0, 1, 2, 0, 0)
        tracker.observe(0, 2, 2, 0, 0)
        tracker.observe(0, 3, 2, 0, 0)
        table = tracker.tracked_rows(0, 0)
        assert 3 in table and len(table) == 2


class TestDapper:
    def params(self, **overrides):
        merged = dict(table_entries=2, threshold=10, mitigation_budget=2,
                      refresh_distance=1)
        merged.update(overrides)
        return DapperParams(**merged)

    def test_budget_caps_mitigations_per_epoch(self):
        tracker = DapperTracker(self.params())
        tracker.observe(0, 5, 45, 0, 0)  # four crossings, budget is two
        assert tracker.mitigations == 2
        assert tracker.suppressed == 2
        assert tracker.budget_left(0, 0) == 0

    def test_budget_recovers_next_epoch(self):
        tracker = DapperTracker(self.params())
        tracker.observe(0, 5, 45, 0, 0)
        tracker.observe(0, 5, 10, 1, 0)
        assert tracker.budget_left(0, 1) == 1
        assert tracker.mitigations == 3

    def test_sram_accounts_for_budget_register(self):
        assert tracker_bits(self.params()) > tracker_bits(
            self.params(), budgetless=True)


def tracker_bits(params, budgetless=False):
    bits = DapperTracker(params).sram_bits()
    if budgetless:
        bits -= max(1, params.mitigation_budget.bit_length())
    return bits


class TestInstalledDefenses:
    ZOO = ("chiptrr", "para", "misra_gries", "ptmp", "dapper")

    @pytest.mark.parametrize("name", ZOO)
    def test_defense_subscribes_one_tracker(self, name):
        m = Machine(machine="tiny", defense=name)
        trackers = m.kernel.dram.feed.trackers()
        assert [t.name for t in trackers] == [name]
        assert m.kernel.dram.feed.active

    def test_vanilla_machine_has_inactive_feed(self):
        m = Machine(machine="tiny")
        assert not m.kernel.dram.feed.active

    @pytest.mark.parametrize("name", ZOO)
    def test_registry_resolves_zoo(self, name):
        assert DEFENSES[name]().name == name

    def test_unknown_defense_lists_catalogue(self):
        with pytest.raises(KeyError, match="para"):
            DEFENSES["definitely-not-a-defense"]

    def test_reregistration_replaces_by_name(self):
        original = DEFENSES["para"]

        @register_defense
        class Impostor(Defense):
            name = "para"
            summary = "test stand-in"

        try:
            assert DEFENSES["para"] is Impostor
        finally:
            register_defense(original)
        assert DEFENSES["para"] is original

    def test_register_rejects_abstract_name(self):
        with pytest.raises(ValueError):
            register_defense(Defense)

    #: Each zoo defense's keyword params and their defaults: public
    #: API that fleet specs and scenario params spell out.
    KEYWORDS = {
        "chiptrr": dict(tracker_slots=2, trr_threshold=4_000,
                        refresh_distance=6),
        "para": dict(probability=0.001, refresh_distance=1, seed=0),
        "misra_gries": dict(table_entries=8, threshold=2_000,
                            refresh_distance=2),
        "ptmp": dict(table_entries=4, threshold=2_000,
                     insert_probability=1 / 16, refresh_distance=2,
                     seed=0),
        "dapper": dict(table_entries=8, threshold=2_000,
                       mitigation_budget=4, refresh_distance=2),
    }

    #: Every integer knob of those params, as (defense, keyword).
    INT_KNOBS = [(name, key) for name, keywords in KEYWORDS.items()
                 for key, default in keywords.items()
                 if isinstance(default, int)]

    @pytest.mark.parametrize("value", [True, 2.5, "3"])
    @pytest.mark.parametrize("name, key", INT_KNOBS)
    def test_int_knobs_raise_typed_errors(self, name, key, value):
        # A bool or non-int knob must fail at build time, naming the
        # field, not build a fractional table or crash mid-run.
        with pytest.raises(ConfigError, match=rf"\.{key} must be an int"):
            build_defense(name, {key: value})

    @pytest.mark.parametrize("value", [True, "0.5"])
    @pytest.mark.parametrize("name, key", [("para", "probability"),
                                           ("ptmp", "insert_probability")])
    def test_float_knobs_raise_typed_errors(self, name, key, value):
        # True passes the (0, 1] range check as 1.0; the type check must
        # name the field first.  An int such as 1 stays a valid float.
        with pytest.raises(ConfigError, match=rf"\.{key} must be a number"):
            build_defense(name, {key: value})
        assert getattr(build_defense(name, {key: 1}).params, key) == 1

    @pytest.mark.parametrize("name", ZOO)
    def test_defense_keywords_and_defaults(self, name):
        keywords = self.KEYWORDS[name]
        params = dataclasses.asdict(DEFENSES[name]().params)
        if name == "chiptrr":
            assert params.pop("enabled") is True
        assert params == keywords
        # Every keyword is accepted and lands on the params ...
        for key, default in keywords.items():
            value = default * 2 if key != "seed" else 5
            assert getattr(DEFENSES[name](**{key: value}).params,
                           key) == value
        # ... and nothing else is: no unknown key, no pinned field.
        for key in ("typo", "enabled"):
            with pytest.raises(ConfigError, match=repr(key)):
                build_defense(name, {key: 1})


_REMAPS = (None, IdentityRemap(16), FoldedRemap(16))

#: One feed call: bank, row, ACT count, epoch.  Small counts recur
#: often enough that a spill takes a counter to exactly zero; epochs
#: come in any order, so tables (and DAPPER's budget) refill
#: non-monotonically.
_STREAM = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15),
                             st.integers(-2, 6) | st.integers(-2, 300),
                             st.integers(0, 3)),
                   max_size=40)

_KNOBS = st.fixed_dictionaries({
    "remap": st.sampled_from(_REMAPS),
    "slots": st.integers(1, 4),
    "threshold": st.integers(2, 50),
    "distance": st.integers(1, 3),
    "budget": st.integers(1, 3),
    "probability": st.sampled_from([0.01, 0.1, 0.5, 1.0]),
    "seed": st.integers(0, 3),
})


def _with_reference(kind, remap, slots, threshold, distance, budget,
                    probability, seed):
    """A production tracker and its reference copy, built alike."""
    if kind == "chiptrr":
        params = TrrParams(enabled=True, tracker_slots=slots,
                           trr_threshold=threshold,
                           refresh_distance=distance)
        return (ChipTrr(params, remap=remap),
                ReferenceChipTrr(params, remap))
    if kind == "misra_gries":
        params = MisraGriesParams(table_entries=slots, threshold=threshold,
                                  refresh_distance=distance)
        return (MisraGriesTracker(params, remap=remap),
                ReferenceMisraGries(params, remap))
    if kind == "dapper":
        params = DapperParams(table_entries=slots, threshold=threshold,
                              mitigation_budget=budget,
                              refresh_distance=distance)
        return (DapperTracker(params, remap=remap),
                ReferenceDapper(params, remap))
    if kind == "ptmp":
        params = PtmpParams(table_entries=slots, threshold=threshold,
                            insert_probability=probability,
                            refresh_distance=distance)
        return (PtmpTracker(params, derive_rng("ref", seed), remap=remap),
                ReferencePtmp(params, derive_rng("ref", seed), remap))
    params = ParaParams(probability=probability, refresh_distance=distance)
    return (ParaTracker(params, derive_rng("ref", seed), remap=remap),
            ReferencePara(params, derive_rng("ref", seed), remap))


@pytest.mark.parametrize("kind", TestInstalledDefenses.ZOO)
@settings(max_examples=200, deadline=None)
@given(knobs=_KNOBS, stream=_STREAM)
def test_tracker_matches_reference(kind, knobs, stream):
    """Each tracker's policy on the shared core equals its standalone
    copy, call by call."""
    tracker, reference = _with_reference(kind, **knobs)
    for bank, row, count, epoch in stream:
        tracker.observe(bank, row, count, epoch, 0)
        reference.observe(bank, row, count, epoch, 0)
        assert tracker.drain_refreshes() == reference.drain_refreshes()
        assert (list(tracker.counters().items())
                == list(reference.counters().items()))
        assert tracker.sram_bits() == reference.sram_bits()
        if kind != "para":
            assert (tracker.tracked_rows(bank, epoch)
                    == reference.tracked_rows(bank, epoch))
        if kind == "dapper":
            assert (tracker.budget_left(bank, epoch)
                    == reference.budget_left(bank, epoch))
        if kind in ("para", "ptmp"):
            assert tracker.rng.getstate() == reference.rng.getstate()
