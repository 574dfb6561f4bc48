"""Validation and serialisation of FaultSpec / FaultPlan."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import FaultError, ReproError
from repro.faults import FAULT_SITES, SITE_MODES, FaultPlan, FaultSpec

_DROP = {"site": "timers", "mode": "drop", "probability": 0.5}

#: Malformed plans that used to crash or quietly change meaning.
MALFORMED = [
    {"spec": [_DROP]},                      # typo: was an empty plan
    {"specs": [_DROP], "seed": 1.5},        # was accepted
    {"specs": [_DROP], "seed": True},
    {"specs": [{**_DROP, "seed": 1.5}]},
    {"specs": [{**_DROP, "seed": False}]},
    {"specs": [{**_DROP, "typo": 1}]},      # was a bare TypeError
    {"specs": [{"site": "timers", "probability": 0.5}]},
    {"specs": [{**_DROP, "probability": "0.5"}]},
    {"specs": [{**_DROP, "probability": True}]},
    {"specs": [{"site": "timers", "mode": "drop",
                "at_opportunities": 3}]},
    {"specs": [{"site": "timers", "mode": "drop",
                "at_opportunities": [True]}]},
    {"specs": [{"site": "timers", "mode": "delay", "probability": 0.5,
                "magnitude_ns": 2.5}]},
    {"specs": [{**_DROP, "site": ["timers"]}]},
    {"specs": 5},
    {"specs": None},
    {"specs": "timers"},
    {"specs": [7]},
]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)
_PAIRS = [(site, mode) for site in FAULT_SITES for mode in SITE_MODES[site]]


def _mostly(draw, valid):
    """``valid``, or (one time in eight) any JSON value."""
    return draw(_JSON) if draw(st.integers(0, 7)) == 0 else draw(valid)


@st.composite
def _spec_dicts(draw):
    """Spec-shaped dicts: mostly valid fields, sometimes junk."""
    site, mode = draw(st.sampled_from(_PAIRS))
    spec = {"site": site, "mode": mode}
    if draw(st.booleans()):
        spec["probability"] = _mostly(
            draw, st.floats(0.0, 1.0, exclude_min=True))
    else:
        spec["at_opportunities"] = _mostly(draw, st.lists(
            st.integers(1, 50), min_size=1, unique=True).map(sorted))
    if mode == "delay":
        spec["magnitude_ns"] = _mostly(draw, st.integers(1, 10**6))
    if draw(st.booleans()):
        spec["seed"] = _mostly(draw, st.integers())
    if draw(st.integers(0, 9)) == 0:
        spec[draw(st.sampled_from(["site", "mode", "typo"]))] = draw(_JSON)
    return spec


@st.composite
def _plan_dicts(draw):
    """Plan-shaped dicts, with junk keys and values mixed in."""
    plan = {}
    if draw(st.integers(0, 4)):
        plan["specs"] = draw(st.lists(_spec_dicts(), max_size=3))
    if draw(st.booleans()):
        plan["seed"] = _mostly(draw, st.integers())
    if draw(st.integers(0, 4)) == 0:
        key = draw(st.sampled_from(["spec", "specs", "seed"])
                   | st.text(max_size=6))
        plan[key] = draw(_JSON)
    return plan


class TestFaultSpecValidation:
    def test_probability_spec(self):
        spec = FaultSpec(site="timers", mode="drop", probability=0.5)
        assert spec.site == "timers"
        assert spec.at_opportunities == ()

    def test_schedule_spec(self):
        spec = FaultSpec(site="tlb", mode="lost_invlpg",
                         at_opportunities=[1, 3, 8])
        assert spec.at_opportunities == (1, 3, 8)

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(site="cache", mode="drop", probability=0.5)

    def test_mode_must_match_site(self):
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="swallow", probability=0.5)

    def test_every_listed_mode_constructs(self):
        for site in FAULT_SITES:
            for mode in SITE_MODES[site]:
                magnitude = 100 if mode == "delay" else 0
                FaultSpec(site=site, mode=mode, probability=0.5,
                          magnitude_ns=magnitude)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop", probability=1.5)

    def test_exactly_one_trigger_required(self):
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop")
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop", probability=0.5,
                      at_opportunities=(1,))

    def test_schedule_must_be_increasing_one_based(self):
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop", at_opportunities=(3, 1))
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop", at_opportunities=(0,))
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop", at_opportunities=(2, 2))

    def test_magnitude_only_for_delay(self):
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="drop", probability=0.5,
                      magnitude_ns=100)
        with pytest.raises(FaultError):
            FaultSpec(site="timers", mode="delay", probability=0.5)

    def test_fault_error_is_a_repro_error(self):
        with pytest.raises(ReproError):
            FaultSpec(site="nope", mode="drop", probability=0.5)

    def test_replace(self):
        spec = FaultSpec(site="timers", mode="drop", probability=0.5)
        assert spec.replace(probability=0.25).probability == 0.25

    def test_coerce_roundtrips_to_dict(self):
        spec = FaultSpec(site="hooks", mode="reorder", probability=0.1,
                         seed=3)
        assert FaultSpec.coerce(spec.to_dict()) == spec
        assert FaultSpec.coerce(spec) is spec

    def test_coerce_rejects_garbage(self):
        with pytest.raises(FaultError):
            FaultSpec.coerce(42)


class TestFaultPlan:
    def test_empty_plan_is_falsy(self):
        assert not FaultPlan()
        assert FaultPlan(specs=(
            FaultSpec(site="timers", mode="drop", probability=0.5),))

    def test_specs_hydrated_from_dicts(self):
        plan = FaultPlan(specs=(
            {"site": "mmu", "mode": "swallow", "probability": 0.2},))
        assert plan.specs[0] == FaultSpec(site="mmu", mode="swallow",
                                          probability=0.2)

    def test_for_site_filters_in_plan_order(self):
        a = FaultSpec(site="timers", mode="drop", probability=0.5)
        b = FaultSpec(site="tlb", mode="lost_invlpg", probability=0.5)
        c = FaultSpec(site="timers", mode="delay", probability=0.5,
                      magnitude_ns=10)
        plan = FaultPlan(specs=(a, b, c))
        assert plan.for_site("timers") == (a, c)
        assert plan.for_site("refresher") == ()

    def test_for_site_rejects_unknown(self):
        with pytest.raises(FaultError):
            FaultPlan().for_site("cache")

    def test_sites_in_canonical_order(self):
        plan = FaultPlan(specs=(
            FaultSpec(site="tlb", mode="lost_invlpg", probability=0.5),
            FaultSpec(site="timers", mode="drop", probability=0.5)))
        assert plan.sites() == ("timers", "tlb")

    def test_coerce_accepts_plan_mapping_and_sequence(self):
        spec = FaultSpec(site="timers", mode="drop", probability=0.5)
        plan = FaultPlan(specs=(spec,), seed=7)
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce([spec]).specs == (spec,)

    def test_coerce_rejects_garbage(self):
        with pytest.raises(FaultError):
            FaultPlan.coerce("timers")

    @pytest.mark.parametrize("plan", MALFORMED)
    def test_coerce_rejects_malformed_with_fault_error(self, plan):
        with pytest.raises(FaultError):
            FaultPlan.coerce(plan)

    def test_coerce_names_the_bad_key_or_field(self):
        with pytest.raises(FaultError, match="'spec'"):
            FaultPlan.coerce({"spec": [_DROP]})
        with pytest.raises(FaultError, match="'typo'"):
            FaultSpec.coerce({**_DROP, "typo": 1})
        with pytest.raises(FaultError, match="seed"):
            FaultPlan.coerce({"specs": [_DROP], "seed": 1.5})
        with pytest.raises(FaultError, match="'mode'"):
            FaultSpec.coerce({"site": "timers", "probability": 0.5})

    @given(value=_plan_dicts())
    @example(value={"specs": [_DROP], "seed": 3})
    @example(value={"spec": [_DROP]})
    @settings(max_examples=300, deadline=None)
    def test_any_json_dict_round_trips_or_raises_fault_error(self, value):
        try:
            plan = FaultPlan.coerce(value)
        except FaultError:
            return
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert plan.to_dict() == FaultPlan.coerce(plan.to_dict()).to_dict()
