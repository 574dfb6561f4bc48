"""FleetSpec expansion: deterministic, stably ordered, content-hashed."""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli_common import EXIT_USAGE
from repro.errors import ConfigError
from repro.fleet import FleetSpec, cell_id_of, expand_cells, shard_of
from repro.fleet.cli import main
from repro.fleet.runners import _SYNTH_BOUNDARIES
from repro.fleet.spec import CELL_RUNNERS, SPEC_FIELDS
from repro.trace.metrics import DURATION_BUCKETS_NS


def _spec(**overrides):
    base = dict(
        scenarios=("alpha", "beta"),
        seeds=(1, 2),
        defenses=("vanilla", "softtrr"),
        runner="synthetic",
        shards=3,
    )
    base.update(overrides)
    return FleetSpec(**base)


class TestExpansion:
    def test_cross_product_count(self):
        cells = _spec().expand()
        assert len(cells) == 2 * 2 * 2

    def test_empty_axes_contribute_one_neutral_point(self):
        cells = FleetSpec(scenarios=("only",), runner="synthetic").expand()
        assert len(cells) == 1
        cell = cells[0]
        assert cell.seed is None
        assert cell.defense is None
        assert cell.fault_plan is None

    def test_expansion_is_deterministic(self):
        first = _spec().expand()
        second = _spec().expand()
        assert [c.to_dict() for c in first] == [c.to_dict() for c in second]

    def test_order_is_scenario_major(self):
        names = [c.scenario for c in _spec().expand()]
        assert names == ["alpha"] * 4 + ["beta"] * 4

    def test_indexes_are_sequential(self):
        assert [c.index for c in _spec().expand()] == list(range(8))

    def test_cell_ids_are_content_hashes(self):
        cell = _spec().expand()[0]
        assert cell.cell_id == cell_id_of(
            cell.scenario, cell.seed, cell.defense, cell.defense_params,
            cell.fault_plan)

    def test_every_axis_feeds_the_cell_id(self):
        base = cell_id_of("s", 1, "vanilla", {}, None)
        assert cell_id_of("t", 1, "vanilla", {}, None) != base
        assert cell_id_of("s", 2, "vanilla", {}, None) != base
        assert cell_id_of("s", 1, "softtrr", {}, None) != base
        assert cell_id_of("s", 1, "vanilla", {"x": 1}, None) != base
        plan = {"specs": [{"site": "timers", "mode": "drop",
                           "probability": 0.5}], "seed": 0}
        assert cell_id_of("s", 1, "vanilla", {}, plan) != base

    def test_shard_assignment_is_stable_and_in_range(self):
        for cell in _spec(shards=5).expand():
            assert cell.shard == shard_of(cell.cell_id, 5)
            assert 0 <= cell.shard < 5

    def test_duplicate_axis_points_are_rejected(self):
        with pytest.raises(ConfigError, match="duplicate fleet cell"):
            _spec(scenarios=("alpha", "alpha")).expand()

    def test_fault_plan_axis_normalises_to_plan_dicts(self):
        spec = _spec(fault_plans=(
            None,
            {"specs": [{"site": "refresher", "mode": "fail_refresh",
                        "probability": 0.2}], "seed": 3},
        ))
        cells = spec.expand()
        assert len(cells) == 16
        plans = {None if c.fault_plan is None
                 else c.fault_plan["specs"][0]["site"] for c in cells}
        assert plans == {None, "refresher"}


class TestSpecValidation:
    def test_needs_a_scenario(self):
        with pytest.raises(ConfigError, match="at least one scenario"):
            FleetSpec(scenarios=())

    def test_unknown_runner(self):
        with pytest.raises(ConfigError, match="unknown cell runner"):
            _spec(runner="bogus")

    def test_bad_knobs(self):
        with pytest.raises(ConfigError, match="shards"):
            _spec(shards=0)
        with pytest.raises(ConfigError, match="timeout_s"):
            _spec(timeout_s=0)
        with pytest.raises(ConfigError, match="max_attempts"):
            _spec(max_attempts=0)
        with pytest.raises(ConfigError, match="backoff_s"):
            _spec(backoff_s=-1)

    def test_defense_entry_needs_a_name(self):
        with pytest.raises(ConfigError, match="'name'"):
            _spec(defenses=({"params": {}},))

    def test_validate_names_rejects_unknown_scenario(self):
        spec = _spec(runner="scenario", scenarios=("no-such-scenario",))
        with pytest.raises(ConfigError, match="unknown scenario"):
            spec.validate_names()

    def test_validate_names_rejects_unknown_window_pattern(self):
        spec = _spec(runner="window", scenarios=("sideways",))
        with pytest.raises(ConfigError, match="unknown window pattern"):
            spec.validate_names()

    def test_validate_names_accepts_registered_scenarios(self):
        _spec(runner="scenario",
              scenarios=("smoke-spray-vanilla",)).validate_names()

    @pytest.mark.parametrize("axis,points", [
        ("defenses", ("vanilla",)),
        ("fault_plans", (None, {"specs": [{
            "site": "timers", "mode": "drop", "probability": 0.1}]})),
    ])
    def test_chaos_scenarios_reject_defense_and_fault_axes(
            self, tmp_path, axis, points):
        # A chaos cell hard-codes SoftTRR and its own single-site plan:
        # such an axis would only relabel identical cells.
        from repro.fleet import run_fleet

        spec = FleetSpec(scenarios=("chaos-mmu-raw",), **{axis: points})
        with pytest.raises(ConfigError, match=axis):
            spec.validate_names()
        with pytest.raises(ConfigError, match=axis):
            run_fleet(spec, str(tmp_path / "fleet"))
        assert not (tmp_path / "fleet").exists()  # no cell ever ran
        FleetSpec(scenarios=("chaos-mmu-raw",),
                  seeds=(1, 2)).validate_names()


class TestRoundTrip:
    def test_spec_dict_round_trip(self):
        spec = _spec(fault_plans=(
            {"specs": [{"site": "timers", "mode": "drop",
                        "probability": 0.1}], "seed": 7},
        ))
        clone = FleetSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert ([c.to_dict() for c in clone.expand()]
                == [c.to_dict() for c in spec.expand()])

    def test_from_dict_requires_scenarios(self):
        with pytest.raises(ConfigError, match="scenarios"):
            FleetSpec.from_dict({"runner": "synthetic"})

    def test_cell_dict_round_trip(self):
        from repro.fleet import FleetCell

        cell = _spec().expand()[3]
        assert FleetCell.from_dict(cell.to_dict()).to_dict() \
            == cell.to_dict()


def test_synthetic_boundaries_mirror_duration_buckets():
    # The synthetic runner duplicates the trace-layer bucket edges so
    # its histograms merge with real span histograms in one report.
    assert _SYNTH_BOUNDARIES == DURATION_BUCKETS_NS


_DROP = {"site": "timers", "mode": "drop", "probability": 0.1}
_WINDOW = {"scenarios": ["one_sided"], "runner": "window"}
_FUZZ = {"scenarios": ["point-0"], "runner": "fuzz"}

#: Spec JSON that once crashed ``repro-fleet run`` with a traceback,
#: was silently misread, or quarantined every cell while the run exited
#: 0: fields laid over a valid synthetic spec, and the field the
#: ConfigError must name.
MALFORMED = {
    "seeds-string": ({"seeds": "abc"}, "seeds"),
    "seeds-float": ({"seeds": [1.5]}, "seeds"),
    "seeds-bool": ({"seeds": [True]}, "seeds"),
    "shards-string": ({"shards": "2"}, "shards"),
    "max-attempts-null": ({"max_attempts": None}, "max_attempts"),
    "timeout-string": ({"timeout_s": "30"}, "timeout_s"),
    "backoff-bool": ({"backoff_s": True}, "backoff_s"),
    "scenarios-nested": ({"scenarios": [["a"]]}, "scenarios"),
    "scenarios-string": ({"scenarios": "abc"}, "scenarios"),
    "scenarios-empty-name": ({"scenarios": [""]}, "scenarios"),
    "runner-params-list": ({"runner_params": [1]}, "runner_params"),
    "defense-params-scalar": (
        {"defenses": [{"name": "vanilla", "params": 3}]}, "defenses"),
    "fault-plan-unknown-key": (
        {"fault_plans": [{"specs": [{"site": "timers", "typo": 1}]}]},
        "fault_plans"),
    "fault-plan-typo": (
        {"fault_plans": [{"spec": [_DROP]}]}, "fault_plans"),
    "fault-plan-seed-float": (
        {"fault_plans": [{"specs": [_DROP], "seed": 1.5}]}, "fault_plans"),
    "fault-plan-seed-string": (
        {"fault_plans": [{"specs": [_DROP], "seed": "x"}]}, "fault_plans"),
    "fault-spec-seed-bool": (
        {"fault_plans": [[{**_DROP, "seed": True}]]}, "fault_plans"),
    "defense-empty-name": ({"defenses": [""]}, "defenses"),
    "defense-unknown-key": (
        {"defenses": [{"name": "softtrr", "param": {"count_limit": 2}}]},
        "defenses"),
    "defense-unknown-name": ({"defenses": ["bogus"]}, "defenses"),
    "defense-param-unknown-key": (
        {"defenses": [{"name": "para", "params": {"probabilty": 0.1}}]},
        "defenses"),
    "defense-param-wrong-type": (
        {"defenses": [{"name": "para", "params": {"probability": "x"}}]},
        "defenses"),
    "defense-param-out-of-range": (
        {"defenses": [{"name": "dapper",
                       "params": {"mitigation_budget": 0}}]},
        "defenses"),
    "unknown-key": ({"seed": [1, 2]}, "seed"),
    "runner-params-typo": (
        {**_WINDOW, "runner_params": {"machnie": "optiplex_390"}},
        "runner_params"),
    "runner-params-unknown-machine": (
        {**_WINDOW, "runner_params": {"machine": "bogus"}}, "runner_params"),
    "runner-params-rounds-zero": (
        {**_WINDOW, "runner_params": {"rounds": 0}}, "runner_params"),
    "runner-params-rounds-bool": (
        {**_WINDOW, "runner_params": {"rounds": True}}, "runner_params"),
    "runner-params-budget-negative": (
        {**_WINDOW, "runner_params": {"budget_factor": -1.5}},
        "runner_params"),
    "runner-params-budget-string": (
        {**_WINDOW, "runner_params": {"budget_factor": "1.5"}},
        "runner_params"),
    # The window budget is fixed (patterns.scenario), not a knob.
    "runner-params-rounds-well-typed": (
        {**_WINDOW, "runner_params": {"rounds": 50}}, "runner_params"),
    "runner-params-budget-well-typed": (
        {**_WINDOW, "runner_params": {"budget_factor": 1.5}},
        "runner_params"),
    "window-fault-site-hooks": (
        {**_WINDOW, "fault_plans": [[{"site": "hooks", "mode": "drop",
                                      "probability": 1.0}]]},
        "fault_plans"),
    "window-fault-site-mmu": (
        {**_WINDOW, "fault_plans": [[{"site": "mmu", "mode": "swallow",
                                      "probability": 1.0}]]},
        "fault_plans"),
    "window-fault-site-tlb": (
        {**_WINDOW, "fault_plans": [[{"site": "tlb", "mode": "lost_invlpg",
                                      "probability": 1.0}]]},
        "fault_plans"),
    "window-fault-site-refresher": (
        {**_WINDOW, "fault_plans": [[{"site": "refresher",
                                      "mode": "fail_refresh",
                                      "probability": 1.0}]]},
        "fault_plans"),
    "runner-params-max-sides-zero": (
        {**_FUZZ, "runner_params": {"max_sides": 0}}, "runner_params"),
    "runner-params-fuzz-seed-float": (
        {**_FUZZ, "runner_params": {"fuzz_seed": 1.5}}, "runner_params"),
    "runner-params-unknown-target": (
        {**_FUZZ, "runner_params": {"target": "dram"}}, "runner_params"),
    "runner-params-fuzz-unknown-machine": (
        {**_FUZZ, "runner_params": {"machine": "bogus"}}, "runner_params"),
    "runner-params-fuzz-window-key": (
        {**_FUZZ, "runner_params": {"rounds": 5}}, "runner_params"),
    "runner-params-scenario": (
        {"scenarios": ["smoke-spray-vanilla"], "runner": "scenario",
         "runner_params": {"machine": "tiny"}}, "runner_params"),
    "runner-params-synthetic-typo": (
        {"runner_params": {"posion": ["synth-000"]}}, "runner_params"),
}


class TestMalformedSpec:
    @pytest.mark.parametrize("overrides,field", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_run_exits_2_naming_the_field(self, tmp_path, capsys,
                                          overrides, field):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(
            {"scenarios": ["synth-000"], "runner": "synthetic",
             **overrides}))
        out = tmp_path / "fleet"
        code = main(["run", "--spec", str(spec), "--out", str(out),
                     "--jobs", "1"])
        assert code == EXIT_USAGE
        assert f"'{field}'" in capsys.readouterr().err
        assert not out.exists()  # rejected before any cell ran

    def test_spec_must_be_an_object(self):
        with pytest.raises(ConfigError, match="must be an object"):
            FleetSpec.from_dict(["synth-000"])

    def test_null_defense_point_round_trips(self):
        # Workers and --resume re-parse spec.to_dict(): the neutral
        # defense point's dict form must parse back to itself.
        spec = FleetSpec.from_dict(
            {"scenarios": ["synth-000"], "runner": "synthetic",
             "defenses": [None, "vanilla"]})
        assert spec.to_dict()["defenses"][0] == {"name": None, "params": {}}
        assert FleetSpec.from_dict(spec.to_dict()) == spec


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300)
    | st.floats(-2, 300, allow_nan=False) | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner,
                                     max_size=3)),
    max_leaves=8)

#: Well-formed values per field, so the property also reaches specs
#: that parse (each field still draws arbitrary JSON half the time).
_VALID = {
    "scenarios": st.lists(st.sampled_from(["synth-000", "synth-001", "a"]),
                          min_size=1, max_size=3, unique=True),
    "seeds": st.lists(st.none() | st.integers(0, 9), max_size=3,
                      unique=True),
    "defenses": st.lists(st.sampled_from(
        [None, "", "vanilla", {"name": "softtrr",
                               "params": {"max_distance": 1}}]),
        max_size=2),
    "fault_plans": st.lists(st.none() | st.just({"specs": [
        {"site": "timers", "mode": "drop", "probability": 0.1}]}),
        max_size=2),
    "runner": st.sampled_from(CELL_RUNNERS),
    "runner_params": st.dictionaries(st.text(max_size=4), _JSON,
                                     max_size=2),
    "shards": st.integers(0, 8),
    "timeout_s": st.floats(-1, 300, allow_nan=False) | st.integers(-1, 9),
    "max_attempts": st.integers(0, 5),
    "backoff_s": st.floats(-1, 5, allow_nan=False),
}


@st.composite
def _spec_payloads(draw):
    keys = draw(st.lists(st.sampled_from(SPEC_FIELDS) | st.text(max_size=6),
                         max_size=8, unique=True))
    return {key: draw(_VALID[key] | _JSON if key in _VALID else _JSON)
            for key in keys}


@settings(max_examples=300, deadline=None)
@given(_spec_payloads())
@example({"scenarios": ["synth-000"], "defenses": [None]})
@example({"scenarios": ["synth-000"], "defenses": [""]})
@example({"scenarios": ["synth-000"],
          "defenses": [{"name": None, "params": {}}]})
def test_from_dict_parses_or_raises_config_error(payload):
    try:
        spec = FleetSpec.from_dict(payload)
    except ConfigError:
        return
    assert FleetSpec.from_dict(spec.to_dict()) == spec
