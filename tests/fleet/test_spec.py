"""FleetSpec expansion: deterministic, stably ordered, content-hashed."""

import pytest

from repro.errors import ConfigError
from repro.fleet import FleetSpec, cell_id_of, expand_cells, shard_of
from repro.fleet.runners import _SYNTH_BOUNDARIES
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
