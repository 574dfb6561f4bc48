"""Tests for the overhead-anatomy decomposition."""

from dataclasses import asdict

import pytest

from repro.analysis.breakdown import (
    OverheadBreakdown,
    SOFTTRR_CATEGORIES,
    measure_breakdown,
)
from repro.analysis.tables import render_breakdown
from repro.config import tiny_machine
from repro.core.profile import SoftTrrParams
from repro.scenarios import ScenarioResult
from repro.workloads.base import WorkloadProfile

PROFILE = WorkloadProfile(name="anatomy", duration_ms=30, hot_pages=10,
                          cold_pool_pages=96, cold_touches=4,
                          churn_prob=0.2, churn_pages=4)


def run():
    return measure_breakdown(
        PROFILE, spec_factory=tiny_machine,
        params=SoftTrrParams(timer_inr_ns=1_000_000))


class TestBreakdown:
    def test_categories_account_for_defense_time(self):
        b = run()
        assert b.total_defense_ns > 0
        assert 0.0 < b.defense_fraction < 0.05
        assert set(b.per_category_ns) <= set(SOFTTRR_CATEGORIES)
        # The accountant categories together track most of the defense
        # time (the remainder is re-walk / invlpg latency).
        assert sum(b.per_category_ns.values()) <= b.total_defense_ns * 1.5

    def test_shares_sum_to_at_most_one(self):
        b = run()
        total = sum(b.share(c) for c in SOFTTRR_CATEGORIES)
        assert total <= 1.0 + 1e-9

    def test_dominant_category_is_a_known_one(self):
        b = run()
        assert b.dominant_category() in SOFTTRR_CATEGORIES

    def test_empty_breakdown_edge_cases(self):
        empty = OverheadBreakdown(workload="x", runtime_ns=0,
                                  total_defense_ns=0, per_category_ns={})
        assert empty.defense_fraction == 0.0
        assert empty.share("softtrr_timer") == 0.0
        assert empty.dominant_category() == "none"

    def test_render(self):
        result = ScenarioResult(name="anatomy-x", kind="breakdown",
                                group="anatomy", payload=asdict(run()))
        text = render_breakdown([result])
        assert "anatomy" in text
        assert "Defense/runtime" in text
