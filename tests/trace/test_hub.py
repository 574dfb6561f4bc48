"""TraceHub levels and wiring, and the Telemetry facade over machines."""

import pytest

from repro.clock import SimClock
from repro.errors import ConfigError
from repro.machine import Machine, MachineConfig
from repro.trace import LEVELS, TraceHub


class TestHubLevels:
    def test_off_builds_no_hub(self):
        assert TraceHub.build(SimClock(), "off") is None

    def test_constructor_rejects_off_and_unknown(self):
        with pytest.raises(ConfigError, match="level"):
            TraceHub(SimClock(), "off")
        with pytest.raises(ConfigError, match="level"):
            TraceHub(SimClock(), "verbose")

    def test_metrics_level_counts_but_never_buffers(self):
        hub = TraceHub(SimClock(), "metrics")
        hub.emit("timer.fire", name="t")
        start = hub.span_begin("softtrr.tick")
        hub.span_end("softtrr.tick", start)
        assert hub.registry.counter("site.timer.fire").value == 1
        assert hub.registry.histogram("span.softtrr.tick_ns").total == 1
        assert hub.events() == []

    def test_events_level_buffers_points_not_boundaries(self):
        hub = TraceHub(SimClock(), "events")
        hub.emit("pte.arm", pte_paddr=4096)
        start = hub.span_begin("softtrr.tick")
        hub.span_end("softtrr.tick", start)
        kinds = [event.kind for event in hub.events()]
        assert kinds == ["event"]

    def test_spans_level_buffers_boundaries_too(self):
        clock = SimClock()
        hub = TraceHub(clock, "spans")
        start = hub.span_begin("collector.resync")
        clock.advance(500)
        hub.span_end("collector.resync", start)
        events = hub.events()
        assert [event.kind for event in events] == ["begin", "end"]
        assert events[1].payload["dur_ns"] == 500

    def test_timestamps_come_from_the_sim_clock(self):
        clock = SimClock()
        hub = TraceHub(clock, "events")
        clock.advance(123)
        hub.emit("tlb.invlpg", vaddr=0)
        assert hub.events()[0].ns == 123

    def test_emit_at_stamps_the_given_time(self):
        clock = SimClock()
        hub = TraceHub(clock, "events")
        clock.advance(500)
        hub.emit_at(120, "dram.activate", bank=1, row=2)
        hub.emit("dram.activate", bank=1, row=3)
        assert [(event.ns, event.payload["row"])
                for event in hub.events()] == [(120, 2), (500, 3)]
        assert hub.registry.counter("site.dram.activate").value == 2

    def test_site_names_strip_prefix(self):
        hub = TraceHub(SimClock(), "metrics")
        hub.emit("dram.flip")
        hub.emit("refresh.row")
        assert hub.site_names() == ["dram.flip", "refresh.row"]

    def test_flat_dict_includes_buffer_stats(self):
        hub = TraceHub(SimClock(), "events", capacity=1)
        hub.emit("a")
        hub.emit("b")
        flat = hub.as_flat_dict()
        assert flat["buffer.len"] == 1
        assert flat["buffer.dropped"] == 1


class TestMachineWiring:
    def test_config_validates_level_and_capacity(self):
        with pytest.raises(ConfigError, match="trace level"):
            MachineConfig(machine="tiny", trace="loud")
        with pytest.raises(ConfigError, match="trace_capacity"):
            MachineConfig(machine="tiny", trace="events", trace_capacity=0)
        assert MachineConfig(machine="tiny").trace == "off"

    def test_off_machine_has_no_hub(self):
        m = Machine(machine="tiny")
        assert m.kernel.trace_hub is None
        assert m.kernel.clock.trace is None
        assert m.telemetry.hub is None
        assert m.telemetry.trace_metrics() == {}
        assert m.telemetry.trace_sites() == []
        assert m.telemetry.events() == []

    def test_hub_attached_to_every_choke_point(self):
        m = Machine(machine="tiny", trace="events")
        hub = m.kernel.trace_hub
        assert hub is not None
        kernel = m.kernel
        for holder in (kernel, kernel.clock, kernel.timers, kernel.hooks,
                       kernel.mmu, kernel.mmu.tlb, kernel.dram):
            assert holder.trace is hub

    def test_softtrr_load_fans_hub_to_components(self):
        m = Machine(machine="tiny", trace="events",
                    defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000})
        module = m.softtrr
        hub = m.kernel.trace_hub
        assert module.trace is hub
        assert module.collector.trace is hub
        assert module.refresher.trace is hub
        assert module.tracer.trace is hub

    def test_module_load_is_already_observable(self):
        # The hub attaches before the defense installs, so the initial
        # collection scan and warm-up ticks land in the trace.
        m = Machine(machine="tiny", trace="spans",
                    defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000})
        sites = m.telemetry.trace_sites()
        assert "timer.fire" in sites
        assert "span.collector.initial_collect_ns" in (
            m.kernel.trace_hub.registry.histogram_names())

    def test_injector_emits_fault_sites(self):
        from repro.faults import FaultPlan, FaultSpec

        plan = FaultPlan(specs=(
            FaultSpec(site="tlb", mode="lost_invlpg", probability=1.0),),
            seed=5)
        m = Machine(machine="tiny", trace="events", fault_plan=plan)
        m.kernel.mmu.invlpg(0x4000)
        assert m.telemetry.counter("faults.tlb.suppressed") == 1
        assert "fault.inject" in m.telemetry.trace_sites()


class TestTelemetryFacade:
    def test_flat_dict_never_contains_trace_keys(self):
        m = Machine(machine="tiny", trace="spans",
                    defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000})
        flat = m.telemetry.as_flat_dict()
        assert not any(key.startswith(("site.", "span.", "buffer."))
                       for key in flat)

    def test_trace_metrics_exposed_separately(self):
        m = Machine(machine="tiny", trace="metrics",
                    defense="softtrr",
                    defense_params={"timer_inr_ns": 50_000})
        metrics = m.telemetry.trace_metrics()
        assert any(key.startswith("site.") for key in metrics)
        assert "buffer.len" in metrics
        assert m.telemetry.span_histograms()

    def test_registry_view_loads_the_sample(self):
        m = Machine(machine="tiny")
        registry = m.telemetry.registry()
        flat = m.telemetry.as_flat_dict()
        assert registry.gauge("tlb.misses").value == flat["tlb.misses"]
