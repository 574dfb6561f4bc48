"""Per-rule unit tests for the RPR lint pass.

Each rule gets (at least) a positive case, a suppressed case and an
allowed-path case, exercised through :func:`lint_source` so the shared
walk, the suppression comments and the path allow-lists are all on the
hook.
"""

import pytest

from repro.checkers.framework import lint_source, parse_suppressions
from repro.checkers.rules import (
    ExportConsistencyRule,
    FaultChokePointRule,
    MachineAssemblyRule,
    MetricMutationRule,
    RawBitLiteralRule,
    UnseededRandomRule,
    WallClockRule,
    WriteEntryRule,
    default_rules,
)


def run(source, rel_path="src/repro/somewhere.py", rules=None):
    chosen = rules if rules is not None else default_rules()
    return lint_source(source, rel_path, chosen)


def ids(findings):
    return [f.rule_id for f in findings]


class TestWallClockRule:
    def test_import_time_flagged(self):
        findings = run("import time\n", rules=[WallClockRule()])
        assert ids(findings) == ["RPR001"]
        assert findings[0].line == 1

    def test_from_import_flagged(self):
        findings = run("from time import monotonic\n",
                       rules=[WallClockRule()])
        assert ids(findings) == ["RPR001"]

    def test_attribute_read_flagged(self):
        src = "import time  # repro-lint: disable=RPR001\nx = time.perf_counter()\n"
        findings = run(src, rules=[WallClockRule()])
        assert ids(findings) == ["RPR001"]
        assert findings[0].line == 2

    def test_allowed_in_clock_module(self):
        assert run("import time\n", rel_path="src/repro/clock.py",
                   rules=[WallClockRule()]) == []

    def test_suppressed(self):
        src = "import time  # repro-lint: disable=RPR001\n"
        assert run(src, rules=[WallClockRule()]) == []

    def test_non_wallclock_names_ignored(self):
        assert run("from time import struct_time\n",
                   rules=[WallClockRule()]) == []


class TestUnseededRandomRule:
    def test_import_random_flagged(self):
        findings = run("import random\n", rules=[UnseededRandomRule()])
        assert ids(findings) == ["RPR002"]

    def test_from_random_flagged(self):
        findings = run("from random import Random\n",
                       rules=[UnseededRandomRule()])
        assert ids(findings) == ["RPR002"]

    def test_allowed_in_rng_module(self):
        assert run("import random\n", rel_path="src/repro/rng.py",
                   rules=[UnseededRandomRule()]) == []

    def test_suppressed(self):
        src = "import random  # repro-lint: disable=RPR002\n"
        assert run(src, rules=[UnseededRandomRule()]) == []

    def test_relative_import_ignored(self):
        # `from .rng import Random` is the sanctioned spelling.
        assert run("from .rng import Random\n",
                   rules=[UnseededRandomRule()]) == []


class TestRawBitLiteralRule:
    def test_shift_to_bit_51_flagged(self):
        findings = run("MASK = 1 << 51\n", rules=[RawBitLiteralRule()])
        assert ids(findings) == ["RPR003"]

    def test_precomputed_value_flagged(self):
        value = 1 << 51
        findings = run(f"MASK = {value}\n", rules=[RawBitLiteralRule()])
        assert ids(findings) == ["RPR003"]
        findings = run(f"MASK = {value:#x}\n", rules=[RawBitLiteralRule()])
        assert ids(findings) == ["RPR003"]

    def test_allowed_in_bits_module(self):
        assert run("MASK = 1 << 51\n", rel_path="src/repro/mmu/bits.py",
                   rules=[RawBitLiteralRule()]) == []

    def test_suppressed(self):
        src = "MASK = 1 << 51  # repro-lint: disable=RPR003\n"
        assert run(src, rules=[RawBitLiteralRule()]) == []

    def test_innocent_literals_ignored(self):
        assert run("x = 1 << 12\ny = 0xFFF\nz = 51\n",
                   rules=[RawBitLiteralRule()]) == []


class TestWriteEntryRule:
    def test_direct_call_flagged(self):
        findings = run("ops.write_entry(t, i, v)\n", rules=[WriteEntryRule()])
        assert ids(findings) == ["RPR004"]

    def test_nested_attribute_call_flagged(self):
        findings = run("kernel.mmu.pt_ops.write_entry(t, i, v)\n",
                       rules=[WriteEntryRule()])
        assert ids(findings) == ["RPR004"]

    def test_allowed_inside_mmu(self):
        assert run("self.write_entry(t, i, v)\n",
                   rel_path="src/repro/mmu/page_table.py",
                   rules=[WriteEntryRule()]) == []

    def test_allowed_in_tracer(self):
        assert run("ops.write_entry(t, i, v)\n",
                   rel_path="src/repro/core/tracer.py",
                   rules=[WriteEntryRule()]) == []

    def test_suppressed(self):
        src = "ops.write_entry(t, i, v)  # repro-lint: disable=RPR004\n"
        assert run(src, rules=[WriteEntryRule()]) == []

    def test_write_pte_facade_ignored(self):
        assert run("kernel.mmu.write_pte(t, i, v)\n",
                   rules=[WriteEntryRule()]) == []


class TestExportConsistencyRule:
    REL = "src/repro/fakepkg/__init__.py"

    def test_missing_all_flagged(self):
        findings = run("from .mod import thing\n", rel_path=self.REL,
                       rules=[ExportConsistencyRule()])
        assert ids(findings) == ["RPR005"]
        assert "__all__" in findings[0].message

    def test_phantom_export_flagged(self):
        src = "from .mod import thing\n__all__ = ['thing', 'ghost']\n"
        findings = run(src, rel_path=self.REL,
                       rules=[ExportConsistencyRule()])
        assert ids(findings) == ["RPR005"]
        assert "ghost" in findings[0].message

    def test_unlisted_public_name_flagged(self):
        src = "from .mod import thing, other\n__all__ = ['thing']\n"
        findings = run(src, rel_path=self.REL,
                       rules=[ExportConsistencyRule()])
        assert ids(findings) == ["RPR005"]
        assert "other" in findings[0].message

    def test_duplicate_export_flagged(self):
        src = "from .mod import thing\n__all__ = ['thing', 'thing']\n"
        findings = run(src, rel_path=self.REL,
                       rules=[ExportConsistencyRule()])
        assert ids(findings) == ["RPR005"]

    def test_consistent_init_clean(self):
        src = ("from .mod import thing\n"
               "_private = 1\n"
               "__version__ = '1.0'\n"
               "__all__ = ['thing', '__version__']\n")
        assert run(src, rel_path=self.REL,
                   rules=[ExportConsistencyRule()]) == []

    def test_non_init_ignored(self):
        assert run("from .mod import thing\n",
                   rel_path="src/repro/fakepkg/mod.py",
                   rules=[ExportConsistencyRule()]) == []

    def test_suppressed(self):
        src = "from .mod import thing  # repro-lint: disable=RPR005\n"
        assert run(src, rel_path=self.REL,
                   rules=[ExportConsistencyRule()]) == []


class TestMachineAssemblyRule:
    def test_direct_kernel_flagged(self):
        findings = run("kernel = Kernel(perf_testbed())\n",
                       rules=[MachineAssemblyRule()])
        assert ids(findings) == ["RPR006"]

    def test_qualified_constructor_flagged(self):
        findings = run("dram = module.DramModule(spec, clock)\n",
                       rules=[MachineAssemblyRule()])
        assert ids(findings) == ["RPR006"]

    def test_allowed_in_machine_layer(self):
        assert run("kernel = Kernel(spec)\n",
                   rel_path="src/repro/machine/machine.py",
                   rules=[MachineAssemblyRule()]) == []

    def test_allowed_in_config_factory(self):
        assert run("dram = DramModule(spec, clock)\n",
                   rel_path="src/repro/config.py",
                   rules=[MachineAssemblyRule()]) == []

    def test_allowed_in_unit_tests(self):
        assert run("kernel = Kernel(tiny_machine())\n",
                   rel_path="tests/kernel/test_kernel.py",
                   rules=[MachineAssemblyRule()]) == []

    def test_suppressed(self):
        src = "kernel = Kernel(spec)  # repro-lint: disable=RPR006\n"
        assert run(src, rules=[MachineAssemblyRule()]) == []

    def test_facade_spelling_ignored(self):
        assert run("m = Machine(machine='perf_testbed')\n"
                   "k = Machine.from_parts(spec).kernel\n",
                   rules=[MachineAssemblyRule()]) == []


class TestFaultChokePointRule:
    def test_assignment_over_fire_flagged(self):
        findings = run("timers._fire = my_wrapper\n",
                       rules=[FaultChokePointRule()])
        assert ids(findings) == ["RPR007"]

    def test_assignment_over_notify_flagged(self):
        findings = run("kernel.hooks.notify = chaos_notify\n",
                       rules=[FaultChokePointRule()])
        assert ids(findings) == ["RPR007"]

    def test_setattr_spelling_flagged(self):
        findings = run("setattr(timers, 'run_pending', wrapper)\n",
                       rules=[FaultChokePointRule()])
        assert ids(findings) == ["RPR007"]

    def test_allowed_in_faults_package(self):
        assert run("timers._fire = wrapper\n",
                   rel_path="src/repro/faults/injector.py",
                   rules=[FaultChokePointRule()]) == []

    def test_allowed_in_tests(self):
        assert run("timers._fire = wrapper\n",
                   rel_path="tests/faults/test_injector.py",
                   rules=[FaultChokePointRule()]) == []

    def test_suppressed(self):
        src = "hooks.notify = wrapper  # repro-lint: disable=RPR007\n"
        assert run(src, rules=[FaultChokePointRule()]) == []

    def test_innocent_attributes_ignored(self):
        assert run("timers.fired = 3\nobj.notify_count = 1\n"
                   "setattr(obj, name, wrapper)\n",
                   rules=[FaultChokePointRule()]) == []

    def test_plain_method_calls_ignored(self):
        assert run("timers.run_pending()\nhooks.notify('pt_alloc')\n",
                   rules=[FaultChokePointRule()]) == []


class TestMetricMutationRule:
    def test_inc_call_flagged(self):
        findings = run("registry.counter('tlb.misses').inc()\n",
                       rules=[MetricMutationRule()])
        assert ids(findings) == ["RPR008"]

    def test_observe_and_set_gauge_flagged(self):
        findings = run("hist.observe(12)\ngauge.set_gauge(5)\n",
                       rules=[MetricMutationRule()])
        assert ids(findings) == ["RPR008", "RPR008"]

    def test_registry_internal_write_flagged(self):
        findings = run("registry._counters['x'] = Counter('x')\n"
                       "registry._histograms['y'] = h\n",
                       rules=[MetricMutationRule()])
        assert ids(findings) == ["RPR008", "RPR008"]

    def test_allowed_in_trace_package(self):
        assert run("self.registry.counter(name).inc()\n",
                   rel_path="src/repro/trace/hub.py",
                   rules=[MetricMutationRule()]) == []

    def test_allowed_in_tests(self):
        assert run("registry.counter('x').inc()\n",
                   rel_path="tests/trace/test_metrics.py",
                   rules=[MetricMutationRule()]) == []

    def test_suppressed(self):
        src = "counter.inc()  # repro-lint: disable=RPR008\n"
        assert run(src, rules=[MetricMutationRule()]) == []

    def test_innocent_code_ignored(self):
        assert run("counter.value = 3\nobj.items[0] = 1\n"
                   "registry.histogram('x')\nx += 1\n",
                   rules=[MetricMutationRule()]) == []


class TestFramework:
    def test_disable_all(self):
        src = "import time  # repro-lint: disable=all\n"
        assert run(src) == []

    def test_multiple_ids_in_one_comment(self):
        src = "import time, random  # repro-lint: disable=RPR001,RPR002\n"
        assert run(src) == []

    def test_suppression_only_applies_to_its_line(self):
        src = ("import time  # repro-lint: disable=RPR001\n"
               "import random\n")
        assert ids(run(src)) == ["RPR002"]

    def test_parse_suppressions(self):
        sup = parse_suppressions(
            "x = 1\ny = 2  # repro-lint: disable=RPR003, RPR004\n")
        assert sup == {2: {"RPR003", "RPR004"}}

    def test_findings_sorted_and_stable(self):
        src = "import random\nimport time\n"
        findings = run(src)
        assert [(f.line, f.rule_id) for f in findings] == [
            (1, "RPR002"), (2, "RPR001")]

    def test_syntax_error_propagates(self):
        with pytest.raises(SyntaxError):
            run("def broken(:\n")

    def test_default_rules_ids_stable(self):
        assert [r.rule_id for r in default_rules()] == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
            "RPR007", "RPR008"]
