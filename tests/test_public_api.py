"""Public-API surface tests: what README promises must import and work."""

import pytest

import repro


class TestTopLevelExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_machine_registry(self):
        assert set(repro.MACHINES) == {
            "optiplex_390", "optiplex_990", "thinkpad_x230", "perf_testbed"}
        for name in repro.MACHINES:
            spec = repro.machine(name)
            assert spec.memory_bytes > 0

    def test_machine_lookup_unknown(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            repro.machine("cray-1")


class TestReadmeQuickstart:
    def test_quickstart_snippet(self):
        """The exact snippet from README.md / the package docstring."""
        from repro import Kernel, SoftTrr, SoftTrrParams, perf_testbed

        kernel = Kernel(perf_testbed())
        kernel.load_module("softtrr",
                           SoftTrr(SoftTrrParams(max_distance=6)))
        proc = kernel.create_process("app")
        base = kernel.mmap(proc, 64 * 4096)
        kernel.user_write(proc, base, b"hello")
        stats = kernel.module("softtrr").stats()
        assert stats.protected_pages >= 1
        assert stats.ringbuf_bytes == pytest.approx(396 * 1024, abs=64)


class TestSubpackageFacades:
    def test_dram_facade(self):
        from repro.dram import (
            AddressMapping, DramModule, DramaProbe, FoldedRemap,
            IdentityRemap, reverse_engineer_mapping,
        )
        assert AddressMapping and DramModule and DramaProbe
        assert FoldedRemap and IdentityRemap and reverse_engineer_mapping

    def test_core_facade(self):
        from repro.core import (
            AdjacentPageTracer, PageTableCollector, PresentBitTracer,
            PteRingBuffer, RowRefresher, SlabMap, SoftTrr,
        )
        assert SlabMap and PteRingBuffer and SoftTrr
        assert PageTableCollector and AdjacentPageTracer
        assert PresentBitTracer and RowRefresher

    def test_attacks_facade(self):
        from repro.attacks import (
            CattmewAttack, FlipTemplater, HammerKit, MemorySprayAttack,
            PthammerAttack, PthammerSprayAttack,
        )
        assert HammerKit and FlipTemplater
        assert MemorySprayAttack and CattmewAttack
        assert PthammerAttack and PthammerSprayAttack

    def test_defenses_facade(self):
        from repro.defenses import (
            AlisDefense, AnvilDefense, CattDefense, CtaDefense, DEFENSES,
            RipRhDefense, SoftTrrDefense, ZebramDefense,
        )
        assert DEFENSES["vanilla"] is not None
        assert all((AlisDefense, AnvilDefense, CattDefense, CtaDefense,
                    RipRhDefense, SoftTrrDefense, ZebramDefense))

    def test_workloads_facade(self):
        from repro.workloads import (
            LTP_STRESS_TESTS, LampSimulation, PHORONIX_PROFILES,
            SPEC_PROFILES, SliceWorkload, WorkloadProfile,
        )
        assert len(SPEC_PROFILES) == 10
        assert len(PHORONIX_PROFILES) == 17
        assert len(LTP_STRESS_TESTS) == 20
        assert LampSimulation and SliceWorkload and WorkloadProfile

    def test_analysis_facade(self):
        import repro.analysis
        from repro.analysis import (
            OverheadRow, measure_overhead, render_table, run_chaos_cell,
        )
        assert all((OverheadRow, measure_overhead, render_table,
                    run_chaos_cell))
        assert sorted(repro.analysis.__all__) == [
            "OverheadRow", "measure_overhead", "render_table",
            "run_chaos_cell"]
