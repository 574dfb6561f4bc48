"""Machine profiles and cost model for the reproduction.

The paper evaluates on four physical machines:

=================  ============  ==========  ==================================  =========
Machine            CPU arch      CPU model   DRAM (part no.)                     Used for
=================  ============  ==========  ==================================  =========
Dell Optiplex 390  KabyLake      i7-7700K    Kingston DDR4 (99P5701-005.A00G)    Table II / Memory Spray
Dell Optiplex 990  SandyBridge   i5-2400     Samsung DDR3 (M378B5273DH0-CH9)     Table II / CATTmew
Thinkpad X230      IvyBridge     i5-3230M    Samsung DDR3 (M471B5273DH0-CH9)     Table II / PThammer
Dell Desktop       KabyLake      i7-7700K    Samsung 16 GiB DDR4 (M378A2G43AB3)  Tables III-V, Figs 4-5
=================  ============  ==========  ==================================  =========

Each profile bundles the DRAM geometry, address mapping, timing,
disturbance model, TRR configuration and a CPU/kernel cost model.
Simulated capacities are far smaller than the physical DIMMs (64-128 MiB
vs 4-16 GiB) — the rowhammer physics is per-row and per-bank, so the
row count only has to be large enough for realistic placement dynamics,
not for matching the physical capacity.

All values are deterministic; each profile carries its own seed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .clock import SimClock
from .dram.address import AddressMapping, interleaved_mapping, linear_mapping
from .dram.bank import RowBufferPolicy
from .dram.chiptrr import TrrParams
from .dram.disturbance import DisturbanceParams
from .dram.geometry import DramGeometry
from .dram.module import DramModule
from .dram.timing import DDR3_TIMINGS, DDR4_TIMINGS, DramTimings
from .errors import ConfigError


@dataclass(frozen=True)
class CostModel:
    """CPU/kernel operation costs in nanoseconds.

    These drive the performance evaluation (Tables III/IV): overhead is
    computed from the extra faults, timer ticks, hook work and refreshes
    SoftTRR adds on top of a workload's own memory traffic.  Values are
    order-of-magnitude realistic for the paper's Skylake-class CPUs.
    """

    cache_hit_ns: int = 1
    tlb_hit_ns: int = 1
    clflush_ns: int = 12
    invlpg_ns: int = 150
    #: Kernel entry + exit + generic fault bookkeeping.
    page_fault_overhead_ns: int = 1_200
    #: Demand-paging work (allocate + zero + map a frame).
    demand_paging_ns: int = 2_500
    #: SoftTRR's RSVD-fault tracing path (lookup, counters, ring insert).
    trace_fault_ns: int = 600
    #: Fixed cost of one tracer timer tick.
    timer_base_ns: int = 500
    #: Per-PTE cost of re-arming the rsvd bit (walk + set + invlpg).
    timer_per_pte_ns: int = 180
    #: One row refresh: reconstruct paddr, clflush lines, read row.
    row_refresh_ns: int = 900
    #: Collector work per __pte_alloc / __free_pages hook invocation.
    collector_hook_ns: int = 350
    #: Generic syscall entry/exit.
    syscall_ns: int = 300
    #: Process context switch.
    context_switch_ns: int = 1_500


@dataclass(frozen=True)
class MachineSpec:
    """Everything needed to instantiate one of the paper's machines."""

    name: str
    cpu_arch: str
    cpu_model: str
    dram_part: str
    ddr_generation: int
    geometry: DramGeometry
    timings: DramTimings
    disturbance: DisturbanceParams
    trr: TrrParams
    cost: CostModel
    mapping_kind: str = "linear"
    row_policy: RowBufferPolicy = RowBufferPolicy.OPEN_PAGE
    #: In-DRAM row remapping kind ("identity" or "folded").
    remap_kind: str = "identity"
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mapping_kind not in ("linear", "interleaved"):
            raise ConfigError(f"unknown mapping kind {self.mapping_kind!r}")
        if self.ddr_generation not in (3, 4):
            raise ConfigError("only DDR3/DDR4 machines are modelled")

    def build_mapping(self) -> AddressMapping:
        """Construct the machine's ground-truth address mapping."""
        if self.mapping_kind == "interleaved":
            return interleaved_mapping(self.geometry)
        return linear_mapping(self.geometry)

    def build_dram(self, clock: SimClock) -> DramModule:
        """Instantiate the machine's DRAM module on a shared clock."""
        from .dram.remap import build_remap

        return DramModule(
            mapping=self.build_mapping(),
            timings=self.timings,
            disturbance=self.disturbance,
            trr=self.trr,
            clock=clock,
            row_policy=self.row_policy,
            remap=build_remap(self.remap_kind, self.geometry.rows_per_bank),
        )

    @property
    def memory_bytes(self) -> int:
        """Simulated physical memory size."""
        return self.geometry.capacity_bytes


def _geometry_64mib() -> DramGeometry:
    # 16 banks x 512 rows x 8 KiB = 64 MiB
    return DramGeometry(num_banks=16, rows_per_bank=512, row_bytes=8192)


def _geometry_128mib() -> DramGeometry:
    # 16 banks x 1024 rows x 8 KiB = 128 MiB
    return DramGeometry(num_banks=16, rows_per_bank=1024, row_bytes=8192)


def optiplex_390(seed: int = 390) -> MachineSpec:
    """Table II row 1: DDR4 with ChipTRR; Memory Spray target.

    The in-DRAM TRR absorbs 1- and 2-sided hammering; the evaluation uses
    the TRRespass 3-sided pattern, exactly as the paper does ("traditional
    2-sided hammer cannot trigger any bit flip and instead we use the
    3-sided hammer identified by TRRespass", Section V-A).
    """
    return MachineSpec(
        name="Dell Optiplex 390",
        cpu_arch="KabyLake",
        cpu_model="i7-7700k",
        dram_part="Kingston DDR4 (99P5701-005.A00G)",
        ddr_generation=4,
        geometry=_geometry_64mib(),
        timings=DDR4_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=20_000.0,
            row_vuln_probability=0.25,
            seed=seed,
        ),
        trr=TrrParams(enabled=True, tracker_slots=2, trr_threshold=4_000),
        cost=CostModel(),
        mapping_kind="linear",
        seed=seed,
    )


def optiplex_990(seed: int = 990) -> MachineSpec:
    """Table II row 2: DDR3 without TRR; CATTmew target (2-sided)."""
    return MachineSpec(
        name="Dell Optiplex 990",
        cpu_arch="SandyBridge",
        cpu_model="i5-2400",
        dram_part="Samsung DDR3 (M378B5273DH0-CH9)",
        ddr_generation=3,
        geometry=_geometry_64mib(),
        timings=DDR3_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=20_000.0,
            row_vuln_probability=0.3,
            seed=seed,
        ),
        trr=TrrParams(enabled=False),
        cost=CostModel(),
        mapping_kind="linear",
        seed=seed,
    )


def thinkpad_x230(seed: int = 230) -> MachineSpec:
    """Table II row 3: DDR3 without TRR; PThammer target."""
    return MachineSpec(
        name="Thinkpad X230",
        cpu_arch="IvyBridge",
        cpu_model="i5-3230M",
        dram_part="Samsung DDR3 (M471B5273DH0-CH9)",
        ddr_generation=3,
        geometry=_geometry_64mib(),
        timings=DDR3_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=20_000.0,
            row_vuln_probability=0.3,
            seed=seed,
        ),
        trr=TrrParams(enabled=False),
        cost=CostModel(),
        mapping_kind="linear",
        seed=seed,
    )


def perf_testbed(seed: int = 7700) -> MachineSpec:
    """Section VI testbed: i7-7700K with Samsung DDR4 (Tables III-V, Figs 4-5).

    Uses the interleaved mapping so 4 KiB pages span two banks — the
    case that gives SoftTRR ``pt_row_rbtree`` nodes multiple
    ``bank_struct`` entries.
    """
    return MachineSpec(
        name="Dell Desktop (performance testbed)",
        cpu_arch="KabyLake",
        cpu_model="i7-7700K",
        dram_part="Samsung DDR4 16GiB (M378A2G43AB3-CWE)",
        ddr_generation=4,
        geometry=_geometry_128mib(),
        timings=DDR4_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=20_000.0,
            row_vuln_probability=0.1,
            seed=seed,
        ),
        trr=TrrParams(enabled=True, tracker_slots=2, trr_threshold=4_000),
        cost=CostModel(),
        mapping_kind="interleaved",
        seed=seed,
    )


def tiny_machine(seed: int = 7, *, trr: bool = False) -> MachineSpec:
    """A small fast machine for unit tests: 4 MiB, 8 banks, 64 rows."""
    return MachineSpec(
        name="tiny-test-machine",
        cpu_arch="TestArch",
        cpu_model="t0",
        dram_part="TESTDIMM",
        ddr_generation=3,
        geometry=DramGeometry(num_banks=8, rows_per_bank=64, row_bytes=8192),
        timings=DDR3_TIMINGS,
        disturbance=DisturbanceParams(
            base_flip_threshold=2_000.0,
            row_vuln_probability=0.5,
            seed=seed,
        ),
        trr=TrrParams(enabled=trr, tracker_slots=2, trr_threshold=400),
        cost=CostModel(),
        mapping_kind="linear",
        seed=seed,
    )


#: All the paper's machines, keyed as Table II / Section VI name them.
MACHINES: dict = {
    "optiplex_390": optiplex_390,
    "optiplex_990": optiplex_990,
    "thinkpad_x230": thinkpad_x230,
    "perf_testbed": perf_testbed,
}


def machine(name: str, **kwargs) -> MachineSpec:
    """Look up a machine profile factory by key and build it."""
    try:
        factory = MACHINES[name]
    except KeyError:
        raise ConfigError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None
    return factory(**kwargs)
