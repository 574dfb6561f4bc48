"""Shared benchmark configuration.

Every bench regenerates one of the paper's tables or figures, prints it
to the terminal (bypassing capture) and archives it under ``results/``.
The paper-table benches run and render a :mod:`repro.scenarios` group —
the same cells ``repro-fleet run --group`` runs.  Scale defaults to
laptop-friendly values; ``REPRO_FULL=1`` lays :data:`FULL_PARAMS` over
those groups' specs and picks the ``full`` side of :func:`scale` in the
benches that build their own grids (more victims, longer workloads, 60
LAMP minutes).
"""

import dataclasses
import os

import pytest

FULL = os.environ.get("REPRO_FULL", "0") == "1"

#: Paper-scale scenario params per registry group (``REPRO_FULL=1``).
FULL_PARAMS = {
    "table2": {"m": 4, "region_pages": 384, "template_rounds": 22_000},
    "baselines": {"template_rounds": 6_000},
    "table3": {"duration_ms": 160},
    "table4": {"duration_ms": 140},
    "table5": {"iterations": None},
    "lamp": {"minutes": 60},
    "anatomy": {"duration_ms": 120},
}


def scale(small, full):
    """Pick a parameter by scale mode (benches without a registry group)."""
    return full if FULL else small


def group_specs(group):
    """A registry group's specs, at paper scale under ``REPRO_FULL=1``."""
    from repro.scenarios import scenario_group

    specs = scenario_group(group)
    if not FULL:
        return specs
    return [dataclasses.replace(spec, params={**spec.params,
                                              **FULL_PARAMS[group]})
            for spec in specs]


def run_group(group):
    """Sweep a registry group; every cell must finish without error."""
    from repro.scenarios import run_sweep

    results = run_sweep(group_specs(group))
    for result in results:
        # run_sweep turns a raising cell into {"error": {type, message}}.
        error = result.payload.get("error")
        assert not isinstance(error, dict), f"{result.name} raised {error}"
    return results


@pytest.fixture
def softtrr_machine():
    """The benches' shared steady-state unit: a perf-testbed Machine
    with SoftTRR raw-loaded (cold tracer, default Δ±6 params)."""
    from repro.config import perf_testbed
    from repro.machine import Machine

    machine = Machine.from_parts(perf_testbed())
    machine.load_softtrr()
    return machine


@pytest.fixture
def warm_softtrr_machine(softtrr_machine):
    """Same machine advanced past the first tracer tick, so the
    benchmarked operation starts from armed steady state."""
    from repro.clock import NS_PER_MS

    softtrr_machine.clock.advance(2 * NS_PER_MS)
    softtrr_machine.kernel.dispatch_timers()
    return softtrr_machine


@pytest.fixture
def announce(capsys):
    """Print a rendered table to the real terminal and archive it."""
    from repro.analysis.tables import save_result

    def _announce(filename, text):
        save_result(filename, text)
        with capsys.disabled():
            print()
            print(text)
            print(f"[saved to results/{filename}]")

    return _announce
