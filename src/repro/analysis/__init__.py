"""Experiment harness: what one cell of :mod:`repro.scenarios` runs.

* :mod:`repro.analysis.overhead` — Tables III and IV (runtime overhead
  of Δ±1 / Δ±6 over vanilla, one program per cell).
* :mod:`repro.analysis.memory`   — Figures 4 and 5 (LAMP memory cost and
  protected/traced page counts, one tracking distance per cell).
* :mod:`repro.analysis.robustness` — Table V (the LTP stress machine).
* :mod:`repro.analysis.breakdown` — the DP3 overhead anatomy.
* :mod:`repro.analysis.chaos`    — fault-injection cells (protection
  erosion per ``repro.faults`` site; the ``chaos`` fleet group).
* :mod:`repro.analysis.zoo`      — defense-zoo cells (trackers head to
  head; the ``zoo`` fleet group).
* :mod:`repro.analysis.tables`   — plain-text rendering of a scenario
  group's results, shared by the benchmark targets and EXPERIMENTS.md.
"""

from .chaos import run_chaos_cell
from .overhead import OverheadRow, measure_overhead
from .tables import render_table

__all__ = [
    "OverheadRow",
    "measure_overhead",
    "render_table",
    "run_chaos_cell",
]
