"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`repro.analysis.overhead` — Tables III and IV (runtime overhead
  of Δ±1 / Δ±6 over vanilla).
* :mod:`repro.analysis.security` — Table II (the three attacks with and
  without SoftTRR) and the baseline-defense matrix.
* :mod:`repro.analysis.memory`   — Figures 4 and 5 (LAMP memory cost and
  protected/traced page counts over 60 minutes).
* :mod:`repro.analysis.robustness` — Table V (LTP syscall stress).
* :mod:`repro.analysis.chaos`    — fault-injection cells (protection
  erosion per ``repro.faults`` site; the ``chaos`` fleet group).
* :mod:`repro.analysis.zoo`      — defense-zoo cells (trackers head to
  head; the ``zoo`` fleet group).
* :mod:`repro.analysis.tables`   — plain-text rendering shared by the
  benchmark targets and EXPERIMENTS.md.
"""

from .chaos import run_chaos_cell
from .overhead import OverheadRow, measure_suite_overhead
from .security import Table2Row, run_table2, run_baseline_matrix
from .memory import run_lamp_series
from .robustness import Table5Row, run_table5
from .tables import render_table

__all__ = [
    "OverheadRow",
    "run_chaos_cell",
    "measure_suite_overhead",
    "Table2Row",
    "run_table2",
    "run_baseline_matrix",
    "run_lamp_series",
    "Table5Row",
    "run_table5",
    "render_table",
]
