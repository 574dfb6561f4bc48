"""SoftTRR: software-only target row refresh (the paper's contribution).

The module mirrors the paper's Figure 1 decomposition:

* :mod:`repro.core.structures` / :mod:`repro.core.ringbuf` — the data
  structures of Table I: three key-ordered, slab-charged maps standing
  in for the kernel's red-black trees (:class:`SlabMap`), their node
  payloads (``bank_struct`` etc.), and ``pte_ringbuf``.
* :mod:`repro.core.profile` — the offline profile of Section IV-E
  (``threshold = tRC x #ACT`` -> ``timer_inr`` / ``count_limit``).
* :mod:`repro.core.collector` — the Page Table Collector.
* :mod:`repro.core.tracer` — the Adjacent Page Tracer (plus the doomed
  present-bit variant the paper explains it rejected).
* :mod:`repro.core.refresher` — the Row Refresher.
* :mod:`repro.core.softtrr` — the loadable-module facade
  (:class:`~repro.core.softtrr.SoftTrr`).
"""

from .ringbuf import PteRingBuffer, PteRef
from .structures import BankStruct, PtRowEntry, SlabMap, SoftTrrStructures
from .profile import OfflineProfile, SoftTrrParams
from .collector import PageTableCollector
from .tracer import AdjacentPageTracer, PresentBitTracer
from .refresher import RowRefresher
from .softtrr import SoftTrr

__all__ = [
    "PteRingBuffer",
    "PteRef",
    "BankStruct",
    "PtRowEntry",
    "SlabMap",
    "SoftTrrStructures",
    "OfflineProfile",
    "SoftTrrParams",
    "PageTableCollector",
    "AdjacentPageTracer",
    "PresentBitTracer",
    "RowRefresher",
    "SoftTrr",
]
