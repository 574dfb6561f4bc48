"""Work budget of one demand-paged page under SoftTRR, in calls.

A first write to an unmapped page of a warm tiny SoftTRR machine takes
a hardware walk that faults at the leaf, the kernel's demand paging
(upper-level lookups, the leaf read, the PTE store), SoftTRR's
page-mapped hook (one software walk, then the collector's adjacency
test of the page and of its L1PT) and the retried walk.  The entry
reads are simulated PTE loads, so their number is part of what the
simulation computes and is pinned exactly; the host work around them
is not: the adjacency test decodes rows through ``row_of`` and builds
no ``DramAddress``.
"""

import pytest

from repro.dram.address import AddressMapping, DramAddress
from repro.kernel.kernel import Kernel
from repro.kernel.vma import PAGE
from repro.machine import Machine, MachineConfig
from repro.mmu.page_table import PageTableOps


def counting(monkeypatch, owner, name):
    """Count calls of ``owner.name`` from now on; returns the counter."""
    calls = [0]
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@pytest.fixture
def warm():
    """A tiny SoftTRR machine with 12 of 24 pages of a region mapped:
    the upper tables and the L1PT exist and SoftTRR protects the L1PT."""
    machine = Machine(MachineConfig(machine="tiny", defense="softtrr"))
    kernel = machine.kernel
    process = kernel.create_process("app")
    base = kernel.mmap(process, 24 * PAGE)
    for page in range(12):
        kernel.user_write(process, base + page * PAGE, b"x")
    assert machine.softtrr.stats().protected_pages == 1
    return kernel, process, base + 12 * PAGE


def test_one_demand_paged_page(warm, monkeypatch):
    kernel, process, vaddr = warm
    reads = counting(monkeypatch, PageTableOps, "read_entry")
    walks = counting(monkeypatch, Kernel, "software_walk")
    decodes = counting(monkeypatch, AddressMapping, "page_rows")
    built = counting(monkeypatch, DramAddress, "__new__")
    faults, pages = kernel.faults_handled, kernel.demand_pages
    kernel.user_write(process, vaddr, b"y")
    assert (kernel.faults_handled - faults,
            kernel.demand_pages - pages) == (1, 1)
    # Faulting walk 4, upper levels 2 + L2 1 + old leaf 1, the hook's
    # software walk 4, the retried walk 4.
    assert reads[0] == 16
    assert walks[0] == 1
    # The adjacency test decodes the page and its L1PT ...
    assert decodes[0] == 2
    # ... and no layer builds a DramAddress for it.
    assert built[0] == 0
    assert kernel.user_read(process, vaddr, 1) == b"y"
