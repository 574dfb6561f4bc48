"""Generative differential harness for the disturbance engine.

Draws seeded random *hammer programs* — mixed one-location /
double-sided / many-sided aggressor sets, irregular (aperiodic) bursts,
interleaved heals and refreshes, clock hops onto refresh-epoch
boundaries, SoftTRR timer ticks, snapshot/restore midpoints — and
replays each program two ways on a strict-sanitized tiny machine:

=========  =====================================================
replay     what it exercises
=========  =====================================================
scalar     the reference semantics: ``neighbors_at`` -> ``deposit``
           per activation (``reference_on_activate`` from
           ``tests/dram/reference.py``, swapped in for the engine's
           ``on_activate``)
batched    the engine's one write path: ``DramModule.hammer_batch``
           runs the plan walk (``on_activate``) item by item
=========  =====================================================

The two legs share no accumulator code, and both must produce
bit-identical FlipEvent streams, DRAM bytes, every nonzero accumulator,
counters, simulated nanoseconds and ``telemetry.as_flat_dict()``.  On a
mismatch the failure is shrunk (ddmin over the op list, then per-batch
item halving) to a minimal reproducing program printed with its seed.

Programs are plain op tuples so they print, compare and shrink cleanly:

* ``("hammer_batch", items, extra_ns)`` — ``items`` is a tuple of
  ``(paddr, count)``; batched modes call ``dram.hammer_batch`` with
  each paddr's ``(bank, row)`` from ``mapping.row_of``, scalar modes
  replay ``dram.hammer(paddr, count)`` +
  ``clock.advance(count * extra_ns)``, so the differential compares the
  paddr path with the coordinate path;
* ``("hammer", paddr, count)`` — always scalar;
* ``("advance", ns)`` — clock hop (the generator aims some of these
  just before a refresh-epoch boundary by tracking simulated time);
* ``("refresh", bank, row)`` — explicit row heal;
* ``("tick",)`` — dispatch due kernel timers (drives SoftTRR when that
  defense is installed);
* ``("snapshot",)`` / ``("restore",)`` — machine snapshot midpoints;
  restore rewinds to the most recent snapshot in every mode alike.
"""

from __future__ import annotations

from functools import lru_cache
from types import MethodType

from repro.machine import Machine, MachineConfig
from repro.rng import derive_rng

from ..dram.reference import reference_on_activate

#: Modes the differential covers: (label, batched_replay).
MODES = (
    ("scalar", False),
    ("batch", True),
)

#: Tiny-machine-scaled parameters per defense, tuned so the policies
#: actually fire inside generative programs (a few thousand ACTs per
#: aggressor at most).  Defenses absent here run with their defaults.
DEFENSE_PARAMS = {
    "softtrr": {"timer_inr_ns": 50_000},
    "chiptrr": {"tracker_slots": 2, "trr_threshold": 60,
                "refresh_distance": 3},
    "para": {"probability": 0.05},
    "misra_gries": {"table_entries": 4, "threshold": 60},
    "ptmp": {"table_entries": 4, "threshold": 60,
             "insert_probability": 0.25},
    "dapper": {"table_entries": 4, "threshold": 60,
               "mitigation_budget": 3},
}


@lru_cache(maxsize=None)
def _probe():
    """Static facts about the tiny machine: paddrs, timing, cell map."""
    machine = Machine(MachineConfig(machine="tiny"))
    dram = machine.dram
    geometry = dram.geometry
    rows = geometry.rows_per_bank
    paddrs = {
        (bank, row): dram.mapping.dram_to_phys(bank, row, 0)
        for bank in range(geometry.num_banks)
        for row in range(rows)
    }
    vulnerable = sorted(
        key for key in paddrs if dram.engine.is_vulnerable(*key))
    return {
        "banks": geometry.num_banks,
        "rows": rows,
        "paddrs": paddrs,
        "vulnerable": vulnerable,
        "conflict_ns": dram.timings.conflict_latency_ns,
        "window_ns": dram.timings.refresh_window_ns,
    }


def generate_program(seed: int):
    """A seeded random hammer program (a tuple of op tuples)."""
    rng = derive_rng("generative", seed)
    probe = _probe()
    paddrs = probe["paddrs"]
    rows = probe["rows"]
    banks = probe["banks"]
    conflict = probe["conflict_ns"]
    window = probe["window_ns"]

    def pick_row():
        # Bias towards neighbourhoods of vulnerable rows (where flips
        # and heals interact) and the bank-edge rows 0 / rows-1.
        roll = rng.random()
        if roll < 0.5 and probe["vulnerable"]:
            bank, row = rng.choice(probe["vulnerable"])
            row = min(rows - 1, max(0, row + rng.randint(-2, 2)))
            return bank, row
        if roll < 0.65:
            return rng.randrange(banks), rng.choice((0, 1, rows - 2,
                                                     rows - 1))
        return rng.randrange(banks), rng.randrange(rows)

    ops = []
    cursor = 0  # simulated ns, tracked exactly for boundary aiming
    snapshots = 0
    for _ in range(rng.randint(4, 14)):
        kind = rng.random()
        if kind < 0.55:
            extra_ns = rng.choice((0, 0, 7, 15))
            shape = rng.random()
            if shape < 0.3:  # one-location
                cycle = [(pick_row(), rng.randint(1, 40))]
            elif shape < 0.6:  # double-sided around a vulnerable row
                bank, row = pick_row()
                lo = max(0, row - rng.randint(1, 2))
                hi = min(rows - 1, row + rng.randint(1, 2))
                count = rng.randint(1, 30)
                cycle = [((bank, lo), count), ((bank, hi), count)]
            elif shape < 0.85:  # many-sided, possibly cross-bank
                cycle = [(pick_row(), rng.randint(1, 20))
                         for _ in range(rng.randint(3, 8))]
            else:  # irregular: no period at all
                cycle = None
            if cycle is None:
                items = tuple(
                    (paddrs[pick_row()], rng.randint(0, 25))
                    for _ in range(rng.randint(1, 60)))
            else:
                reps = rng.randint(1, 400 // len(cycle) + 1)
                items = tuple((paddrs[key], count)
                              for key, count in cycle) * reps
                if rng.random() < 0.3:  # partial trailing repetition
                    items = items[:len(items) - rng.randint(
                        1, len(cycle))] or items
            ops.append(("hammer_batch", items, extra_ns))
            cursor += sum(count * (conflict + extra_ns)
                          for _paddr, count in items)
        elif kind < 0.7:
            bank, row = pick_row()
            count = rng.randint(1, 50)
            ops.append(("hammer", paddrs[(bank, row)], count))
            cursor += count * conflict
        elif kind < 0.8:
            bank, row = pick_row()
            ops.append(("refresh", bank, row))
        elif kind < 0.9:
            if rng.random() < 0.5:
                ns = rng.randint(1, 200_000)
            else:
                # Land just before / exactly on the next epoch boundary.
                to_boundary = window - cursor % window
                ns = max(1, to_boundary - rng.choice((0, 1, conflict)))
            ops.append(("advance", ns))
            cursor += ns
            if rng.random() < 0.5:
                ops.append(("tick",))
        elif kind < 0.95 and snapshots == 0:
            ops.append(("snapshot",))
            snapshots += 1
        elif snapshots > 0:
            ops.append(("restore",))
            snapshots = 0
            # Simulated time rewinds with the machine; the cursor is
            # only a boundary-aiming heuristic, so leave it be.
    return tuple(ops)


def run_program(program, *, batched: bool, defense: str = "vanilla",
                fault_plan=None):
    """Execute ``program`` on a fresh machine; return its fingerprint."""
    config = MachineConfig(
        machine="tiny", sanitizers="strict", defense=defense,
        defense_params=DEFENSE_PARAMS.get(defense, {}),
        fault_plan=fault_plan)
    machine = Machine(config)
    dram = machine.dram
    if not batched:
        # Every activation of the scalar leg runs the specification,
        # not the plan walk that one-item batches share.  A bound
        # method deep-copies onto the copied engine, so snapshots keep
        # it.
        dram.engine.on_activate = MethodType(reference_on_activate,
                                             dram.engine)
    snap = None
    for op in program:
        kind = op[0]
        if kind == "hammer_batch":
            _kind, items, extra_ns = op
            if batched:
                row_of = dram.mapping.row_of
                dram.hammer_batch(
                    [(*row_of(paddr), count) for paddr, count in items],
                    extra_ns=extra_ns)
            else:
                for paddr, count in items:
                    dram.hammer(paddr, count)
                    dram.clock.advance(count * extra_ns)
        elif kind == "hammer":
            dram.hammer(op[1], op[2])
        elif kind == "advance":
            machine.clock.advance(op[1])
        elif kind == "refresh":
            dram.refresh_row(op[1], op[2])
        elif kind == "tick":
            machine.kernel.dispatch_timers()
        elif kind == "snapshot":
            snap = machine.snapshot()
        elif kind == "restore":
            if snap is not None:
                machine.restore(snap)
                dram = machine.dram
        else:  # pragma: no cover - generator/op-set drift guard
            raise ValueError(f"unknown op {op!r}")
    return fingerprint(machine)


def fingerprint(machine):
    """Every observable the scalar ≡ batched claim covers."""
    dram = machine.dram
    engine = dram.engine
    return {
        "frames": {ppn: bytes(data) for ppn, data in dram._frames.items()},
        "flip_log": tuple(dram.flip_log),
        "applied_flips": dram.applied_flips,
        "now_ns": machine.clock.now_ns,
        "total_activations": dram.total_activations,
        "total_deposits": engine.total_deposits,
        "total_flip_events": engine.total_flip_events,
        "banks": tuple((bank.open_row, bank.activations, bank.hits)
                       for bank in dram._banks),
        "recent_activations": tuple(dram.recent_activations),
        "accumulators": engine.accumulated_rows(dram._epoch()),
        "telemetry": machine.telemetry.as_flat_dict(),
    }


def mismatch(program, **kwargs) -> bool:
    """True when the modes disagree on ``program``."""
    results = [run_program(program, batched=batched, **kwargs)
               for _label, batched in MODES]
    return any(result != results[0] for result in results[1:])


def describe_mismatch(program, **kwargs) -> str:
    """Which modes and which fingerprint keys disagree."""
    results = {label: run_program(program, batched=batched, **kwargs)
               for label, batched in MODES}
    base_label, *_rest = results
    base = results[base_label]
    lines = []
    for label, result in results.items():
        bad = sorted(key for key in base if result[key] != base[key])
        if bad:
            lines.append(f"  {label} != {base_label} in: {', '.join(bad)}")
    return "\n".join(lines) or "  (no mismatch on re-run)"


def shrink(program, failing, max_rounds: int = 12):
    """Minimal failing program: ddmin over ops, then item halving.

    ``failing(program) -> bool`` must be deterministic.  Returns a
    program that still fails but from which no single ddmin chunk nor
    any halving of a batch's item list can be removed.
    """
    ops = list(program)
    # Pass 1: ddmin over the op sequence.
    chunk = max(1, len(ops) // 2)
    while chunk >= 1:
        i = 0
        while i < len(ops):
            candidate = ops[:i] + ops[i + chunk:]
            if candidate and failing(tuple(candidate)):
                ops = candidate
            else:
                i += chunk
        chunk //= 2
    # Pass 2: shrink each hammer_batch op's item list.
    for _ in range(max_rounds):
        shrunk = False
        for i, op in enumerate(ops):
            if op[0] != "hammer_batch" or len(op[1]) <= 1:
                continue
            items = op[1]
            for candidate_items in (items[:len(items) // 2],
                                    items[len(items) // 2:]):
                candidate = list(ops)
                candidate[i] = ("hammer_batch", candidate_items, op[2])
                if failing(tuple(candidate)):
                    ops = candidate
                    shrunk = True
                    break
        if not shrunk:
            break
    return tuple(ops)


def check_seed(seed: int, **kwargs) -> None:
    """Assert scalar ≡ batched for the program drawn from ``seed``.

    On failure, shrinks to a minimal reproducing op sequence and raises
    with the seed and the program spelled out for replay.
    """
    program = generate_program(seed)
    if not mismatch(program, **kwargs):
        return
    minimal = shrink(program, lambda p: mismatch(p, **kwargs))
    detail = describe_mismatch(minimal, **kwargs)
    ops = "\n".join(f"    {op!r}," for op in minimal)
    raise AssertionError(
        f"differential mismatch for seed {seed} "
        f"(shrunk {len(program)} -> {len(minimal)} ops)\n{detail}\n"
        f"  minimal program = (\n{ops}\n  )")
