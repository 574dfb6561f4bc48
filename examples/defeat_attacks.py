#!/usr/bin/env python3
"""Section V in one script: the three attacks, with and without SoftTRR.

For each of the paper's Table II machines, runs its attack twice:

* on the vanilla kernel — the attack templates vulnerable pages, places
  sprayed L1PTs on them with kernel assistance and hammers until the
  page tables corrupt;
* with SoftTRR loaded — same setup, but the tracer catches the very
  first access of every hammer burst and the Row Refresher recharges
  the page-table rows inside the 1 ms window.

Run:  python examples/defeat_attacks.py [--m 2]
(Each attack takes tens of seconds: the templating phase hammers tens
of thousands of simulated activations per candidate row.)
"""

import argparse

from repro import NS_PER_MS, Machine, SoftTrr, SoftTrrParams
from repro.attacks.cattmew import CattmewAttack
from repro.attacks.memory_spray import MemorySprayAttack
from repro.attacks.pthammer import PthammerAttack
from repro.config import optiplex_390, optiplex_990, thinkpad_x230

SCENARIOS = (
    ("Memory Spray [41], 3-sided (TRRespass)", optiplex_390,
     MemorySprayAttack, 8_000_000),
    ("CATTmew [12], 2-sided via SG buffer", optiplex_990,
     CattmewAttack, 8_000_000),
    ("PThammer [57], page-walk hammer", thinkpad_x230,
     PthammerAttack, 16_000_000),
)


def run(attack_cls, spec_factory, hammer_ns, m, softtrr):
    kernel = Machine.from_parts(spec_factory()).kernel
    attack = attack_cls(kernel, m=m, region_pages=288,
                        template_rounds=16_000)
    attack.setup()
    if softtrr:
        kernel.load_module("softtrr", SoftTrr(SoftTrrParams()))
        kernel.clock.advance(2 * NS_PER_MS)
        kernel.dispatch_timers()
    outcome = attack.run(hammer_ns_per_victim=hammer_ns)
    return kernel, outcome


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--m", type=int, default=2,
                        help="victim L1PT pages per attack (paper: 50)")
    args = parser.parse_args()

    for title, spec_factory, attack_cls, hammer_ns in SCENARIOS:
        spec = spec_factory()
        print(f"\n=== {title} on {spec.name} ({spec.dram_part}) ===")
        print("  [1/2] vanilla kernel ... ", end="", flush=True)
        _, baseline = run(attack_cls, spec_factory, hammer_ns, args.m,
                          softtrr=False)
        print(f"{len(baseline.flipped_pt_pages)}/{baseline.m} L1PT pages "
              f"corrupted after {baseline.hammer_time_ns / NS_PER_MS:.1f} ms "
              f"of hammering")
        print("  [2/2] SoftTRR loaded ... ", end="", flush=True)
        kernel, defended = run(attack_cls, spec_factory, hammer_ns, args.m,
                               softtrr=True)
        module = kernel.module("softtrr")
        verdict = "DEFEATED" if defended.bit_flip_failed else "NOT stopped!"
        print(f"{len(defended.flipped_pt_pages)}/{defended.m} corrupted "
              f"-> attack {verdict}")
        print(f"        tracer captured {module.tracer.captured_faults} "
              f"accesses, refreshed {module.refresher.refreshes} rows")

    print("\nAll three attacks corrupt page tables on the vanilla kernel "
          "and fail under SoftTRR (Table II).")


if __name__ == "__main__":
    main()
