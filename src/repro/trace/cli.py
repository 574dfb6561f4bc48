"""``repro-trace``: record, report on, and export machine traces.

Subcommands:

* ``record`` — run the smoke-scale memory-spray attack on the tiny
  machine with SoftTRR loaded and tracing enabled, and write the event
  stream as JSONL.  This is the canonical way to produce a trace the
  other subcommands (and CI's ``trace-smoke`` job) consume.
* ``report`` — the protection-window timeline: per window, every
  refreshed L1PT row with its arm→access→refresh chain.  ``--check``
  gates on the acceptance bar (enough distinct sites, every refresh
  chain complete).
* ``export`` — convert a JSONL trace to Chrome ``trace_event`` JSON
  (loadable in ``chrome://tracing`` / Perfetto).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional

from .. import cli_common
from ..analysis.zoo import TINY_DEFENSE_PARAMS, spray_leg
from ..core.profile import SoftTrrParams
from ..errors import ReproError
from .events import DEFAULT_CAPACITY
from .export import (
    build_timeline,
    read_jsonl,
    render_timeline,
    write_chrome,
    write_jsonl,
)
from .hub import LEVELS

__all__ = ["main", "record_smoke"]

#: The protection window of the recorded machine: with ``count_limit=2``
#: it equals one tiny-machine timer interval.
_DEFAULT_WINDOW_NS = SoftTrrParams(
    **TINY_DEFENSE_PARAMS["softtrr"]).protection_window_ns


def record_smoke(seed: int = 11, level: str = "spans",
                 capacity: int = DEFAULT_CAPACITY):
    """Run the smoke scenario with tracing on, under strict sanitizers;
    returns the Machine.

    Deterministic in its arguments: the attack runs on the simulated
    clock with seeded RNG streams, so two records with the same seed
    produce byte-identical JSONL.
    """
    from ..machine import Machine, MachineConfig

    machine = Machine(MachineConfig(
        machine="tiny",
        defense="softtrr",
        defense_params=TINY_DEFENSE_PARAMS["softtrr"],
        sanitizers="strict",
        seed=seed,
        trace=level,
        trace_capacity=capacity,
    ))
    spray_leg(machine)
    return machine


# ----------------------------------------------------------- subcommands
def _cmd_record(args) -> int:
    machine = record_smoke(seed=args.seed, level=args.level,
                           capacity=args.capacity)
    telemetry = machine.telemetry
    count = write_jsonl(telemetry.events(), args.out)
    summary: Dict[str, object] = {
        "out": args.out,
        "level": args.level,
        "seed": args.seed,
        "events": count,
        "dropped": telemetry.hub.buffer.dropped,
        "sites": telemetry.trace_sites(),
        "now_ns": machine.clock.now_ns,
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        print(f"[{count} events ({len(summary['sites'])} sites) "
              f"-> {args.out}]")
    return cli_common.EXIT_OK


def _cmd_report(args) -> int:
    timeline = build_timeline(read_jsonl(args.trace), args.window_ns)
    if args.json:
        print(json.dumps(timeline, sort_keys=True, indent=2))
    else:
        print(render_timeline(timeline))
    if args.check:
        failures: List[str] = []
        if timeline["distinct_sites"] < args.min_sites:
            failures.append(
                f"only {timeline['distinct_sites']} distinct event sites "
                f"(need >= {args.min_sites})")
        if timeline["refreshes"] == 0:
            failures.append("no refresh.row events in the trace")
        incomplete = timeline["refreshes"] - timeline["complete_chains"]
        if incomplete:
            failures.append(
                f"{incomplete} refreshed rows missing their "
                "arm→access→refresh chain")
        if failures:
            for failure in failures:
                print(f"repro-trace: CHECK FAILED: {failure}",
                      file=sys.stderr)
            return cli_common.EXIT_CHECK_FAILED
        print("repro-trace: check passed "
              f"({timeline['distinct_sites']} sites, "
              f"{timeline['refreshes']} complete refresh chains)",
              file=sys.stderr)
    return cli_common.EXIT_OK


def _cmd_export(args) -> int:
    events = read_jsonl(args.trace)
    if args.format == "chrome":
        count = write_chrome(events, args.out)
    else:
        count = write_jsonl(events, args.out)
    print(f"[{count} events -> {args.out} ({args.format})]")
    return cli_common.EXIT_OK


# ------------------------------------------------------------ the parser
def _build_parser():
    parser = cli_common.build_parser(
        "repro-trace",
        "Record, report on, and export structured machine traces.")
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser(
        "record", help="run the traced smoke scenario and write JSONL")
    cli_common.add_seed_option(record, default=11)
    cli_common.add_out_option(record, default="trace.jsonl")
    cli_common.add_json_option(record)
    record.add_argument(
        "--level", choices=LEVELS[1:], default="spans",
        help="trace verbosity (default spans)")
    record.add_argument(
        "--capacity", type=int, default=DEFAULT_CAPACITY, metavar="N",
        help=f"ring buffer capacity in events (default {DEFAULT_CAPACITY})")
    record.set_defaults(func=_cmd_record)

    report = sub.add_parser(
        "report", help="protection-window timeline from a JSONL trace")
    report.add_argument("trace", help="JSONL trace file (from record)")
    report.add_argument(
        "--window-ns", type=int, default=_DEFAULT_WINDOW_NS, metavar="NS",
        help="protection window length in simulated ns "
             f"(default {_DEFAULT_WINDOW_NS}, the tiny-machine window)")
    report.add_argument(
        "--min-sites", type=int, default=6, metavar="N",
        help="--check: minimum distinct event sites (default 6)")
    cli_common.add_json_option(report)
    cli_common.add_check_option(
        report,
        "exit non-zero unless the trace has enough distinct sites and "
        "every refreshed row shows a full arm→access→refresh chain")
    report.set_defaults(func=_cmd_report)

    export = sub.add_parser(
        "export", help="convert a JSONL trace to another format")
    export.add_argument("trace", help="JSONL trace file (from record)")
    cli_common.add_out_option(export, default="trace.json")
    export.add_argument(
        "--format", choices=("chrome", "jsonl"), default="chrome",
        help="output format (default chrome trace_event JSON)")
    export.set_defaults(func=_cmd_export)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"repro-trace: error: {exc}", file=sys.stderr)
        return cli_common.EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
