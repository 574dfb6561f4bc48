"""``repro-fleet``: list/run/resume/status/report for fleet sweeps.

Examples::

    # every registered scenario group and its scenarios
    repro-fleet list

    # 3 patterns x 7 defenses x 25 seeds = 525 window cells
    repro-fleet run --out results/fleet \\
        --runner window --scenarios one_sided double_sided many_sided \\
        --defenses vanilla chiptrr softtrr para misra_gries ptmp dapper \\
        --seeds-range 1 25 --jobs 8

    # killed mid-run?  pick it back up:
    repro-fleet resume results/fleet --jobs 8

    repro-fleet status results/fleet --check       # complete?
    repro-fleet report results/fleet --out fleet_report.json

    # the defense zoo and the chaos harness, gated by status --check:
    repro-fleet run --group zoo --jobs 2 --out results/zoo
    repro-fleet status results/zoo --check

A spec can also travel as JSON (``--spec fleet.json``), which is the
only way to put fault plans with full per-spec control on the fourth
axis; ``--fault-sites`` covers the common single-site case inline.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Mapping, Optional

from .. import cli_common
from ..errors import ConfigError, ReproError
from .checkpoint import ResultDir
from .report import build_report, fleet_status, render_report
from .spec import CELL_RUNNERS, FleetSpec
from .supervisor import resume_fleet, run_fleet

__all__ = ["main"]

#: Probability for ``--fault-sites`` single-site plans.
_FAULT_SITE_PROBABILITY = 0.1


def _build_parser() -> argparse.ArgumentParser:
    parser = cli_common.build_parser(
        prog="repro-fleet",
        description=("Sharded, checkpointed, crash-tolerant experiment "
                     "fleets over the scenario runner."),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list the registered scenario groups and scenarios")

    run = sub.add_parser(
        "run", help="expand a fleet spec and run every cell")
    run.add_argument(
        "--spec", metavar="PATH",
        help="fleet spec JSON (axes + knobs); CLI flags below override "
             "nothing when --spec is given")
    run.add_argument(
        "--scenarios", nargs="*", default=[],
        help="scenarios axis (registered scenario names as printed by "
             "list, window patterns, or synthetic cell names — per "
             "--runner)")
    run.add_argument(
        "--group", action="append", default=[],
        help="add every scenario of a registered group (repeatable; "
             "scenario runner only)")
    run.add_argument(
        "--seeds", nargs="*", type=int, default=[],
        help="seeds axis (machine/workload seeds)")
    run.add_argument(
        "--seeds-range", nargs=2, type=int, metavar=("FIRST", "LAST"),
        help="seeds axis as an inclusive integer range")
    cli_common.add_defenses_option(
        run,
        help_text="defenses axis (registry names; params scale to the "
                  "machine inside the runner)")
    run.add_argument(
        "--fault-sites", nargs="*", default=[],
        help="fault-plan axis: one single-site plan per named site at "
             f"probability {_FAULT_SITE_PROBABILITY}")
    run.add_argument(
        "--runner", choices=list(CELL_RUNNERS), default="scenario",
        help="cell runner (default scenario)")
    run.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="shard count for the result dir (default 4)")
    run.add_argument(
        "--timeout", type=float, default=120.0, metavar="S",
        help="per-cell wall-clock timeout in seconds (default 120)")
    run.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="attempts before a cell is quarantined (default 3)")
    run.add_argument(
        "--backoff", type=float, default=0.5, metavar="S",
        help="retry backoff base in seconds, doubling per attempt "
             "(default 0.5)")
    cli_common.add_jobs_option(run)
    cli_common.add_json_option(run)
    cli_common.add_out_option(
        run, help_text="the experiment result dir (required)")

    resume = sub.add_parser(
        "resume", help="pick a killed fleet back up from its manifest")
    resume.add_argument("result_dir", help="the experiment result dir")
    cli_common.add_jobs_option(resume)
    cli_common.add_json_option(resume)

    status = sub.add_parser(
        "status", help="progress + integrity digest for a result dir")
    status.add_argument("result_dir", help="the experiment result dir")
    cli_common.add_json_option(status)
    cli_common.add_check_option(
        status,
        help_text="exit non-zero unless every cell is accounted for "
                  "(completed or quarantined) and every gate of the "
                  "fleet's groups passes (all_cells_ok in every "
                  "non-synthetic fleet, plus the zoo and chaos gates) "
                  "— the CI gate")

    report = sub.add_parser(
        "report", help="build the aggregate report (canonical JSON)")
    report.add_argument("result_dir", help="the experiment result dir")
    cli_common.add_json_option(report)
    cli_common.add_out_option(
        report,
        help_text="also write report.json-style output to PATH "
                  "(default: <result_dir>/report.json)")
    return parser


def _spec_from_args(args: argparse.Namespace) -> FleetSpec:
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read fleet spec {args.spec}: {exc}")
        return FleetSpec.from_dict(payload)
    scenarios = list(args.scenarios)
    for group in args.group:
        from ..scenarios.registry import scenario_group

        scenarios.extend(spec.name for spec in scenario_group(group))
    if not scenarios:
        raise ConfigError(
            "nothing to run: give --scenarios/--group or --spec")
    seeds = list(args.seeds)
    if args.seeds_range:
        first, last = args.seeds_range
        if last < first:
            raise ConfigError("--seeds-range LAST must be >= FIRST")
        seeds.extend(range(first, last + 1))
    fault_plans: List[Optional[Mapping]] = []
    if args.fault_sites:
        from ..faults import FAULT_SITES, SITE_MODES

        fault_plans.append(None)  # keep an unfaulted baseline point
        for site in args.fault_sites:
            if site not in FAULT_SITES:
                raise ConfigError(
                    f"unknown fault site {site!r}; known: {FAULT_SITES}")
            fault_plans.append({"specs": [{
                "site": site,
                "mode": SITE_MODES[site][0],
                "probability": _FAULT_SITE_PROBABILITY,
            }], "seed": 0})
    return FleetSpec(
        scenarios=tuple(scenarios),
        seeds=tuple(seeds),
        defenses=tuple(args.defenses),
        fault_plans=tuple(fault_plans),
        runner=args.runner,
        shards=args.shards,
        timeout_s=args.timeout,
        max_attempts=args.max_attempts,
        backoff_s=args.backoff,
    )


def _progress_printer(json_mode: bool):
    if json_mode:
        return None

    def emit(event: Mapping) -> None:
        if event["event"] in ("ok", "quarantined"):
            print(f"[{event['done']}/{event['total']}] "
                  f"{event['cell_id']} {event['event']} "
                  f"(attempts={event['attempts']})", file=sys.stderr)
        elif event["event"] == "retry":
            error = event["error"]
            print(f"retry {event['cell_id']} attempt {event['attempt']} "
                  f"failed ({error['type']}); backing off "
                  f"{event['delay_s']:.2f}s", file=sys.stderr)

    return emit


def _print_summary(summary: Mapping, result_dir: str,
                   json_mode: bool) -> None:
    if json_mode:
        print(json.dumps(dict(summary, result_dir=result_dir),
                         sort_keys=True))
    else:
        print(f"fleet: {summary['ok']} ok, "
              f"{summary['quarantined']} quarantined, "
              f"{summary['already_done']} already done, "
              f"{summary['retries']} retries, "
              f"{summary['timeouts']} timeouts -> {result_dir}")


def _cmd_list(args: argparse.Namespace) -> int:
    from ..scenarios.registry import list_groups, scenario_group

    for group in list_groups():
        print(f"{group}:")
        for spec in scenario_group(group):
            print(f"  {spec.name:34s} [{spec.kind}] {spec.title}")
    return cli_common.EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    if not args.out:
        print("repro-fleet run: --out RESULT_DIR is required",
              file=sys.stderr)
        return cli_common.EXIT_USAGE
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    spec = _spec_from_args(args)
    summary = run_fleet(spec, args.out, jobs=args.jobs,
                        progress=_progress_printer(args.json))
    _print_summary(summary, args.out, args.json)
    return cli_common.EXIT_OK


def _cmd_resume(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ConfigError("--jobs must be >= 1")
    summary = resume_fleet(args.result_dir, jobs=args.jobs,
                           progress=_progress_printer(args.json))
    _print_summary(summary, args.result_dir, args.json)
    return cli_common.EXIT_OK


def _cmd_status(args: argparse.Namespace) -> int:
    status = fleet_status(ResultDir(args.result_dir))
    if args.json:
        print(json.dumps(status, sort_keys=True, indent=2))
    else:
        print(f"cells: {status['cells']}  ok: {status['ok']}  "
              f"quarantined: {status['quarantined']}  "
              f"remaining: {status['remaining']}")
        for shard, entry in sorted(status["shards"].items()):
            print(f"  shard {shard}: {entry['done']}/{entry['cells']}")
        if status["torn_lines"] or status["duplicate_records"]:
            print(f"  integrity: {status['torn_lines']} torn lines, "
                  f"{status['duplicate_records']} duplicate records "
                  "(tolerated)")
        for group, digest in status["groups"].items():
            _print_group(group, digest)
    if not args.check:
        return cli_common.EXIT_OK
    failures = [f"{group} gate {gate} failed"
                for group, digest in status["groups"].items()
                for gate, passed in digest["gates"].items() if not passed]
    if not status["complete"]:
        failures.insert(0, f"{status['remaining']} of {status['cells']} "
                           "cells not yet accounted for")
    for failure in failures:
        print(f"repro-fleet: CHECK FAILED: {failure}", file=sys.stderr)
    return (cli_common.EXIT_CHECK_FAILED if failures
            else cli_common.EXIT_OK)


def _print_group(group: str, digest: Mapping) -> None:
    """One fleet group: its gates, then its summary table."""
    gates = digest["gates"]
    print(f"group {group}: {sum(gates.values())}/{len(gates)} gates pass")
    for gate, passed in gates.items():
        print(f"  {'PASS' if passed else 'FAIL'} {gate}")
    for row, columns in sorted(digest["summary"].items()):
        print(f"  {row:14s} " + " ".join(
            f"{key}={value:.4f}" if isinstance(value, float)
            else f"{key}={value}" for key, value in columns.items()))


def _cmd_report(args: argparse.Namespace) -> int:
    result_dir = ResultDir(args.result_dir)
    report = build_report(result_dir)
    if args.out:
        cli_common.atomic_write_text(
            args.out,
            json.dumps(report, sort_keys=True, indent=2) + "\n")
        destination = args.out
    else:
        destination = result_dir.write_report(report)
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_report(report))
        print(f"[report -> {destination}]")
    return cli_common.EXIT_OK


_COMMANDS = {
    "list": _cmd_list,
    "run": _cmd_run,
    "resume": _cmd_resume,
    "status": _cmd_status,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"repro-fleet: error: {exc}", file=sys.stderr)
        return cli_common.EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
