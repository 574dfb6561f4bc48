"""Run one campaign in this (fresh) interpreter; the benchmark's child.

    python3 perfbench/child.py --workload fuzz --seed 11 \\
        --workdir DIR --result OUT.json [--trace-dir DIR] [--setup-only] \\
        [--tiny]

``src`` must be importable (``run.py`` puts it on ``PYTHONPATH``).  The
result file carries the moment the campaign's inputs existed (a
``time.monotonic()`` reading, comparable with ``run.py``'s), the
output digest, cell and failure counts, the gates and the peak RSS of
this process plus its largest child.  With ``--trace-dir`` the
campaign runs under :mod:`layertrace` and the result also carries the
per-layer metrics; spans go to ``<trace-dir>/spans.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time


class _SetupDone(Exception):
    """Raised at the end of set-up under ``--setup-only``."""


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/child.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    from campaigns import CAMPAIGNS  # this script's own directory

    result = {"workload": args.workload, "seed": args.seed}

    def ready() -> None:
        result["ready_monotonic"] = time.monotonic()
        if args.setup_only:
            raise _SetupDone

    tracer = None
    if args.trace_dir:
        import layertrace

        tracer = layertrace.install(args.trace_dir)
    os.makedirs(args.workdir, exist_ok=True)
    try:
        outcome = CAMPAIGNS[args.workload](args.seed, args.workdir, ready,
                                           args.tiny)
    except _SetupDone:
        pass
    else:
        if tracer is not None:
            result["layers"] = tracer.finish(
                os.path.join(args.trace_dir, "spans.jsonl"))
        result.update(
            digest=hashlib.sha256(outcome.output).hexdigest(),
            cells=outcome.cells,
            failed=outcome.failed,
            gates=outcome.gates,
            extras=outcome.extras,
        )
    finally:
        # A still-armed profiling timer would kill the interpreter with
        # SIGPROF once shutdown resets the handler.
        if tracer is not None:
            tracer.stop_sampler()
    result["peak_rss_mb"] = _peak_rss_mb()
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
