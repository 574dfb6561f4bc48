"""Shared argparse conventions for the ``repro-*`` command-line tools.

The campaign CLIs (``repro-fleet``, ``repro-fuzz``, ``repro-trace``)
spell each shared knob one way.
This module pins those flags and the exit codes.

Canonical flags (each CLI opts in to the subset it needs):

* ``--seed N`` — deterministic RNG root for the run;
* ``--jobs N`` — parallel worker count;
* ``--json`` — machine-readable output on stdout;
* ``--check`` — gate mode: validate and exit non-zero on failure;
* ``--out PATH`` — artifact destination.

Exit codes: ``EXIT_OK`` (0) success, ``EXIT_CHECK_FAILED`` (1) a
``--check`` gate or the tool's own validation failed,
``EXIT_USAGE`` (2) bad invocation (argparse's own convention).

This module also owns :func:`atomic_write_text`/:func:`atomic_write_json`,
the one sanctioned way to write a JSON/JSONL artifact: write-temp +
``os.replace`` in the destination directory, so a SIGKILL mid-write can
never leave a torn file behind — readers observe either the old
artifact or the new one, nothing in between.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
from typing import Optional

__all__ = [
    "EXIT_CHECK_FAILED",
    "EXIT_OK",
    "EXIT_USAGE",
    "add_check_option",
    "add_defenses_option",
    "add_jobs_option",
    "add_json_option",
    "add_out_option",
    "add_seed_option",
    "atomic_write_json",
    "atomic_write_text",
    "build_parser",
]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


def build_parser(prog: str, description: str,
                 **kwargs) -> argparse.ArgumentParser:
    """A parser with the shared prog/description conventions."""
    return argparse.ArgumentParser(
        prog=prog, description=description, **kwargs)


def add_seed_option(parser: argparse.ArgumentParser,
                    default: int = 1234) -> None:
    """``--seed N``: the deterministic RNG root."""
    parser.add_argument(
        "--seed", type=int, default=default, metavar="N",
        help=f"deterministic RNG root (default {default})")


def add_jobs_option(parser: argparse.ArgumentParser,
                    default: int = 1) -> None:
    """``--jobs N``: parallel worker count."""
    parser.add_argument(
        "--jobs", type=int, default=default, metavar="N",
        help=f"parallel worker processes (default {default}; "
             "1 runs in this process)")


def add_defenses_option(parser: argparse.ArgumentParser,
                        default=None,
                        help_text: Optional[str] = None) -> None:
    """``--defenses NAME [NAME ...]``: the defense axis of a sweep.

    The one canonical spelling for every CLI that sweeps defenses
    (``repro-fuzz``, ``repro-fleet``); singular
    ``--defense`` spellings are banned so invocations compose across
    tools.
    """
    default = list(default) if default is not None else []
    parser.add_argument(
        "--defenses", nargs="*", default=default, metavar="NAME",
        help=help_text or (
            f"defenses to sweep (default: {' '.join(default)})" if default
            else "defenses to sweep"))


def add_json_option(parser: argparse.ArgumentParser) -> None:
    """``--json``: machine-readable output on stdout."""
    parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON instead of text")


def add_check_option(parser: argparse.ArgumentParser,
                     help_text: Optional[str] = None) -> None:
    """``--check``: gate mode, exit 1 when validation fails."""
    parser.add_argument(
        "--check", action="store_true",
        help=help_text or "gate mode: validate results and exit "
                          "non-zero on failure")


def add_out_option(parser: argparse.ArgumentParser,
                   default: Optional[str] = None,
                   help_text: Optional[str] = None) -> None:
    """``--out PATH``: artifact destination."""
    parser.add_argument(
        "--out", default=default, metavar="PATH",
        help=help_text or (
            f"write results to PATH (default {default})" if default
            else "write results to PATH"))


def atomic_write_text(path, text: str, encoding: str = "utf-8") -> None:
    """Write ``text`` to ``path`` atomically (write-temp + ``os.replace``).

    The temp file lives in the destination directory so the final
    rename never crosses a filesystem boundary; the content is flushed
    and fsynced before the rename, so after a crash the path holds
    either the complete old artifact or the complete new one — never a
    prefix.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def atomic_write_json(path, payload, *, sort_keys: bool = True,
                      indent: Optional[int] = 2) -> None:
    """Canonical-JSON convenience over :func:`atomic_write_text`."""
    atomic_write_text(
        path,
        json.dumps(payload, sort_keys=sort_keys, indent=indent) + "\n")
