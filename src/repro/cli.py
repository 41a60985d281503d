"""Shared command-line plumbing for the repro front ends.

``repro-sweeps``, ``repro-scenarios``, ``repro-telemetry``, and
``repro-serve`` present the same surface where they overlap: the
``--workers`` / ``--cache-dir`` / ``--seed`` / ``--json`` flags of the
``run`` / ``resume`` subcommands, the flags that override a runtime knob
(declared in :mod:`repro.config`), the "resume requires a cache" check,
and the exit-code conventions (0 for a broken pipe so ``| head`` stays
clean, 1 with an ``error:`` line for any :class:`~repro.errors.ReproError`,
a malformed ``REPRO_*`` variable included).  This module is the single
home of that plumbing, so the front ends cannot drift apart flag by flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Callable, Optional, Sequence

from repro import config
from repro.errors import ReproError
from repro.schema import Invalid


def add_knob_arguments(sub: argparse.ArgumentParser,
                       *knobs: config.Knob) -> None:
    """Attach the flags that override ``knobs`` for one invocation.

    Help text comes from the registry; a value the knob's kind rejects is
    a usage error (a ``--chaos`` spec error exits 1, like a bad
    ``REPRO_CHAOS``).  The flag keeps its text — :func:`run_cli` exports it
    to the environment, where the library reads it back.
    """
    for knob in knobs:
        def check(text: str, knob: config.Knob = knob) -> str:
            try:
                knob.check(text, "value")
            except Invalid as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
            return text
        sub.add_argument(knob.flag, dest=knob.name, type=check, default=None,
                         metavar=knob.metavar,
                         help=f"{knob.doc} (default: {knob.name} or "
                              f"{config.render(knob.default)})")


def add_run_resume_arguments(sub: argparse.ArgumentParser, *,
                             name_help: str,
                             cache_help: str = ("directory for the per-cell "
                                                "JSON result cache"),
                             json_help: str = ("also write payloads to a "
                                               "JSON file")) -> None:
    """Attach the shared ``run`` / ``resume`` flags to a subparser."""
    sub.add_argument("name", help=name_help)
    add_knob_arguments(sub, config.SWEEP_WORKERS)
    sub.add_argument("--cache-dir", default=None, help=cache_help)
    sub.add_argument("--seed", type=int, default=0, help="root RNG seed")
    sub.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                     help=json_help)


def resume_requires_cache(args: argparse.Namespace) -> bool:
    """True (after printing the usage error) when ``resume`` lacks a cache."""
    if args.command == "resume" and args.cache_dir is None:
        print("resume requires --cache-dir", file=sys.stderr)
        return True
    return False


def write_json_out(path: str, document: Any, count: int, what: str) -> None:
    """Write a CLI's ``--json`` document and print the confirmation line."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
    print(f"wrote {count} {what} to {path}")


def run_cli(parser: argparse.ArgumentParser,
            argv: Optional[Sequence[str]],
            dispatch: Callable[[argparse.Namespace], int]) -> int:
    """Parse ``argv`` and run ``dispatch(args)`` under the shared conventions.

    Knob flags override their variables for the call (sweep pool workers
    and shard processes inherit them, and the sweep cache fingerprint sees
    them); the environment is restored afterwards.  Every knob is
    validated before any work starts.  ``BrokenPipeError`` (output piped to
    a consumer that closed early, e.g. ``| head``) exits 0; any
    :class:`~repro.errors.ReproError` prints an ``error:`` line and exits 1.
    """
    try:
        args = parser.parse_args(argv)
        with config.scoped({knob: getattr(args, knob.name, None)
                            for knob in config.KNOBS}):
            for knob in config.KNOBS:
                knob.get()
            return dispatch(args)
    except BrokenPipeError:
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
