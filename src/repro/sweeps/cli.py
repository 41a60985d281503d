"""Command-line interface for the sweep engine.

Usage::

    python -m repro.sweeps list
    python -m repro.sweeps run speed --workers 4 --cache-dir .sweep-cache
    python -m repro.sweeps resume speed --cache-dir .sweep-cache

``run`` executes a registered sweep; with ``--cache-dir`` every completed
cell is persisted, so an interrupted run (or ``resume``, which requires a
cache directory) picks up where it stopped.  ``--set axis=v1,v2``
overrides an axis of the default spec with values of the same JSON
types (:meth:`~repro.sweeps.spec.SweepSpec.with_axes`).  ``--workers``
defaults to the ``REPRO_SWEEP_WORKERS`` environment variable, as on
``repro-scenarios``.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, List, Optional, Sequence, Tuple

from repro import config
from repro.cli import (
    add_run_resume_arguments,
    resume_requires_cache,
    run_cli,
    write_json_out,
)
from repro.sweeps.registry import get_sweep, list_sweeps
from repro.sweeps.result import SweepResult
from repro.sweeps.runner import SweepRunner


def _parse_axis_override(text: str) -> Tuple[str, List[Any]]:
    """Parse an axis override: ``axis=<JSON value or list>`` or ``axis=v1,v2``.

    The value is first parsed as one JSON document — a JSON list becomes
    the axis values, any other JSON value a single-value axis — so values
    containing commas (dicts, nested lists) survive intact.  Non-JSON input
    falls back to comma-splitting with per-token JSON coercion, keeping the
    common ``axis=k80,p100`` form working.
    """
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"--set expects axis=v1,v2,... (got {text!r})")
    axis, _, raw = text.partition("=")
    try:
        value = json.loads(raw)
        values = value if isinstance(value, list) else [value]
    except ValueError:
        values = []
        for token in raw.split(","):
            try:
                values.append(json.loads(token))
            except ValueError:
                values.append(token)
    return axis.strip(), values


def _render(result: SweepResult, definition) -> str:
    """The sweep's own summary when it has one, else a generic table."""
    if definition.summarize is not None:
        return definition.summarize(result)
    payloads = result.payloads()
    if payloads and all(isinstance(payload, dict) for payload in payloads):
        scalar_keys = [key for key, value in payloads[0].items()
                       if isinstance(value, (int, float, str, bool))
                       and key not in result.spec.axis_names]
        if scalar_keys:
            return result.to_table(scalar_keys, title=f"sweep {result.spec.name}")
    return f"{len(payloads)} cell payloads (no tabular summary)"


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-sweeps`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sweeps",
        description="List, run, and resume parameter sweeps.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list registered sweeps")

    for command, help_text in (("run", "run a sweep"),
                               ("resume", "resume a cached sweep")):
        sub = commands.add_parser(command, help=help_text)
        add_run_resume_arguments(
            sub, name_help="registered sweep name",
            json_help="also write cell payloads to a JSON file")
        sub.add_argument("--set", dest="overrides", action="append", default=[],
                         metavar="AXIS=V1,V2",
                         type=_parse_axis_override,
                         help="override one axis of the default spec")
    return parser


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for definition in list_sweeps():
            spec = definition.build_spec()
            print(f"{definition.name:24s} {len(spec):4d} cells  "
                  f"{definition.description}")
        return 0

    if resume_requires_cache(args):
        return 2

    definition = get_sweep(args.name)
    spec = definition.build_spec()
    if args.overrides:
        spec = spec.with_axes(**dict(args.overrides))
    context = (definition.build_context()
               if definition.build_context is not None else None)
    runner = SweepRunner(workers=config.SWEEP_WORKERS.get(),
                         cache_dir=args.cache_dir, seed=args.seed)
    result = runner.run(spec, definition.cell_fn, context=context)
    print(result.summary())
    print(_render(result, definition))
    if args.json_out:
        write_json_out(args.json_out,
                       {"sweep": spec.name, "seed": args.seed,
                        "cells": [{"params": r.cell.params,
                                   "payload": r.payload}
                                  for r in result.results]},
                       len(result), "cell payloads")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    return run_cli(build_parser(), argv, _dispatch)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
