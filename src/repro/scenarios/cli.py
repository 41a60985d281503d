"""Command-line interface for fleet scenarios (mirrors ``repro.sweeps``).

Usage::

    python -m repro.scenarios list
    python -m repro.scenarios run capacity_crunch --workers 2 --cache-dir .fleet-cache
    python -m repro.scenarios resume capacity_crunch --cache-dir .fleet-cache

``run`` fans a scenario's replicates out through the sweep engine (serial
and parallel runs are bit-identical); with ``--cache-dir`` completed fleet
cells persist, so ``resume`` (or an interrupted ``run``) picks up where it
stopped.  ``--workers``, ``--trace-level``, ``--shards`` and ``--chaos``
override their ``REPRO_*`` variables (:mod:`repro.config`) for the
invocation, and default to them; ``--shards`` and ``--trace-level`` are
fingerprinted into the sweep cache key, so runs under different settings
never share entries.

``--warm-seconds`` and ``--placement`` derive a variant of the named
scenario (warm pool enabled / placement mode overridden) before it runs;
because the derived spec has different parameters it also keys different
cache entries, so overridden and stock runs never collide in a shared
``--cache-dir``.
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro import config
from repro.cli import (
    add_knob_arguments,
    add_run_resume_arguments,
    resume_requires_cache,
    run_cli,
    write_json_out,
)
from repro.scenarios.catalog import get_scenario, list_scenarios
from repro.scenarios.fleet import apply_fleet_axes, run_scenario
from repro.scenarios.report import fleet_summary_table
from repro.scenarios.spec import PLACEMENTS


def build_parser() -> argparse.ArgumentParser:
    """The ``repro-scenarios`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-scenarios",
        description="List, run, and resume fleet scenarios.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list named scenarios")

    for command, help_text in (("run", "run a scenario"),
                               ("resume", "resume a cached scenario")):
        sub = commands.add_parser(command, help=help_text)
        add_run_resume_arguments(
            sub, name_help="named scenario",
            cache_help="directory for the per-fleet JSON result cache",
            json_help="also write fleet payloads to a JSON file")
        sub.add_argument("--replicates", type=int, default=2,
                         help="independent fleet replicates (default: 2)")
        add_knob_arguments(sub, config.FLEET_TRACE_LEVEL, config.FLEET_SHARDS,
                           config.CHAOS)
        sub.add_argument("--warm-seconds", type=float, default=None,
                         metavar="SECONDS",
                         help="enable the warm pool: reclaimed capacity "
                              "returns as warm servers that linger this "
                              "long and are re-acquired via the Fig. 10 "
                              "warm path (0 forces cold-only; default: "
                              "the scenario's own setting)")
        sub.add_argument("--telemetry-out", default=None, metavar="PATH",
                         help="also export replicate 0's columnar telemetry "
                              "(step chunks + revocation draws) as a .npz "
                              "artifact (repro.telemetry); honours "
                              "--trace-level/--shards and is bit-identical "
                              "at any shard count")
        sub.add_argument("--placement", choices=PLACEMENTS, default=None,
                         help="placement mode: 'static' pins workers to "
                              "their declared (gpu, region) cells, "
                              "'adaptive' lets the pool-aware launch "
                              "advisor pick regions from live availability "
                              "and the revocation calibration (default: "
                              "the scenario's own setting)")
    return parser


def _apply_overrides(scenario, args):
    """Derive the scenario variant the flags ask for (if any).

    Validation (negative durations, unknown placements) happens inside
    :func:`repro.scenarios.fleet.apply_fleet_axes` / the spec itself and
    surfaces as the CLI's usual ``error:`` line.
    """
    overrides = {}
    if getattr(args, "warm_seconds", None) is not None:
        overrides["warm_seconds"] = args.warm_seconds
    if getattr(args, "placement", None) is not None:
        overrides["placement"] = args.placement
    if not overrides:
        return scenario
    return apply_fleet_axes(scenario, overrides)


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        for scenario in list_scenarios():
            print(f"{scenario.name:24s} {scenario.describe():44s} "
                  f"{scenario.description}")
        return 0

    if resume_requires_cache(args):
        return 2

    scenario = _apply_overrides(get_scenario(args.name), args)
    result = run_scenario(scenario, replicates=args.replicates,
                          seed=args.seed, workers=config.SWEEP_WORKERS.get(),
                          cache_dir=args.cache_dir)
    if args.telemetry_out:
        from repro.telemetry.export import export_fleet_telemetry
        export_fleet_telemetry(scenario, args.telemetry_out, seed=args.seed)
        print(f"wrote telemetry artifact {args.telemetry_out}")
    print(result.summary())
    print(fleet_summary_table(result))
    if args.json_out:
        write_json_out(args.json_out,
                       {"scenario": scenario.name, "seed": args.seed,
                        "fleets": result.payloads()},
                       len(result), "fleet payloads")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    return run_cli(build_parser(), argv, _dispatch)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
