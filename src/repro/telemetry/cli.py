"""``repro-telemetry``: export, analyze, and recalibrate fleet telemetry.

Four subcommands on the shared :mod:`repro.cli` plumbing:

* ``export`` — run one replicate of a named scenario (or the built-in
  ``telemetry_calibration`` fleet) with the telemetry spool attached and
  write the columnar ``.npz`` artifact;
* ``report`` — render the fleet table, step-time summary, and local-hour
  revocation histogram from an artifact alone, streaming chunk by chunk
  (bounded memory, any fleet size);
* ``diff`` — compare two artifacts cell by cell (row counts, per-column
  max-abs-delta, added/removed jobs); ``--exact`` additionally asserts
  byte identity.  Exits 0 only when the artifacts agree;
* ``recalibrate`` — refit the revocation/step-time parameters from an
  artifact, optionally writing the refit document as JSON and/or gating
  on the self-consistency tolerances (``--check``, the CI smoke's mode).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import config
from repro.cli import add_knob_arguments, run_cli, write_json_out
from repro.errors import ConfigurationError
from repro.scenarios.catalog import SCENARIO_BUILDERS, get_scenario
from repro.telemetry.diff import diff_artifacts
from repro.telemetry.export import export_fleet_telemetry
from repro.telemetry.fleets import calibration_scenario
from repro.telemetry.reader import TelemetryReader
from repro.telemetry.recalibrate import check_recovery, recalibrate
from repro.telemetry.report import fleet_report, render_report
from repro.telemetry.writer import DEFAULT_CHUNK_ROWS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Columnar fleet telemetry export and recalibration")
    commands = parser.add_subparsers(dest="command", required=True)

    export = commands.add_parser(
        "export", help="run one fleet replicate and write its telemetry npz")
    export.add_argument(
        "scenario",
        help=("scenario name (or 'telemetry_calibration' for the built-in "
              "calibration fleet)"))
    export.add_argument("--out", required=True, metavar="PATH",
                        help="destination .npz artifact")
    export.add_argument("--seed", type=int, default=0, help="root RNG seed")
    export.add_argument("--replicate", type=int, default=0,
                        help="which replicate cell to export (default: 0)")
    add_knob_arguments(export, config.FLEET_SHARDS, config.FLEET_TRACE_LEVEL)
    export.add_argument("--chunk-rows", type=int, default=DEFAULT_CHUNK_ROWS,
                        help="telemetry rows buffered before each flush")
    export.add_argument("--jobs-per-cell", type=int, default=240,
                        help=("calibration-fleet size knob (only with "
                              "scenario 'telemetry_calibration')"))

    report = commands.add_parser(
        "report", help=("render the fleet table + revocation-hour "
                        "histogram from an artifact alone (streaming, "
                        "bounded memory)"))
    report.add_argument("artifact", help="telemetry .npz artifact to read")
    report.add_argument("--json", dest="json_out", default=None,
                        metavar="PATH",
                        help="also write the report document as JSON")
    report.add_argument("--block-rows", type=int, default=None,
                        help=("streaming accumulator block size (default: "
                              "the artifact's own chunk_rows)"))

    diff = commands.add_parser(
        "diff", help=("compare two artifacts cell by cell; exits 0 only "
                      "when they agree"))
    diff.add_argument("artifact_a", help="reference telemetry .npz")
    diff.add_argument("artifact_b", help="candidate telemetry .npz")
    diff.add_argument("--exact", action="store_true",
                      help="additionally assert byte identity of the files")
    diff.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                      help="also write the diff document as JSON")

    refit = commands.add_parser(
        "recalibrate", help="refit model parameters from a telemetry npz")
    refit.add_argument("artifact", help="telemetry .npz artifact to read")
    refit.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                       help="write the refit parameter document as JSON")
    refit.add_argument("--check", action="store_true",
                       help=("gate on the documented self-consistency "
                             "tolerances against the stock generating "
                             "models; exit 1 on any violation"))
    return parser


def _resolve_scenario(name: str, jobs_per_cell: int):
    if name == "telemetry_calibration":
        return calibration_scenario(jobs_per_cell=jobs_per_cell)
    try:
        return get_scenario(name)
    except ConfigurationError:
        known = ", ".join(list(SCENARIO_BUILDERS) + ["telemetry_calibration"])
        raise ConfigurationError(
            f"unknown scenario {name!r}; known: {known}")


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = _resolve_scenario(args.scenario, args.jobs_per_cell)
    payload = export_fleet_telemetry(
        scenario, args.out, seed=args.seed, replicate=args.replicate,
        chunk_rows=args.chunk_rows)
    print(f"exported telemetry for {len(payload['jobs'])} jobs to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    with TelemetryReader(args.artifact) as reader:
        document = fleet_report(reader, block_rows=args.block_rows)
    print(render_report(document))
    if args.json_out:
        write_json_out(args.json_out, document,
                       len(document["jobs"]), "job rows")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    result = diff_artifacts(args.artifact_a, args.artifact_b,
                            exact=args.exact)
    print(result.summary())
    if args.json_out:
        write_json_out(args.json_out, result.to_document(),
                       len(result.jobs), "compared jobs")
    return 0 if result.identical else 1


def _cmd_recalibrate(args: argparse.Namespace) -> int:
    with TelemetryReader(args.artifact) as reader:
        result = recalibrate(reader)
    document = result.to_params()
    if args.json_out:
        write_json_out(args.json_out, document,
                       len(result.calibration), "refit cells")
    else:
        json.dump(document, sys.stdout, indent=2, sort_keys=True)
        print()
    if args.check:
        violations = check_recovery(result)
        for violation in violations:
            print(f"recovery violation: {violation}", file=sys.stderr)
        if violations:
            return 1
        print(f"recovery check passed: {len(result.calibration)} cells, "
              f"{len(result.hourly_weights)} weight profiles, "
              f"{len(result.anchors)} anchor sets within tolerance")
    return 0


_COMMANDS = {"export": _cmd_export, "report": _cmd_report,
             "diff": _cmd_diff, "recalibrate": _cmd_recalibrate}


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli(build_parser(), argv,
                   lambda args: _COMMANDS[args.command](args))


if __name__ == "__main__":  # pragma: no cover - exercised via repro-telemetry
    sys.exit(main())
