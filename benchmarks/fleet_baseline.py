"""Record the fleet execution-core baseline (``BENCH_fleet.json``).

Runs the *reference fleet* — the ``revocation_storm`` scenario scaled to
100 concurrent jobs (3 K80 workers each in europe-west1, launched into the
Fig. 9 late-morning revocation peak, pool of 4 slots per job, queued
replacements) — through the wake-set fleet loop, and records fleet
events/sec, simulated steps/sec, wall-clock, and peak traced memory for
the ``trace_level`` full/summary modes.  Fleet steps/sec is divided by the
chunked single-session steps/sec of the core baseline's reference session
(:func:`core_baseline.chunked_steps_per_sec`), measured in the same
process, so the gated ratio tracks the fleet loop rather than the host.

Next to the headline it records the sessions' replay spans and the mean
chunks per span (``fast_forward_spans`` / ``fast_forward_chunks``): the
count that shows whether replay windows fire inside the fleet, and that
holds on any host.

It also verifies the payload contracts: bit-identical fleet payloads
across simulation core path (``REPRO_CORE_FASTFORWARD``), sweep worker
count, trace level, and telemetry attachment.

Run with::

    python benchmarks/fleet_baseline.py            # full baseline, writes JSON
    python benchmarks/fleet_baseline.py --quick    # quick config only, no write
    python benchmarks/fleet_baseline.py --quick --check
        # measure the quick config and fail (exit 1) if the host-normalized
        # fleet steps/sec ratio regressed more than 30%, or the mean chunks
        # per replay span fell below half, against the committed
        # BENCH_fleet.json
    python benchmarks/fleet_baseline.py --quick --json-out out.json
        # also dump the measured numbers (CI uploads these as artifacts)
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
import time
import tracemalloc

from _common import environment_block, make_parser, ratio_gate, write_json
from core_baseline import chunked_steps_per_sec
from repro.scenarios.fleet import FleetRun, run_scenario
from repro.scenarios.spec import JobSpec, ScenarioSpec
from repro.simulation.rng import RandomStreams
from repro.telemetry.writer import TelemetryConfig, TelemetrySpool

#: The reference fleet: revocation_storm scaled to 100 jobs.  Job shape,
#: region, epoch hour, queueing, and pool-per-job ratio all match the
#: named scenario; only the job count is scaled (the named scenario runs
#: 3 jobs on a 12-slot pool, i.e. 4 slots per job).
REFERENCE = {"jobs": 100, "total_steps": 60_000, "workers_per_job": 3,
             "pool_slots_per_job": 4, "seed": 0}

#: Quick variant used by the CI smoke gate.
QUICK_STEPS = 2_000

#: Allowed fractional steps/sec-ratio regression before ``--check`` fails.
REGRESSION_TOLERANCE = 0.30

#: Allowed fractional drop of the mean chunks per replay span.
SPAN_TOLERANCE = 0.50

#: Timing repetitions (the best run is recorded, damping scheduler noise).
REPETITIONS = 2

#: Telemetry-spool chunk size for the bounded-memory measurement.
TELEMETRY_CHUNK_ROWS = 256

#: Generous per-buffered-value byte cost for the telemetry memory bound:
#: the spool buffers plain Python floats in lists before each numpy
#: flush (object header + list slot), and the transient flush array adds
#: one 8-byte copy per value.
TELEMETRY_BYTES_PER_VALUE = 64

OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "BENCH_fleet.json")


def scaled_storm(jobs: int, total_steps: int) -> ScenarioSpec:
    """``revocation_storm`` scaled to ``jobs`` concurrent jobs."""
    specs = tuple(
        JobSpec(name=f"storm-{index}", model_name="resnet_15",
                total_steps=total_steps,
                workers=(("k80", "europe-west1"),) * REFERENCE["workers_per_job"],
                checkpoint_interval_steps=4000,
                queue_replacements=True)
        for index in range(jobs))
    return ScenarioSpec(
        name=f"revocation_storm_x{jobs}",
        description=f"revocation_storm scaled to {jobs} jobs",
        jobs=specs,
        pool_capacity={("k80", "europe-west1"):
                       REFERENCE["pool_slots_per_job"] * jobs},
        reclaim_seconds=1200.0,
        epoch_hour_utc=8.5)


def _run_fleet(scenario: ScenarioSpec, fast_forward=None, trace_level=None,
               telemetry=None):
    run = FleetRun(scenario, RandomStreams(REFERENCE["seed"]),
                   fast_forward=fast_forward,
                   trace_level=trace_level or "full", telemetry=telemetry)
    started = time.perf_counter()
    payload = run.run()
    wall = time.perf_counter() - started
    return payload, wall, run


def _measure_fleet(scenario: ScenarioSpec):
    best_wall, payload, run = float("inf"), None, None
    for _ in range(REPETITIONS):
        payload, wall, run = _run_fleet(scenario)
        best_wall = min(best_wall, wall)
    steps = sum(job["steps_done"] for job in payload["jobs"])
    spans = sum(job.session.fast_forward_spans for job in run.jobs)
    chunks = sum(job.session.fast_forward_chunks for job in run.jobs)
    return {
        "wall_seconds": round(best_wall, 3),
        "events_processed": run.events_processed,
        "events_per_sec": round(run.events_processed / best_wall, 1),
        "steps_per_sec": round(steps / best_wall, 1),
        "replay_spans": spans,
        "span_chunks_mean": round(chunks / spans, 2) if spans else 0.0,
    }, payload


def _peak_traced_mb(scenario: ScenarioSpec, trace_level: str,
                    telemetry_chunk_rows=None):
    spool_dir = None
    spooling = contextlib.nullcontext()
    if telemetry_chunk_rows is not None:
        spool_dir = tempfile.mkdtemp(prefix="bench-telemetry-")
        spooling = TelemetrySpool(TelemetryConfig(
            spool_dir=spool_dir, chunk_rows=telemetry_chunk_rows))
    tracemalloc.start()
    try:
        with spooling as telemetry:
            payload, _, _ = _run_fleet(scenario, trace_level=trace_level,
                                       telemetry=telemetry)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        if spool_dir is not None:
            shutil.rmtree(spool_dir, ignore_errors=True)
    return round(peak / (1024.0 * 1024.0), 3), payload


def _measure(total_steps: int, identity_steps: int) -> dict:
    """Measure the reference fleet and verify every payload contract."""
    scenario = scaled_storm(REFERENCE["jobs"], total_steps)
    fleet_rates, payload = _measure_fleet(scenario)
    session_steps_per_sec = round(chunked_steps_per_sec(), 1)

    # The expensive identity axes run on a smaller fleet: the chunked core
    # path simulates every step event-by-event.
    identity_scenario = scaled_storm(REFERENCE["jobs"], identity_steps)
    reference_payload, _, _ = _run_fleet(identity_scenario)
    chunked_payload, _, _ = _run_fleet(identity_scenario, fast_forward=False)
    assert chunked_payload == reference_payload, \
        "chunked-core payload diverged from the fast-forward payload"
    serial = run_scenario(identity_scenario, replicates=2, seed=7, workers=1)
    parallel = run_scenario(identity_scenario, replicates=2, seed=7, workers=4)
    assert serial.payloads() == parallel.payloads(), \
        "parallel sweep payloads diverged from serial"

    full_mb, payload_full = _peak_traced_mb(identity_scenario, "full")
    summary_mb, payload_summary = _peak_traced_mb(identity_scenario, "summary")
    assert payload_summary == payload_full == reference_payload, \
        "summary-trace payload diverged from the full-trace payload"

    # Telemetry export must be memory-bounded: the spool buffers at most
    # chunk_rows step rows per job before flushing to disk, so its peak
    # overhead is capped by jobs x chunk_rows x columns — independent of
    # how many total rows the fleet produces.
    telemetry_mb, payload_telemetry = _peak_traced_mb(
        identity_scenario, "summary",
        telemetry_chunk_rows=TELEMETRY_CHUNK_ROWS)
    assert payload_telemetry == reference_payload, \
        "telemetry-attached payload diverged from the reference payload"
    telemetry_overhead_mb = round(telemetry_mb - summary_mb, 3)
    telemetry_bound_mb = round(
        REFERENCE["jobs"] * TELEMETRY_CHUNK_ROWS * 6
        * TELEMETRY_BYTES_PER_VALUE / (1024.0 * 1024.0), 3)
    assert telemetry_overhead_mb <= telemetry_bound_mb, (
        f"telemetry export peak overhead {telemetry_overhead_mb} MB exceeds "
        f"the spool buffer bound {telemetry_bound_mb} MB")

    return {
        "total_steps_per_job": total_steps,
        "throughput": fleet_rates,
        "chunked_session_steps_per_sec": session_steps_per_sec,
        "steps_per_sec_vs_chunked_session": round(
            fleet_rates["steps_per_sec"] / session_steps_per_sec, 3),
        "bit_identical_payloads": {
            "core_path": True, "sweep_workers": True, "trace_level": True,
            "telemetry": True,
        },
        "peak_traced_mb": {
            "trace_level_full": full_mb,
            "trace_level_summary": summary_mb,
            "summary_with_telemetry": telemetry_mb,
            "telemetry_overhead": telemetry_overhead_mb,
            "telemetry_overhead_bound": telemetry_bound_mb,
            "telemetry_chunk_rows": TELEMETRY_CHUNK_ROWS,
            "identity_fleet_steps_per_job": identity_steps,
        },
        "fleet": {
            "jobs": payload["jobs_total"],
            "completed": payload["jobs_completed"],
            "stalled": payload["jobs_stalled"],
            "revocations": payload["revocations"],
            "replacements_admitted": payload["replacements_admitted"],
            "makespan_hours": round(payload["makespan_seconds"] / 3600.0, 3),
        },
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, output=OUTPUT,
        check_help="compare the quick fleet steps/sec, normalized by "
                   "the chunked single-session steps/sec, against a "
                   "committed baseline (default benchmarks/BENCH_fleet.json) "
                   "and exit non-zero on a >30%% regression")
    args = parser.parse_args(argv)

    quick = _measure(QUICK_STEPS, identity_steps=QUICK_STEPS)
    print(json.dumps({"quick": quick}, indent=2))
    measured = {"quick": quick}
    status = 0
    if args.check is not None:
        status = ratio_gate(
            args.check, quick,
            ratio_path=("steps_per_sec_vs_chunked_session",),
            label="fleet steps/sec over chunked-session steps/sec",
            tolerance=REGRESSION_TOLERANCE, precision=3,
            informative_path=("throughput", "steps_per_sec"),
            informative_label="fleet steps/sec")
        status |= ratio_gate(
            args.check, quick,
            ratio_path=("throughput", "span_chunks_mean"),
            label="mean chunks per replay span", tolerance=SPAN_TOLERANCE,
            unit=" chunks")
    elif not args.quick:
        full = _measure(REFERENCE["total_steps"], identity_steps=QUICK_STEPS)
        measured["full"] = full
        baseline = {
            "reference_fleet": REFERENCE,
            "full": full,
            "quick": quick,
            "environment": environment_block(),
            "note": ("events_per_sec counts processed fleet events (chunk "
                     "completions + fired heap events) and steps_per_sec "
                     "simulated training steps for one 100-job "
                     "revocation_storm fleet in one process; "
                     "steps_per_sec_vs_chunked_session divides the latter by "
                     "the chunked-path steps/sec of the core baseline's "
                     "quick reference session, measured in the same "
                     "process, and is the gated host-normalized ratio.  "
                     "Tracked contracts: fleet payloads stay bit-identical "
                     "across core path, sweep worker count, trace level, "
                     "and telemetry attachment.  Regenerate with `python "
                     "benchmarks/fleet_baseline.py` on the same host class "
                     "when the fleet loop, session fast-forward, or "
                     "revocation sampler changes."),
        }
        print(json.dumps({"full": full}, indent=2))
        print()
        write_json(OUTPUT, baseline)
    if args.json_out:
        write_json(args.json_out, measured)
    return status


if __name__ == "__main__":
    sys.exit(main())
