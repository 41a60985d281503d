"""Fleet analysis from a telemetry artifact alone, in bounded memory.

``repro-telemetry report`` renders the classic fleet view — one row per
job plus fleet-wide step-time statistics and the Fig. 9-style local-hour
revocation histogram — **from the npz artifact**, with no scenario
re-run and no payload JSON.  The default path streams
:meth:`~repro.telemetry.reader.TelemetryReader.step_chunks` /
``draw_chunks`` through the :mod:`repro.analysis.streaming` accumulators,
so peak memory is O(chunk_rows) regardless of fleet size; the
``materialized=True`` path concatenates each job's full tables first and
exists to pin the value-identity contract (the streaming report equals
the materialized one, float for float — asserted by the tests and
``benchmarks/telemetry_baseline.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional

import numpy as np

from repro.analysis.streaming import StreamingDescribe
from repro.analysis.tables import format_table
from repro.errors import DataError
from repro.telemetry.reader import TelemetryReader
from repro.units import hour_bins

#: Columns of the per-job fleet report table.
REPORT_TABLE_HEADERS = (
    "rank", "job", "model", "workers", "step rows", "steps",
    "makespan (h)", "mean step (s)", "p95 step (s)", "draws", "revocations",
)


def _step_times(chunk: np.ndarray) -> np.ndarray:
    """Per-step chunk durations for the rows that completed steps."""
    steps = chunk[:, 3]
    mask = steps > 0
    return (chunk[mask, 2] - chunk[mask, 1]) / steps[mask]


def _job_table_chunks(reader: TelemetryReader, rank: int,
                      materialized: bool, kind: str) -> Iterable[np.ndarray]:
    if kind == "steps":
        if materialized:
            return (reader.step_rows(rank),)
        return reader.step_chunks(rank)
    if materialized:
        return (reader.draw_rows(rank),)
    return reader.draw_chunks(rank)


def fleet_report(reader: TelemetryReader, *, materialized: bool = False,
                 block_rows: Optional[int] = None) -> Dict[str, Any]:
    """Aggregate one telemetry artifact into the fleet report document.

    Args:
        reader: An open :class:`TelemetryReader`.
        materialized: Concatenate each job's full step/draw tables before
            aggregating (O(job table) memory) instead of streaming chunk
            by chunk (O(chunk_rows) memory).  The two modes are
            value-identical by construction: the accumulators re-block
            canonically, so their float operations depend only on the row
            stream, never on its chunking.
        block_rows: Accumulator block size; defaults to the artifact's
            own ``chunk_rows`` so "bounded by O(chunk)" is literal.

    Returns:
        A JSON-safe document: one entry per job plus fleet-wide
        aggregates (step-time summary, draw/revocation counts, and the
        24-bin local-hour revocation histogram).
    """
    meta = reader.meta
    if block_rows is None:
        block_rows = int(meta.get("chunk_rows", 4096) or 4096)
    meta_ranks = {int(entry["rank"]) for entry in meta.get("jobs", [])}
    ranks = sorted(set(reader.ranks) | meta_ranks)

    jobs: List[Dict[str, Any]] = []
    fleet_rows = 0
    fleet_steps = 0.0
    fleet_makespan = 0.0
    fleet_draws = 0
    fleet_revocations = 0
    revocation_hours = np.zeros(24, dtype=np.int64)
    fleet_steps_summary: Optional[Dict[str, float]] = None

    with StreamingDescribe(block_rows=block_rows) as fleet_describe:
        for rank in ranks:
            try:
                entry = reader.job_meta(rank)
            except DataError:
                entry = {"name": f"job-{rank}", "model": "", "gflops": 0.0}
            # Only a job without registry members falls back to the meta
            # count; a corrupted registry raises.
            if reader.has_workers(rank):
                workers = len(reader.workers(rank)[0])
            else:
                workers = int(entry.get("workers", 0) or 0)

            rows = 0
            steps_total = 0.0
            makespan = 0.0
            with StreamingDescribe(block_rows=block_rows) as job_describe:
                for chunk in _job_table_chunks(reader, rank, materialized,
                                               "steps"):
                    if not len(chunk):
                        continue
                    rows += int(chunk.shape[0])
                    steps_total += float(chunk[:, 3].sum())
                    makespan = max(makespan, float(chunk[:, 2].max()))
                    job_times = _step_times(chunk)
                    job_describe.update(job_times)
                    fleet_describe.update(job_times)
                job_summary = (job_describe.result()
                               if job_describe.count else None)

            draws = 0
            revocations = 0
            for chunk in _job_table_chunks(reader, rank, materialized,
                                           "draws"):
                if not len(chunk):
                    continue
                draws += int(chunk.shape[0])
                revoked = chunk[:, 2] > 0.5
                revocations += int(revoked.sum())
                hours = chunk[revoked, 4]
                hours = hours[~np.isnan(hours)]
                if len(hours):
                    np.add.at(revocation_hours, hour_bins(hours), 1)

            jobs.append({
                "rank": rank,
                "name": str(entry.get("name", f"job-{rank}")),
                "model": str(entry.get("model", "")),
                "workers": workers,
                "step_rows": rows,
                "steps_total": steps_total,
                "makespan_hours": makespan / 3600.0,
                "mean_step_seconds": (job_summary["mean"]
                                      if job_summary else None),
                "p95_step_seconds": (job_summary["p95"]
                                     if job_summary else None),
                "draws": draws,
                "revocations": revocations,
            })
            fleet_rows += rows
            fleet_steps += steps_total
            fleet_makespan = max(fleet_makespan, makespan)
            fleet_draws += draws
            fleet_revocations += revocations
        if fleet_describe.count:
            fleet_steps_summary = fleet_describe.result()

    return {
        "artifact": reader.path,
        "scenario": meta.get("scenario"),
        "seed": meta.get("seed"),
        "jobs": jobs,
        "fleet": {
            "jobs": len(jobs),
            "step_rows": fleet_rows,
            "steps_total": fleet_steps,
            "makespan_hours": fleet_makespan / 3600.0,
            "step_time_seconds": fleet_steps_summary,
            "draws": fleet_draws,
            "revocations": fleet_revocations,
            "revocation_hour_histogram": [int(v) for v in revocation_hours],
        },
    }


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------
def _cell(value: Optional[float]) -> Any:
    return "-" if value is None else value


def render_hour_histogram(counts, width: int = 40) -> str:
    """Render a 24-bin local-hour histogram as text bars."""
    counts = [int(v) for v in counts]
    peak = max(counts) if counts else 0
    lines = ["local hour | revocations"]
    for hour, count in enumerate(counts):
        bar = "#" * (round(count / peak * width) if peak else 0)
        lines.append(f"{hour:10d} | {count:5d} {bar}")
    return "\n".join(lines)


def render_report(document: Dict[str, Any]) -> str:
    """Render a :func:`fleet_report` document as the fleet text report."""
    rows = [[
        job["rank"], job["name"], job["model"], job["workers"],
        job["step_rows"], int(job["steps_total"]), job["makespan_hours"],
        _cell(job["mean_step_seconds"]), _cell(job["p95_step_seconds"]),
        job["draws"], job["revocations"],
    ] for job in document["jobs"]]
    fleet = document["fleet"]
    title = (f"fleet telemetry report: scenario "
             f"{document.get('scenario')!r}, seed {document.get('seed')}")
    blocks = [format_table(REPORT_TABLE_HEADERS, rows, title=title,
                           float_format="{:.4f}")]
    summary = fleet["step_time_seconds"]
    if summary is not None:
        blocks.append(format_table(
            ("count", "mean", "std", "min", "p50", "p95", "max"),
            [[int(summary["count"]), summary["mean"], summary["std"],
              summary["min"], summary["p50"], summary["p95"],
              summary["max"]]],
            title="fleet step time (s)", float_format="{:.5f}"))
    blocks.append(
        f"fleet: {fleet['jobs']} jobs, {fleet['step_rows']} step rows, "
        f"{int(fleet['steps_total'])} steps, makespan "
        f"{fleet['makespan_hours']:.3f} h, {fleet['revocations']} "
        f"revocations in {fleet['draws']} draws")
    blocks.append(render_hour_histogram(fleet["revocation_hour_histogram"]))
    return "\n\n".join(blocks)
