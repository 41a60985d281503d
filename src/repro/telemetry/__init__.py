"""Columnar fleet telemetry export and online recalibration.

This package closes the paper's measure -> model -> decide loop at fleet
scale: a fleet run streams its per-step timings and revocation draws into a
memory-bounded columnar spool, the spool is packed into a single ``.npz``
artifact, and :mod:`repro.telemetry.recalibrate` refits the
:class:`~repro.cloud.revocation.RevocationModel` and
:class:`~repro.perf.step_time.StepTimeModel` parameters from that artifact —
handing the refreshed calibration back to the launch advisor and the
``repro.serve`` placement service.

Sink protocol
-------------
Capture rides on the :class:`repro.training.trace.TraceSink` protocol.  A
:class:`~repro.telemetry.writer.TelemetrySpool` hands each job a
``JobTelemetry`` handle whose ``step_sink()`` is a ``TraceSink``; the fleet
tees it behind the job's primary sink (full or summary), so ``trace_level``
semantics and every golden payload stay bit-identical whether or not
telemetry is attached.  Sinks receive the same ``append_row`` /
``extend_rows`` calls the in-memory trace does; the spool buffers rows in
plain Python lists and appends fixed-size ``float64`` chunks to its part
file on disk, so peak memory is bounded by ``chunk_rows`` regardless of
fleet size.

Streaming-memory contract
-------------------------
Reading mirrors writing: :class:`TelemetryReader` indexes the members
once at open and decodes one chunk at a time (``step_chunks`` /
``draw_chunks``), each with one positioned read into its own buffer, so
nothing is memory-mapped and every byte the analysis holds is visible to
tracemalloc.  It keeps no per-job state beyond the index: a job's worker
registry is read again on every request.  What each built-in consumer
holds on top of that:

* :func:`repro.telemetry.report.fleet_report` feeds the chunks through
  :class:`repro.analysis.streaming.StreamingDescribe` (stable
  block-merged moments and exact spill-and-merge percentiles), so its
  memory does not grow with the fleet.  The streaming report is
  value-identical to the materialized ``step_rows`` path, and
  ``benchmarks/telemetry_baseline.py`` pins the bound with tracemalloc:
  analysis peak stays flat as the job count grows 10x (committed as
  ``BENCH_telemetry.json``).
* :func:`repro.telemetry.diff.diff_artifacts` re-blocks each pair of
  chunk streams at their common boundaries (``_aligned_blocks``) and
  compares block by block, in memory bounded by one chunk per artifact.
* :func:`~repro.telemetry.recalibrate.recalibrate` concatenates each
  ``(gpu, region)`` cell's draw rows (``_collect_draws``) and each
  ``(gpu, gflops)`` group's post-warm-up step times before it fits, so
  its memory grows with those rows, not with ``chunk_rows``.

Merge and ordering guarantees
-----------------------------
Each process writing a spool (the single-process run, or each shard) appends
its chunks to one *part file* in the spool directory, numbered by shard
index, and seals it at close with an index of ``(member key, offset,
length)`` and a fixed footer; opening a part truncates it, so a restarted
shard rewrites its own part rather than appending to a crashed
incarnation's.  Member keys carry the *global job rank* and per-job chunk
index — never the shard — and jobs never span shards, so a sharded run's
parts hold exactly the members of the single-process part.  ``write_npz``
refuses an unsealed part or a key present twice, then packs every member
in sorted-key order with pinned zip metadata (epoch timestamps, fixed
permissions, ``ZIP_STORED``), which makes the artifact a pure function of
row contents: sharded export is bit-identical to single-process export.
Within a job, step rows appear in simulation event order and revocation
draws in draw order, both of which are shard-invariant by construction
(a job's events live on one shard and keep their heap tie-break order).
"""

from repro.telemetry.writer import (
    DEFAULT_CHUNK_ROWS,
    TELEMETRY_FORMAT_VERSION,
    TelemetryConfig,
    TelemetrySpool,
    write_npz,
)
from repro.telemetry.reader import TelemetryReader
from repro.telemetry.recalibrate import (
    RECOVERY_TOLERANCES,
    RecalibrationResult,
    check_recovery,
    recalibrate,
)
from repro.telemetry.export import export_fleet_telemetry
from repro.telemetry.fleets import calibration_scenario
from repro.telemetry.diff import TelemetryDiff, diff_artifacts
from repro.telemetry.report import fleet_report, render_report

__all__ = [
    "DEFAULT_CHUNK_ROWS",
    "TELEMETRY_FORMAT_VERSION",
    "TelemetryConfig",
    "TelemetrySpool",
    "write_npz",
    "TelemetryReader",
    "RECOVERY_TOLERANCES",
    "RecalibrationResult",
    "check_recovery",
    "recalibrate",
    "export_fleet_telemetry",
    "calibration_scenario",
    "TelemetryDiff",
    "diff_artifacts",
    "fleet_report",
    "render_report",
]
