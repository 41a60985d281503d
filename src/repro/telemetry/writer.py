"""Streaming, memory-bounded columnar telemetry writer.

A fleet run streams two row kinds per job into a *spool* directory:

* **step rows** — one per completed training chunk, captured by teeing a
  :class:`JobStepSink` behind the job's normal trace sink, and
* **draw rows** — one per revocation-model draw (job starts and
  replacement admissions), captured where the fleet draws.

Rows are buffered in plain Python lists and flushed every
``chunk_rows`` rows as a single ``float64`` matrix in :func:`numpy.save`
format, so a job's peak buffered state is one chunk regardless of how
long it trains.

Part files
----------
Each :class:`TelemetrySpool` (one per process: the single-process run,
or one per shard) appends every flushed chunk to one *part file*,
``part<NNNN>`` in the spool directory, and records the chunk's member
key, byte offset and length.  A key is the global job rank, the row kind
and a per-job, per-kind chunk counter — ``job000003__steps__000002.npy``
— plus ``job000003__workers__{ids,gpus,regions}.npy`` for the worker
registry, so the keys are independent of how the fleet was sharded:
jobs never span shards, so the shards' parts together hold exactly the
members the single-process part would have held.

``close()`` appends the part's index (JSON ``[key, offset, length]``
triples) and a fixed footer — the index offset and a magic — which
*seals* the part.  A part without the footer was never closed (its
process crashed or its run raised), and :func:`write_npz` refuses it.
Opening a spool truncates its part, so a restarted shard rewrites its
own part from scratch and never appends to a dead incarnation's bytes.

:func:`write_npz` then reads every sealed part's index and packs the
members into one ``.npz`` artifact in sorted-key order with pinned zip
metadata (epoch timestamps, fixed permissions, no compression), copying
one member at a time with one positioned read.  The resulting bytes are
a pure function of the row contents — the bit-identity half of the
telemetry contract.

All values are stored as ``float64``; the integer columns (worker index,
step counts) are exact up to 2**53, far beyond any fleet's range.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import struct
import zipfile
from dataclasses import dataclass
from typing import BinaryIO, Dict, List, Sequence, Tuple

import numpy as np

from repro import chaos
from repro.errors import DataError
from repro.training.trace import TraceSink

#: Bumped whenever the artifact layout changes; readers refuse unknown
#: versions instead of misinterpreting columns.
TELEMETRY_FORMAT_VERSION = 1

#: Rows buffered per job and row kind before a chunk is flushed to disk.
DEFAULT_CHUNK_ROWS = 4096

#: Columns of a step-row chunk, in order.
STEP_COLUMNS = ("worker", "start_time", "end_time", "steps",
                "cluster_step", "worker_step")

#: Columns of a draw-row chunk, in order.  ``revocation_hour_local`` is
#: NaN for draws that survived (no revocation scheduled).
DRAW_COLUMNS = ("worker", "launch_hour_local", "revoked",
                "lifetime_hours", "revocation_hour_local")

#: A part file's name in the spool directory: ``part`` + the part number.
_PART_NAME = re.compile(r"part\d{4,}", re.ASCII)

#: The footer that seals a part file: the index's byte offset, then the
#: magic.  The index runs from that offset to the footer.
_PART_FOOTER = struct.Struct("<Q8s")
_PART_MAGIC = b"RPRSPOOL"


@dataclass(frozen=True)
class TelemetryConfig:
    """Picklable description of a telemetry spool.

    Shard workers receive this (not a live :class:`TelemetrySpool`) and
    construct their own spool, with their own part number, over the
    shared directory.

    Attributes:
        spool_dir: Directory receiving the part files; must exist.
        chunk_rows: Rows buffered per job/kind before flushing.
    """

    spool_dir: str
    chunk_rows: int = DEFAULT_CHUNK_ROWS


class JobStepSink(TraceSink):
    """The :class:`~repro.training.trace.TraceSink` face of one job's spool.

    Forwards every row to the owning :class:`JobTelemetry` buffer.  It is
    only ever a tee *secondary*, and a :class:`~repro.training.trace.TeeSink`
    answers ``len``, ``steps_total`` and ``max_end_time`` from its primary,
    so it keeps no counters of its own.
    """

    def __init__(self, job: "JobTelemetry"):
        self._job = job

    def append_row(self, worker_id: str, start_time: float, end_time: float,
                   steps: int, cluster_step: int, worker_step: int = 0) -> None:
        self._job.record_step(worker_id, start_time, end_time, steps,
                              cluster_step, worker_step)

    def extend_rows(self, worker_ids: Sequence[str], start_times: Sequence[float],
                    end_times: Sequence[float], steps: Sequence[int],
                    cluster_steps: Sequence[int], worker_steps: Sequence[int]) -> None:
        n = len(worker_ids)
        if not (len(start_times) == len(end_times) == len(steps)
                == len(cluster_steps) == len(worker_steps) == n):
            raise DataError("extend_rows requires equally sized columns")
        record = self._job.record_step
        for j in range(n):
            record(worker_ids[j], start_times[j], end_times[j], steps[j],
                   cluster_steps[j], worker_steps[j])

    @property
    def nbytes(self) -> int:
        """Rows currently buffered (not yet flushed) by the owning job."""
        return self._job.buffered_nbytes


class JobTelemetry:
    """Per-job spool handle: worker registry plus buffered row chunks."""

    def __init__(self, spool: "TelemetrySpool", rank: int, name: str,
                 model_name: str, gflops: float):
        self.rank = rank
        self.name = name
        self.model_name = model_name
        self.gflops = float(gflops)
        self._spool = spool
        self._worker_index: Dict[str, int] = {}
        self._worker_ids: List[str] = []
        self._worker_gpus: List[str] = []
        self._worker_regions: List[str] = []
        self._steps: List[List[float]] = [[] for _ in STEP_COLUMNS]
        self._draws: List[List[float]] = [[] for _ in DRAW_COLUMNS]
        self._step_chunk = 0
        self._draw_chunk = 0

    # ------------------------------------------------------------------
    # Worker registry.
    # ------------------------------------------------------------------
    def register_worker(self, worker_id: str, gpu: str, region: str) -> int:
        """Intern a worker; first registration wins (idempotent)."""
        index = self._worker_index.get(worker_id)
        if index is None:
            index = len(self._worker_ids)
            self._worker_index[worker_id] = index
            self._worker_ids.append(worker_id)
            self._worker_gpus.append(gpu)
            self._worker_regions.append(region)
        return index

    def _worker(self, worker_id: str) -> int:
        index = self._worker_index.get(worker_id)
        if index is None:
            # Rows from ids the fleet never announced (e.g. the synthetic
            # "session-restart" correction row) get an anonymous slot.
            index = self.register_worker(worker_id, "", "")
        return index

    # ------------------------------------------------------------------
    # Row capture.
    # ------------------------------------------------------------------
    def step_sink(self) -> JobStepSink:
        """A fresh ``TraceSink`` feeding this job's step spool."""
        return JobStepSink(self)

    def record_step(self, worker_id: str, start_time: float, end_time: float,
                    steps: int, cluster_step: int, worker_step: int) -> None:
        columns = self._steps
        columns[0].append(float(self._worker(worker_id)))
        columns[1].append(float(start_time))
        columns[2].append(float(end_time))
        columns[3].append(float(steps))
        columns[4].append(float(cluster_step))
        columns[5].append(float(worker_step))
        if len(columns[0]) >= self._spool.chunk_rows:
            self._flush_steps()

    def record_draw(self, worker_id: str, launch_hour_local: float,
                    outcome) -> None:
        """Record one revocation-model draw (a ``RevocationOutcome``)."""
        columns = self._draws
        columns[0].append(float(self._worker(worker_id)))
        columns[1].append(float(launch_hour_local))
        columns[2].append(1.0 if outcome.revoked else 0.0)
        columns[3].append(float(outcome.lifetime_hours)
                          if outcome.lifetime_hours is not None else float("nan"))
        columns[4].append(float(outcome.revocation_hour_local)
                          if outcome.revocation_hour_local is not None
                          else float("nan"))
        if len(columns[0]) >= self._spool.chunk_rows:
            self._flush_draws()

    @property
    def buffered_nbytes(self) -> int:
        """Approximate bytes held in not-yet-flushed row buffers."""
        rows = len(self._steps[0]) * len(STEP_COLUMNS)
        rows += len(self._draws[0]) * len(DRAW_COLUMNS)
        return 32 * rows

    # ------------------------------------------------------------------
    # Flushing.
    # ------------------------------------------------------------------
    def _flush_steps(self) -> None:
        if not self._steps[0]:
            return
        self._spool._write_chunk(self.rank, "steps", self._step_chunk,
                                 np.array(self._steps, dtype=np.float64).T)
        self._step_chunk += 1
        self._steps = [[] for _ in STEP_COLUMNS]

    def _flush_draws(self) -> None:
        if not self._draws[0]:
            return
        self._spool._write_chunk(self.rank, "draws", self._draw_chunk,
                                 np.array(self._draws, dtype=np.float64).T)
        self._draw_chunk += 1
        self._draws = [[] for _ in DRAW_COLUMNS]

    def close(self) -> None:
        """Flush partial chunks and append the worker registry members."""
        self._flush_steps()
        self._flush_draws()
        self._spool._write_workers(self.rank, self._worker_ids,
                                   self._worker_gpus, self._worker_regions)

    def describe(self) -> Dict[str, object]:
        """Metadata entry for the artifact's ``meta`` document."""
        return {
            "rank": self.rank,
            "name": self.name,
            "model": self.model_name,
            "gflops": self.gflops,
            "workers": len(self._worker_ids),
        }


class TelemetrySpool:
    """A fleet's (or one shard's) per-job telemetry buffers and part file.

    The spool holds its part file open from construction until it is
    closed, so use it as a context manager: leaving the block normally
    seals the part, while leaving it through an exception closes the
    file unsealed, which :func:`write_npz` then refuses.

    Args:
        config: Spool directory and chunk size.
        part: Part number, unique per process writing into the directory
            (the shard index, 0 for a single-process run).  Opening a
            spool truncates its part.
    """

    def __init__(self, config: TelemetryConfig, part: int = 0):
        if config.chunk_rows <= 0:
            raise DataError("telemetry chunk_rows must be positive")
        if part < 0:
            raise DataError("telemetry spool part must be >= 0")
        if not os.path.isdir(config.spool_dir):
            raise DataError(
                f"telemetry spool directory does not exist: {config.spool_dir}")
        self.config = config
        self.chunk_rows = int(config.chunk_rows)
        self._jobs: List[JobTelemetry] = []
        self._file = open(
            os.path.join(config.spool_dir, f"part{part:04d}"), "wb")
        self._index: List[Tuple[str, int, int]] = []
        self._offset = 0

    def job(self, rank: int, name: str, model_name: str,
            gflops: float) -> JobTelemetry:
        """Open the telemetry handle for one job (by global rank)."""
        handle = JobTelemetry(self, rank, name, model_name, gflops)
        self._jobs.append(handle)
        return handle

    @property
    def jobs(self) -> Sequence[JobTelemetry]:
        return tuple(self._jobs)

    def _append(self, key: str, array: np.ndarray) -> None:
        payload = _npy_bytes(array)
        self._file.write(payload)
        self._index.append((key, self._offset, len(payload)))
        self._offset += len(payload)

    def _write_chunk(self, rank: int, kind: str, chunk: int,
                     matrix: np.ndarray) -> None:
        self._append(f"job{rank:06d}__{kind}__{chunk:06d}.npy", matrix)

    def _write_workers(self, rank: int, ids: List[str], gpus: List[str],
                       regions: List[str]) -> None:
        base = f"job{rank:06d}__workers"
        self._append(base + "__ids.npy", np.array(ids, dtype=np.str_))
        self._append(base + "__gpus.npy", np.array(gpus, dtype=np.str_))
        self._append(base + "__regions.npy",
                     np.array(regions, dtype=np.str_))

    def close(self) -> None:
        """Flush every job's buffers and seal the part file; idempotent."""
        if self._file.closed:
            return
        try:
            for handle in self._jobs:
                handle.close()
            self._file.write(json.dumps(self._index).encode())
            self._file.write(_PART_FOOTER.pack(self._offset, _PART_MAGIC))
        finally:
            self._file.close()

    def __enter__(self) -> "TelemetrySpool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._file.close()  # unsealed: write_npz refuses this part


def write_npz(spool_dir: str, out_path: str, meta: Dict[str, object]) -> int:
    """Pack a spool directory's sealed parts into one ``.npz`` artifact.

    Members are added in sorted-key order with pinned zip metadata (DOS
    epoch timestamps, mode 0600, ``ZIP_STORED``), one member held in
    memory at a time, so equal spool contents produce byte-equal
    artifacts no matter which process wrote which chunk.  A ``meta``
    member (canonical-JSON, stored as a 0-d unicode array) leads the
    archive.

    Every part is checked before anything is written: a part with no
    valid footer (never closed), an index entry that points past the
    part's data, a short read and a member key present twice each raise
    :class:`~repro.errors.DataError` naming the part.

    The write is atomic: bytes stream into a ``.tmp`` sibling that is
    ``os.replace``-d over ``out_path`` only after the zip closes cleanly,
    so a process killed mid-export leaves either the previous artifact or
    nothing — never a truncated archive for ``TelemetryReader`` to choke
    on.

    Returns:
        The number of members packed (excluding ``meta``).
    """
    document = dict(meta)
    document["format_version"] = TELEMETRY_FORMAT_VERSION
    meta_json = json.dumps(document, sort_keys=True, separators=(",", ":"))
    plan = chaos.active_plan()
    monitor = plan.monitor("npz_truncate") if plan is not None else None
    tmp_path = f"{out_path}.tmp"
    with contextlib.ExitStack() as parts:
        owners: Dict[str, str] = {}
        members = []
        for name in sorted(os.listdir(spool_dir)):
            if not _PART_NAME.fullmatch(name):
                continue
            path = os.path.join(spool_dir, name)
            handle = parts.enter_context(open(path, "rb"))
            for key, offset, length in _read_index(path, handle):
                if key in owners:
                    raise DataError(
                        f"telemetry spool member {key!r} appears in both "
                        f"{owners[key]} and {path}")
                owners[key] = path
                members.append((key, path, handle, offset, length))
        members.sort(key=lambda member: member[0])
        try:
            with open(tmp_path, "wb") as out:
                with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as archive:
                    _add_member(archive, "meta.npy",
                                _npy_bytes(np.array(meta_json, dtype=np.str_)))
                    for key, path, handle, offset, length in members:
                        if monitor:
                            fault = monitor.tick()
                            if fault is not None:
                                chaos.log_event("injected_npz_truncate",
                                                fault=fault.to_entry(),
                                                member=key, out_path=out_path)
                                raise DataError(
                                    f"chaos: telemetry export truncated "
                                    f"before member {key!r}")
                        handle.seek(offset)
                        payload = handle.read(length)
                        if len(payload) != length:
                            raise DataError(
                                f"short read of telemetry spool member "
                                f"{key!r} from {path}: {len(payload)} of "
                                f"{length} bytes")
                        arcname = key[:-4].replace("__", "/") + ".npy"
                        _add_member(archive, arcname, payload)
                out.flush()
                os.fsync(out.fileno())
        except BaseException:
            # The artifact path must never hold partial bytes; the tmp
            # sibling is ours to discard.
            try:
                os.remove(tmp_path)
            except OSError:
                pass
            raise
    os.replace(tmp_path, out_path)
    return len(members)


def _read_index(path: str, handle: BinaryIO) -> List[Tuple[str, int, int]]:
    """The ``(key, offset, length)`` index of one sealed part file."""
    data_end = os.fstat(handle.fileno()).st_size - _PART_FOOTER.size
    index_offset, magic = 0, b""
    if data_end >= 0:
        handle.seek(data_end)
        index_offset, magic = _PART_FOOTER.unpack(
            handle.read(_PART_FOOTER.size))
    if magic != _PART_MAGIC or index_offset > data_end:
        raise DataError(f"telemetry spool part {path} has no valid footer; "
                        f"its spool was never closed")
    handle.seek(index_offset)
    try:
        index = [(key, offset, length) for key, offset, length
                 in json.loads(handle.read(data_end - index_offset))]
    except (ValueError, TypeError) as exc:
        raise DataError(
            f"telemetry spool part {path} has a malformed index: {exc}") from exc
    for key, offset, length in index:
        if not (isinstance(key, str) and key.endswith(".npy")
                and type(offset) is int and type(length) is int
                and offset >= 0 and length >= 0):
            raise DataError(f"telemetry spool part {path} has a malformed "
                            f"index entry {[key, offset, length]!r}")
        if offset + length > index_offset:
            raise DataError(
                f"telemetry spool part {path}: member {key!r} ends at byte "
                f"{offset + length}, past the end of the part's data "
                f"({index_offset} bytes)")
    return index


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.save(buffer, array)
    return buffer.getvalue()


def _add_member(archive: zipfile.ZipFile, arcname: str, payload: bytes) -> None:
    info = zipfile.ZipInfo(arcname, date_time=(1980, 1, 1, 0, 0, 0))
    info.create_system = 3
    info.external_attr = 0o600 << 16
    archive.writestr(info, payload)
