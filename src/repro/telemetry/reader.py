"""Read a telemetry ``.npz`` artifact back into per-job column arrays.

Entries load lazily — :class:`numpy.lib.npyio.NpzFile` only decodes a
member when indexed — so reading a huge artifact's draw rows never
materializes its step chunks.

Streaming consumers should iterate :meth:`TelemetryReader.step_chunks` /
:meth:`TelemetryReader.draw_chunks`, which decode and yield one
fixed-size chunk at a time; the ``step_rows`` / ``draw_rows``
conveniences concatenate a whole job and are only appropriate for
small fleets or single-job inspection.

Because members decode lazily, corruption surfaces when a member is read,
not when the artifact is opened: every member read goes through
:meth:`TelemetryReader._member`, which turns a failed CRC check, a
truncated stream or a mangled array header into a
:class:`~repro.errors.DataError` naming the member and the artifact.
"""

from __future__ import annotations

import json
import zipfile
import zlib
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import DataError
from repro.telemetry.writer import (DRAW_COLUMNS, STEP_COLUMNS,
                                    TELEMETRY_FORMAT_VERSION)


class TelemetryReader:
    """Lazy, column-oriented view of one telemetry artifact."""

    def __init__(self, path: str):
        self.path = path
        try:
            self._npz = np.load(path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise DataError(
                f"cannot open telemetry artifact {path}: {exc}") from exc
        try:
            if "meta" not in self._npz.files:
                raise DataError(
                    f"not a telemetry artifact (no meta entry): {path}")
            try:
                self.meta: Dict[str, object] = json.loads(
                    str(self._member("meta")[()]))
            except ValueError as exc:
                raise DataError(
                    f"malformed meta entry in telemetry artifact {path}: "
                    f"{exc}") from exc
            version = self.meta.get("format_version")
            if version != TELEMETRY_FORMAT_VERSION:
                raise DataError(
                    f"unsupported telemetry format version {version!r} in {path}; "
                    f"this reader understands {TELEMETRY_FORMAT_VERSION}")
            self._job_meta: Dict[int, Dict[str, object]] = {
                int(entry["rank"]): entry
                for entry in self.meta.get("jobs", [])}
            self._members: Dict[int, Dict[str, List[str]]] = {}
            for name in self._npz.files:
                if name == "meta":
                    continue
                parts = name.split("/")
                if len(parts) != 3 or not parts[0].startswith("job"):
                    continue
                try:
                    rank = int(parts[0][3:])
                except ValueError as exc:
                    raise DataError(f"malformed telemetry member name "
                                    f"{name!r} in {path}") from exc
                self._members.setdefault(rank, {}).setdefault(
                    parts[1], []).append(name)
        except BaseException:
            # A rejected artifact must not leak the open zip handle.
            self._npz.close()
            raise
        for kinds in self._members.values():
            for names in kinds.values():
                names.sort()

    # ------------------------------------------------------------------
    def _member(self, name: str) -> np.ndarray:
        """Decode one member; a corrupted one raises :class:`DataError`."""
        try:
            return self._npz[name]
        except (zipfile.BadZipFile, zlib.error, OSError, EOFError,
                ValueError, NotImplementedError) as exc:
            raise DataError(
                f"corrupted telemetry member {name!r} in {self.path}: "
                f"{exc or type(exc).__name__}") from exc

    @property
    def ranks(self) -> List[int]:
        """Global job ranks present in the artifact, ascending."""
        return sorted(self._members)

    def job_meta(self, rank: int) -> Dict[str, object]:
        """The ``meta`` document's entry for one job.

        O(1): the ``meta["jobs"]`` list is indexed by rank once at open
        time, so iterating a fleet stays linear in the job count.
        """
        entry = self._job_meta.get(rank)
        if entry is None:
            raise DataError(f"job rank {rank} not present in telemetry meta")
        return entry

    # ------------------------------------------------------------------
    def workers(self, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One job's worker registry: ``(ids, gpus, regions)`` arrays."""
        names = self._members.get(rank, {}).get("workers")
        if not names:
            raise DataError(f"no worker registry for job rank {rank}")
        by_field = {name.rsplit("/", 1)[1]: name for name in names}
        try:
            members = [by_field[field] for field in ("ids", "gpus", "regions")]
        except KeyError as exc:
            raise DataError(f"worker registry of job rank {rank} has no "
                            f"{exc.args[0]!r} member in {self.path}") from exc
        return tuple(self._member(name) for name in members)

    def step_chunks(self, rank: int) -> Iterator[np.ndarray]:
        """Yield one job's ``(n, 6)`` step-row chunks in write order."""
        for name in self._members.get(rank, {}).get("steps", []):
            chunk = self._member(name)
            if chunk.ndim != 2 or chunk.shape[1] != len(STEP_COLUMNS):
                raise DataError(f"malformed step chunk {name} in {self.path}")
            yield chunk

    def step_rows(self, rank: int) -> np.ndarray:
        """One job's step rows concatenated into a single ``(n, 6)`` array."""
        chunks = list(self.step_chunks(rank))
        if not chunks:
            return np.empty((0, len(STEP_COLUMNS)), dtype=np.float64)
        return np.concatenate(chunks, axis=0)

    def draw_chunks(self, rank: int) -> Iterator[np.ndarray]:
        """Yield one job's ``(n, 5)`` draw-row chunks in write order."""
        for name in self._members.get(rank, {}).get("draws", []):
            chunk = self._member(name)
            if chunk.ndim != 2 or chunk.shape[1] != len(DRAW_COLUMNS):
                raise DataError(f"malformed draw chunk {name} in {self.path}")
            yield chunk

    def draw_rows(self, rank: int) -> np.ndarray:
        """One job's revocation-draw rows as a single ``(n, 5)`` array."""
        chunks = list(self.draw_chunks(rank))
        if not chunks:
            return np.empty((0, len(DRAW_COLUMNS)), dtype=np.float64)
        return np.concatenate(chunks, axis=0)

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._npz.close()

    def __enter__(self) -> "TelemetryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
