"""Read a telemetry ``.npz`` artifact back into per-job column arrays.

Opening an artifact walks the zip central directory once (through
:mod:`zipfile`, which keeps its own validation) and indexes every member
by its local-header offset, the offset of the next entry, its size and
its CRC-32.  Members are decoded lazily: each read is one positioned
read of that member's bytes, so reading a huge artifact's draw rows
never touches its step chunks.

Streaming consumers should iterate :meth:`TelemetryReader.step_chunks` /
:meth:`TelemetryReader.draw_chunks`, which decode and yield one
fixed-size chunk at a time; the ``step_rows`` / ``draw_rows``
conveniences concatenate a whole job and are only appropriate for
small fleets or single-job inspection.

Checks at open raise :class:`~repro.errors.DataError` for an unreadable
zip, a compressed or encrypted member (the writer stores every member
uncompressed), a member with a comment (the writer writes none), a
duplicate member name, a member name outside the writer's grammar
(``meta``, ``job<rank>/{steps,draws}/<chunk>``,
``job<rank>/workers/{ids,gpus,regions}``), a missing or malformed
``meta`` member and an unknown format version.

Checks on read: every member read goes through
:meth:`TelemetryReader._member`, which verifies the local file header
(signature and name) and that the member ends before the next entry
begins (before sizing a buffer from the directory's size field), then
the CRC-32 of the member's bytes before parsing anything, then the npy
header and that the payload holds exactly the array the header declares.
A failure raises a ``DataError`` naming the member and the artifact.
"""

from __future__ import annotations

import json
import math
import re
import struct
import tokenize
import zipfile
import zlib
from io import BytesIO
from typing import Dict, Iterator, List, Tuple

import numpy as np
from numpy.lib import format as npy_format

from repro.errors import DataError
from repro.telemetry.writer import (DRAW_COLUMNS, STEP_COLUMNS,
                                    TELEMETRY_FORMAT_VERSION)

#: Member names the writer produces (ASCII digits only, at least six).
_MEMBER_NAME = re.compile(
    r"job(\d{6,})/(?:(steps|draws)/(\d{6,})|workers/(ids|gpus|regions))",
    re.ASCII)

#: A zip local file header: signature, 22 bytes this reader does not
#: need, then the file name and extra field lengths.
_LOCAL_HEADER = struct.Struct("<4s22xHH")

#: npy header parsers by format version; the header length field follows
#: the 8-byte magic + version prefix.
_NPY_HEADERS = {(1, 0): (npy_format.read_array_header_1_0, struct.Struct("<H")),
                (2, 0): (npy_format.read_array_header_2_0, struct.Struct("<I"))}


class TelemetryReader:
    """Lazy, column-oriented view of one telemetry artifact.

    Member reads move the position of one open file, so a reader serves
    one thread at a time; open one reader per thread instead of sharing.
    """

    def __init__(self, path: str):
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise DataError(
                f"cannot open telemetry artifact {path}: {exc}") from exc
        try:
            self._index = self._build_index()
            if "meta" not in self._index:
                raise DataError(
                    f"not a telemetry artifact (no meta entry): {path}")
            self._members = self._group_members()
            # Parsed npy headers by their bytes: an artifact repeats a
            # handful of headers across all its chunks.
            self._headers: Dict[bytes, Tuple[tuple, bool, np.dtype]] = {}
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
        except BaseException:
            # A rejected artifact must not leak the open file handle.
            self._file.close()
            raise

    def _build_index(self) -> Dict[str, Tuple[bytes, int, int, int, int]]:
        """Member name -> ``(archive name, header offset, end, size, CRC-32)``.

        Names drop the ``.npy`` suffix, as :class:`numpy.lib.npyio.NpzFile`
        keys do.  ``end`` is the offset the member's bytes must not run
        past: the next local header, or the central directory for the
        last member.
        """
        try:
            with zipfile.ZipFile(self._file) as archive:
                infos = archive.infolist()
                end = archive.start_dir
        except (zipfile.BadZipFile, OSError, ValueError,
                NotImplementedError) as exc:
            raise DataError(
                f"cannot open telemetry artifact {self.path}: {exc}") from exc
        index: Dict[str, Tuple[bytes, int, int, int, int]] = {}
        for info in sorted(infos, key=lambda info: info.header_offset,
                           reverse=True):
            arcname = info.orig_filename
            name = arcname[:-4] if arcname.endswith(".npy") else arcname
            if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 0x1:
                raise DataError(
                    f"telemetry member {name!r} in {self.path} is compressed "
                    f"or encrypted; the writer stores members uncompressed")
            if info.comment:
                # A corrupted comment length swallows the directory
                # entries after this one.
                raise DataError(f"telemetry member {name!r} in {self.path} "
                                f"carries a comment; the writer writes none")
            if name in index:
                raise DataError(f"duplicate telemetry member {name!r} in "
                                f"{self.path}")
            index[name] = (arcname.encode("utf-8"), info.header_offset, end,
                           info.compress_size, info.CRC)
            end = info.header_offset
        return index

    def _group_members(self) -> Dict[int, Dict[str, List[str]]]:
        """Rank -> ``steps`` / ``draws`` / ``workers`` -> member names.

        Chunks are listed in write order; any member name outside the
        writer's grammar rejects the artifact.
        """
        keyed: Dict[int, Dict[str, List[Tuple[int, str]]]] = {}
        for name, (arcname, *_location) in self._index.items():
            if arcname == b"meta.npy":
                continue
            match = (_MEMBER_NAME.fullmatch(name)
                     if arcname.endswith(b".npy") else None)
            if match is None:
                raise DataError(f"unexpected telemetry member "
                                f"{arcname.decode('utf-8')!r} in {self.path}")
            rank, kind, chunk, _field = match.groups()
            keyed.setdefault(int(rank), {}).setdefault(
                kind or "workers", []).append((int(chunk or 0), name))
        return {rank: {kind: [name for _, name in sorted(entries)]
                       for kind, entries in kinds.items()}
                for rank, kinds in keyed.items()}

    # ------------------------------------------------------------------
    def _member(self, name: str) -> np.ndarray:
        """Decode one member; a corrupted one raises :class:`DataError`."""
        try:
            return self._decode(name)
        except (zipfile.BadZipFile, OSError, ValueError) as exc:
            raise DataError(
                f"corrupted telemetry member {name!r} in {self.path}: "
                f"{exc or type(exc).__name__}") from exc

    def _decode(self, name: str) -> np.ndarray:
        """Read one member's bytes, check them, and parse the array."""
        arcname, offset, end, size, crc = self._index[name]
        handle = self._file
        handle.seek(offset)
        local = handle.read(_LOCAL_HEADER.size + len(arcname))
        if len(local) != _LOCAL_HEADER.size + len(arcname):
            raise zipfile.BadZipFile("truncated local file header")
        signature, name_length, extra_length = _LOCAL_HEADER.unpack_from(local)
        if signature != zipfile.stringFileHeader:
            raise zipfile.BadZipFile("bad magic number for file header")
        if (name_length != len(arcname)
                or local[_LOCAL_HEADER.size:] != arcname):
            raise zipfile.BadZipFile(
                "file name in directory and local header differ")
        start = offset + len(local) + extra_length
        if start + size > end:
            # Checked before the buffer is sized from the directory.
            raise zipfile.BadZipFile(
                f"member of {size} bytes overlaps the next entry at {end}")
        handle.seek(start)
        data = bytearray(size)
        if handle.readinto(data) != size:
            raise zipfile.BadZipFile("truncated member data")
        if zlib.crc32(data) != crc:
            raise zipfile.BadZipFile("bad CRC-32")
        return self._array(data)

    def _array(self, data: bytearray) -> np.ndarray:
        """The array of one CRC-checked npy member, backed by ``data``."""
        prefix = bytes(data[:npy_format.MAGIC_LEN])
        version = tuple(prefix[-2:])
        if prefix[:-2] != npy_format.MAGIC_PREFIX or version not in _NPY_HEADERS:
            raise ValueError(f"not an npy 1.0 or 2.0 member (starts {prefix!r})")
        parse, length = _NPY_HEADERS[version]
        start = npy_format.MAGIC_LEN + length.size
        if len(data) < start:
            raise ValueError("truncated npy header")
        end = start + length.unpack_from(data, npy_format.MAGIC_LEN)[0]
        header = bytes(data[:end])
        parsed = self._headers.get(header)
        if parsed is None:
            stream = BytesIO(header)
            stream.seek(npy_format.MAGIC_LEN)
            try:
                parsed = parse(stream)
            except (SyntaxError, tokenize.TokenError, IndexError) as exc:
                # The header is a Python literal; numpy lets these escape
                # from some malformed ones.
                raise ValueError(f"cannot parse npy header: {exc!r}") from exc
            self._headers[header] = parsed
        shape, fortran_order, dtype = parsed
        count = math.prod(shape)
        if len(data) - end != count * dtype.itemsize:
            raise ValueError(
                f"npy payload holds {len(data) - end} bytes; header "
                f"declares {count} x {dtype.itemsize}")
        array = np.frombuffer(data, dtype=dtype, count=count, offset=end)
        if fortran_order:
            return array.reshape(shape[::-1]).T
        return array.reshape(shape)

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
    def has_workers(self, rank: int) -> bool:
        """Whether the artifact holds any worker-registry member for a job."""
        return bool(self._members.get(rank, {}).get("workers"))

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
        self._file.close()

    def __enter__(self) -> "TelemetryReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
