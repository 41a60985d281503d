"""Cell-by-cell comparison of two telemetry artifacts.

``repro-telemetry diff`` answers "did these two fleets record the same
telemetry, and if not, where do they disagree?" without materializing
either artifact: per-job step and draw tables are re-blocked into
aligned bounded slices (so two artifacts written with different
``chunk_rows`` still compare row by row), and each common job reports
its row-count deltas plus a per-column maximum absolute delta.  NaN
cells (draws that survived record NaN lifetimes) compare equal to NaN.

``exact=True`` additionally streams both files and asserts *byte*
identity — the sharded-export contract's oracle: two runs of the same
scenario, seed, and replicate must produce byte-equal artifacts no
matter how they were executed, so a self-diff exits clean and any
reseeded run does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.telemetry.reader import TelemetryReader
from repro.telemetry.writer import DRAW_COLUMNS, STEP_COLUMNS

#: Bytes per block when streaming the exact (byte-identity) comparison.
_BYTE_BLOCK = 1 << 20


@dataclass
class TableDiff:
    """One job's comparison for a single table kind (steps or draws)."""

    rows_a: int = 0
    rows_b: int = 0
    #: Per-column max |a - b| over the common row prefix; NaN == NaN.
    max_abs_delta: Dict[str, float] = field(default_factory=dict)

    @property
    def identical(self) -> bool:
        return (self.rows_a == self.rows_b
                and all(value == 0.0 for value in self.max_abs_delta.values()))

    def to_document(self) -> Dict[str, Any]:
        return {"rows_a": self.rows_a, "rows_b": self.rows_b,
                "max_abs_delta": dict(self.max_abs_delta),
                "identical": self.identical}


@dataclass
class JobDiff:
    """Comparison of one job present in both artifacts."""

    rank: int
    steps: TableDiff = field(default_factory=TableDiff)
    draws: TableDiff = field(default_factory=TableDiff)
    workers_equal: bool = True

    @property
    def identical(self) -> bool:
        return (self.steps.identical and self.draws.identical
                and self.workers_equal)

    def to_document(self) -> Dict[str, Any]:
        return {"rank": self.rank, "steps": self.steps.to_document(),
                "draws": self.draws.to_document(),
                "workers_equal": self.workers_equal,
                "identical": self.identical}


@dataclass
class TelemetryDiff:
    """The full comparison of two artifacts."""

    path_a: str
    path_b: str
    added_jobs: List[int] = field(default_factory=list)
    removed_jobs: List[int] = field(default_factory=list)
    jobs: List[JobDiff] = field(default_factory=list)
    meta_equal: bool = True
    #: Only set when the diff ran in ``exact`` mode.
    byte_identical: Optional[bool] = None

    @property
    def identical(self) -> bool:
        """Cell-level identity (and byte identity when it was checked)."""
        cells = (not self.added_jobs and not self.removed_jobs
                 and self.meta_equal
                 and all(job.identical for job in self.jobs))
        if self.byte_identical is not None:
            return cells and self.byte_identical
        return cells

    def to_document(self) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "artifact_a": self.path_a,
            "artifact_b": self.path_b,
            "added_jobs": list(self.added_jobs),
            "removed_jobs": list(self.removed_jobs),
            "meta_equal": self.meta_equal,
            "jobs": [job.to_document() for job in self.jobs
                     if not job.identical],
            "jobs_compared": len(self.jobs),
            "identical": self.identical,
        }
        if self.byte_identical is not None:
            document["byte_identical"] = self.byte_identical
        return document

    def summary(self) -> str:
        """Human-readable one-screen summary."""
        lines = [f"diff {self.path_a} vs {self.path_b}"]
        if self.added_jobs:
            lines.append(f"  jobs only in B: {self.added_jobs}")
        if self.removed_jobs:
            lines.append(f"  jobs only in A: {self.removed_jobs}")
        if not self.meta_equal:
            lines.append("  meta documents differ")
        differing = [job for job in self.jobs if not job.identical]
        for job in differing:
            parts = []
            for kind, table in (("steps", job.steps), ("draws", job.draws)):
                if table.rows_a != table.rows_b:
                    parts.append(f"{kind} rows {table.rows_a} vs "
                                 f"{table.rows_b}")
                worst = {column: delta
                         for column, delta in table.max_abs_delta.items()
                         if delta != 0.0}
                if worst:
                    column, delta = max(worst.items(), key=lambda kv: kv[1])
                    parts.append(f"{kind} max|delta| {delta:.6g} ({column})")
            if not job.workers_equal:
                parts.append("worker registries differ")
            lines.append(f"  job {job.rank}: " + "; ".join(parts))
        if self.byte_identical is not None:
            lines.append(f"  byte identical: {self.byte_identical}")
        lines.append("  identical" if self.identical
                     else f"  {len(differing)} of {len(self.jobs)} "
                          "compared jobs differ")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Aligned streaming comparison.
# ---------------------------------------------------------------------------
def _aligned_blocks(chunks_a: Iterator[np.ndarray],
                    chunks_b: Iterator[np.ndarray]
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield equal-length row blocks from two chunk streams.

    The two artifacts may have been written with different ``chunk_rows``;
    this re-blocks both streams at their chunk-boundary intersections so
    memory stays bounded by one chunk of each.
    """
    buffer_a = buffer_b = None
    while True:
        if buffer_a is None or not len(buffer_a):
            buffer_a = next(chunks_a, None)
            if buffer_a is None:
                break
            continue
        if buffer_b is None or not len(buffer_b):
            buffer_b = next(chunks_b, None)
            if buffer_b is None:
                break
            continue
        take = min(len(buffer_a), len(buffer_b))
        yield buffer_a[:take], buffer_b[:take]
        buffer_a = buffer_a[take:]
        buffer_b = buffer_b[take:]


def _diff_tables(chunks_a: Iterator[np.ndarray],
                 chunks_b: Iterator[np.ndarray],
                 columns: Tuple[str, ...]) -> TableDiff:
    diff = TableDiff(max_abs_delta={column: 0.0 for column in columns})
    counted_a: List[int] = [0]
    counted_b: List[int] = [0]

    def count_stream(chunks, tally):
        for chunk in chunks:
            tally[0] += len(chunk)
            yield chunk

    stream_a = count_stream(chunks_a, counted_a)
    stream_b = count_stream(chunks_b, counted_b)
    for block_a, block_b in _aligned_blocks(stream_a, stream_b):
        delta = np.abs(block_a - block_b)
        # NaN in both cells means "same missing value": delta 0.  NaN in
        # exactly one cell is a real difference: delta inf.
        nan_a = np.isnan(block_a)
        nan_b = np.isnan(block_b)
        delta[nan_a & nan_b] = 0.0
        delta[nan_a ^ nan_b] = np.inf
        worst = delta.max(axis=0)
        for index, column in enumerate(columns):
            if worst[index] > diff.max_abs_delta[column]:
                diff.max_abs_delta[column] = float(worst[index])
    # Drain whatever one stream still holds so row counts are complete.
    for _ in stream_a:
        pass
    for _ in stream_b:
        pass
    diff.rows_a = counted_a[0]
    diff.rows_b = counted_b[0]
    return diff


def _bytes_equal(path_a: str, path_b: str) -> bool:
    """Stream both files in bounded blocks and compare bytes."""
    with open(path_a, "rb") as handle_a, open(path_b, "rb") as handle_b:
        while True:
            block_a = handle_a.read(_BYTE_BLOCK)
            block_b = handle_b.read(_BYTE_BLOCK)
            if block_a != block_b:
                return False
            if not block_a:
                return True


def diff_artifacts(path_a: str, path_b: str, *,
                   exact: bool = False) -> TelemetryDiff:
    """Compare two telemetry artifacts cell by cell.

    Args:
        path_a: Reference artifact.
        path_b: Candidate artifact.
        exact: Also stream-compare the raw files and record
            ``byte_identical`` (the sharded-export oracle); cell-level
            comparison still runs so a failed exact diff says *where*
            the artifacts disagree.

    Returns:
        A :class:`TelemetryDiff`; ``diff.identical`` is the CLI's exit
        criterion.
    """
    result = TelemetryDiff(path_a=path_a, path_b=path_b)
    with TelemetryReader(path_a) as reader_a, \
            TelemetryReader(path_b) as reader_b:
        ranks_a = set(reader_a.ranks)
        ranks_b = set(reader_b.ranks)
        result.removed_jobs = sorted(ranks_a - ranks_b)
        result.added_jobs = sorted(ranks_b - ranks_a)
        result.meta_equal = reader_a.meta == reader_b.meta
        for rank in sorted(ranks_a & ranks_b):
            job = JobDiff(rank=rank)
            job.steps = _diff_tables(reader_a.step_chunks(rank),
                                     reader_b.step_chunks(rank),
                                     STEP_COLUMNS)
            job.draws = _diff_tables(reader_a.draw_chunks(rank),
                                     reader_b.draw_chunks(rank),
                                     DRAW_COLUMNS)
            # A job missing its registry members in either artifact
            # compares unequal; a corrupted registry raises.
            job.workers_equal = (
                reader_a.has_workers(rank) and reader_b.has_workers(rank)
                and all(len(column_a) == len(column_b)
                        and bool((column_a == column_b).all())
                        for column_a, column_b in zip(reader_a.workers(rank),
                                                      reader_b.workers(rank))))
            result.jobs.append(job)
    if exact:
        result.byte_identical = _bytes_equal(path_a, path_b)
    return result
