"""Training traces: the raw measurement data a session produces.

The CM-DARE performance tracker consumes these traces to compute the
quantities the paper reports: cluster training speed averaged over 100-step
windows (with the first 100 steps discarded), per-worker average step
times, checkpoint durations, and revocation/replacement events.

Step records — by far the highest-volume stream, one row per simulated
chunk — are stored *columnar* (structure of arrays) in
:class:`StepRecordArray` instead of as a list of frozen dataclasses.  The
sequence still looks like a list of :class:`StepRecord` objects (``append``,
indexing, iteration), but each row costs six scalar slots in growable numpy
buffers rather than a Python object, and the trace statistics
(:meth:`TrainingTrace.cluster_speed`, :meth:`TrainingTrace.speed_series`,
:meth:`TrainingTrace.worker_step_times`) operate directly on the columns.
The array implementations reproduce the original record-by-record loops
bit for bit — same ordering, same floating-point expressions — which the
regression tests in ``tests/test_trace_columns.py`` pin down.

Memory is bounded two ways.  The growable buffers double geometrically only
up to :data:`GROWTH_CAP_ROWS` rows and then grow linearly by that cap, so a
long session never over-allocates more than one cap's worth of slack, and
:meth:`StepRecordArray.shrink_to_fit` (called by the training session when
the workload finishes) trims the slack entirely.  For fleet-scale runs that
only need end-of-run aggregates, :class:`StepRecordSummary` is a drop-in
*sink* with the same ``append``/``append_row``/``extend_rows`` surface that
keeps O(1) running aggregates (row/step totals, time bounds, per-worker
step counts) and stores no rows at all — the ``trace_level="summary"``
mode of :class:`~repro.training.session.TrainingSession`.

The write/read surface those two containers share is formalized by the
:class:`TraceSink` protocol: anything implementing it can be handed to
:class:`~repro.training.session.TrainingSession` via ``step_sink=`` and
will receive every chunk row the session produces.  :class:`TeeSink`
composes sinks — it forwards every write to all of its members and answers
reads from the first (*primary*) one, which is how the fleet telemetry
exporter (:mod:`repro.telemetry`) observes rows without perturbing the
trace the payload is computed from.  :func:`make_step_sink` builds the
built-in sink for a ``trace_level``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import DataError

#: Number of initial steps discarded from speed statistics, matching the
#: paper's methodology ("we discarded the measurements associated with the
#: first 100 steps").
DEFAULT_WARMUP_STEPS = 100

#: Window (in steps) over which training speed is averaged, matching the
#: paper's "we averaged the training speed every 100 steps".
DEFAULT_SPEED_WINDOW_STEPS = 100

#: Buffer growth switches from doubling to linear at this many rows, so the
#: worst-case over-allocation of a huge trace is one cap (~3 MB of columns)
#: instead of the trace's own size again.
GROWTH_CAP_ROWS = 1 << 16


@dataclass(frozen=True)
class StepRecord:
    """One completed chunk of training steps on one worker.

    Attributes:
        worker_id: Worker that completed the steps.
        start_time: Simulation time the chunk started.
        end_time: Simulation time the chunk finished.
        steps: Number of steps in the chunk.
        cluster_step: Cluster-wide cumulative step count after the chunk.
        worker_step: The worker's own cumulative step count after the chunk
            (used to discard each worker's individual warm-up steps).
    """

    worker_id: str
    start_time: float
    end_time: float
    steps: int
    cluster_step: int
    worker_step: int = 0

    @property
    def duration(self) -> float:
        """Chunk duration in seconds."""
        return self.end_time - self.start_time

    @property
    def step_time(self) -> float:
        """Average per-step time of the chunk, in seconds."""
        return self.duration / self.steps if self.steps else 0.0


class TraceSink:
    """The write/read surface every step-record sink implements.

    A *sink* receives the session's chunk rows as they are produced and
    answers the handful of aggregate reads the session, the fleet payload,
    and the trace statistics need.  The two built-in sinks are
    :class:`StepRecordArray` (``trace_level="full"`` — keeps every row,
    columnar) and :class:`StepRecordSummary` (``trace_level="summary"`` —
    O(1) running aggregates, no rows); :class:`TeeSink` fans writes out to
    several sinks at once.  Custom sinks (e.g. the fleet telemetry spool in
    :mod:`repro.telemetry.writer`) subclass this and are attached through
    :class:`~repro.training.session.TrainingSession`'s ``step_sink=``.

    Write surface: :meth:`append` / :meth:`append_row` (one row),
    :meth:`extend_rows` (bulk, parallel columns), :meth:`shrink_to_fit`
    (end-of-workload trim hint).  Read surface: ``len()``,
    :attr:`steps_total`, :attr:`max_end_time`, :attr:`nbytes`.
    """

    def append(self, record: "StepRecord") -> None:
        """Append one :class:`StepRecord` (list-compatible API)."""
        self.append_row(record.worker_id, record.start_time, record.end_time,
                        record.steps, record.cluster_step, record.worker_step)

    def append_row(self, worker_id: str, start_time: float, end_time: float,
                   steps: int, cluster_step: int, worker_step: int = 0) -> None:
        """Append one row from scalars, skipping StepRecord construction."""
        raise NotImplementedError

    def extend_rows(self, worker_ids: Sequence[str], start_times: Sequence[float],
                    end_times: Sequence[float], steps: Sequence[int],
                    cluster_steps: Sequence[int], worker_steps: Sequence[int]) -> None:
        """Bulk-append rows from parallel scalar sequences (fast-path sink)."""
        raise NotImplementedError

    def shrink_to_fit(self) -> None:
        """End-of-workload hint: release growth slack (no-op by default)."""

    def __len__(self) -> int:
        raise NotImplementedError

    @property
    def steps_total(self) -> int:
        """Sum of all appended step counts."""
        raise NotImplementedError

    @property
    def max_end_time(self) -> float:
        """Latest chunk end time seen, or 0.0 when nothing was appended."""
        raise NotImplementedError

    @property
    def nbytes(self) -> int:
        """Approximate memory held by the sink."""
        raise NotImplementedError


class StepRecordArray(TraceSink, Sequence):
    """Columnar (structure-of-arrays) storage of :class:`StepRecord` rows.

    Rows live in six growable numpy buffers (worker index, start time, end
    time, steps, cluster step, worker step); worker ids are interned into a
    small side table in first-appearance order.  The container quacks like
    the ``List[StepRecord]`` it replaces — ``append``, ``len``, indexing,
    iteration and equality all work on :class:`StepRecord` values — while
    bulk producers (the simulation fast-path) and the trace statistics go
    straight to the columns.

    Example:
        >>> records = StepRecordArray()
        >>> records.append(StepRecord("w0", 0.0, 1.0, 10, 10, 10))
        >>> records[0].worker_id
        'w0'
        >>> records.step_counts
        array([10])
    """

    _INITIAL_CAPACITY = 64

    def __init__(self, records: Iterable[StepRecord] = ()):
        self._names: List[str] = []
        self._name_index: Dict[str, int] = {}
        capacity = self._INITIAL_CAPACITY
        self._widx = np.empty(capacity, dtype=np.int64)
        self._start = np.empty(capacity, dtype=np.float64)
        self._end = np.empty(capacity, dtype=np.float64)
        self._steps = np.empty(capacity, dtype=np.int64)
        self._cluster = np.empty(capacity, dtype=np.int64)
        self._wstep = np.empty(capacity, dtype=np.int64)
        self._size = 0
        for record in records:
            self.append(record)

    # ------------------------------------------------------------------
    # Growth and interning.
    # ------------------------------------------------------------------
    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._widx)
        if needed <= capacity:
            return
        capacity = max(capacity, self._INITIAL_CAPACITY)
        while capacity < needed:
            if capacity < GROWTH_CAP_ROWS:
                capacity = min(capacity * 2, GROWTH_CAP_ROWS)
            else:
                capacity += GROWTH_CAP_ROWS
        self._resize(capacity)

    def _resize(self, capacity: int) -> None:
        for name in ("_widx", "_start", "_end", "_steps", "_cluster", "_wstep"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:self._size] = old[:self._size]
            setattr(self, name, grown)

    def shrink_to_fit(self) -> None:
        """Trim the column buffers to the live row count.

        Sessions call this when the workload finishes: a completed trace is
        read, not appended to, so the geometric growth slack (up to one
        :data:`GROWTH_CAP_ROWS` worth of rows) is returned to the allocator.
        Appending afterwards still works — the buffers simply regrow.
        """
        if len(self._widx) > self._size:
            self._resize(self._size)

    def _intern(self, worker_id: str) -> int:
        index = self._name_index.get(worker_id)
        if index is None:
            index = len(self._names)
            self._names.append(worker_id)
            self._name_index[worker_id] = index
        return index

    # ------------------------------------------------------------------
    # Mutation.
    # ------------------------------------------------------------------
    def append_row(self, worker_id: str, start_time: float, end_time: float,
                   steps: int, cluster_step: int, worker_step: int = 0) -> None:
        """Append one row from scalars, skipping StepRecord construction."""
        i = self._size
        if i >= len(self._widx):
            self._reserve(1)
        index = self._name_index.get(worker_id)
        if index is None:
            index = self._intern(worker_id)
        self._widx[i] = index
        self._start[i] = start_time
        self._end[i] = end_time
        self._steps[i] = steps
        self._cluster[i] = cluster_step
        self._wstep[i] = worker_step
        self._size = i + 1

    def extend_rows(self, worker_ids: Sequence[str], start_times: Sequence[float],
                    end_times: Sequence[float], steps: Sequence[int],
                    cluster_steps: Sequence[int], worker_steps: Sequence[int]) -> None:
        """Bulk-append rows from parallel scalar sequences (fast-path sink)."""
        n = len(worker_ids)
        if not (len(start_times) == len(end_times) == len(steps)
                == len(cluster_steps) == len(worker_steps) == n):
            raise DataError("extend_rows requires equally sized columns")
        if n == 0:
            return
        self._reserve(n)
        i = self._size
        index_of = self._name_index
        try:
            indices = [index_of[worker_id] for worker_id in worker_ids]
        except KeyError:
            # A worker's first rows: intern in first-appearance order.
            for worker_id in dict.fromkeys(worker_ids):
                self._intern(worker_id)
            indices = [index_of[worker_id] for worker_id in worker_ids]
        self._widx[i:i + n] = indices
        self._start[i:i + n] = start_times
        self._end[i:i + n] = end_times
        self._steps[i:i + n] = steps
        self._cluster[i:i + n] = cluster_steps
        self._wstep[i:i + n] = worker_steps
        self._size = i + n

    # ------------------------------------------------------------------
    # Sequence protocol.
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def _materialize(self, i: int) -> StepRecord:
        return StepRecord(worker_id=self._names[int(self._widx[i])],
                          start_time=float(self._start[i]),
                          end_time=float(self._end[i]),
                          steps=int(self._steps[i]),
                          cluster_step=int(self._cluster[i]),
                          worker_step=int(self._wstep[i]))

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self._materialize(i) for i in range(*index.indices(self._size))]
        i = index + self._size if index < 0 else index
        if not 0 <= i < self._size:
            raise IndexError("step record index out of range")
        return self._materialize(i)

    def __iter__(self) -> Iterator[StepRecord]:
        for i in range(self._size):
            yield self._materialize(i)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StepRecordArray):
            return (self._size == other._size
                    and [self._names[int(i)] for i in self.worker_indices]
                    == [other._names[int(i)] for i in other.worker_indices]
                    and np.array_equal(self.start_times, other.start_times)
                    and np.array_equal(self.end_times, other.end_times)
                    and np.array_equal(self.step_counts, other.step_counts)
                    and np.array_equal(self.cluster_step_counts, other.cluster_step_counts)
                    and np.array_equal(self.worker_step_counts, other.worker_step_counts))
        if isinstance(other, (list, tuple)):
            return len(other) == self._size and all(
                self._materialize(i) == other[i] for i in range(self._size))
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StepRecordArray({self._size} rows, "
                f"{len(self._names)} workers, {self.nbytes / 1024.0:.1f} KiB)")

    # ------------------------------------------------------------------
    # Column views (trimmed to the live size; treat as read-only).
    # ------------------------------------------------------------------
    @property
    def worker_indices(self) -> np.ndarray:
        """Interned worker index per row (see :meth:`worker_name`)."""
        return self._widx[:self._size]

    @property
    def start_times(self) -> np.ndarray:
        """Chunk start times (seconds)."""
        return self._start[:self._size]

    @property
    def end_times(self) -> np.ndarray:
        """Chunk end times (seconds)."""
        return self._end[:self._size]

    @property
    def step_counts(self) -> np.ndarray:
        """Steps per chunk (negative for session-restart corrections)."""
        return self._steps[:self._size]

    @property
    def cluster_step_counts(self) -> np.ndarray:
        """Cluster-wide cumulative step count after each chunk."""
        return self._cluster[:self._size]

    @property
    def worker_step_counts(self) -> np.ndarray:
        """Per-worker cumulative step count after each chunk."""
        return self._wstep[:self._size]

    @property
    def worker_names(self) -> Tuple[str, ...]:
        """Interned worker ids in first-appearance order."""
        return tuple(self._names)

    def worker_name(self, index: int) -> str:
        """Worker id for an interned index."""
        return self._names[index]

    def worker_index(self, worker_id: str) -> Optional[int]:
        """Interned index of ``worker_id``, or ``None`` if it never appears."""
        return self._name_index.get(worker_id)

    @property
    def nbytes(self) -> int:
        """Bytes held by the column buffers (capacity included)."""
        return (self._widx.nbytes + self._start.nbytes + self._end.nbytes
                + self._steps.nbytes + self._cluster.nbytes + self._wstep.nbytes)

    # ------------------------------------------------------------------
    # Aggregates shared with :class:`StepRecordSummary`.
    # ------------------------------------------------------------------
    @property
    def steps_total(self) -> int:
        """Sum of the steps column (negative restart corrections included)."""
        return int(self.step_counts.sum())

    @property
    def max_end_time(self) -> float:
        """Latest chunk end time, or 0.0 for an empty trace."""
        return float(self.end_times.max()) if self._size else 0.0


class StepRecordSummary(TraceSink):
    """Aggregates-only stand-in for :class:`StepRecordArray`.

    The ``trace_level="summary"`` sink: it accepts the same ``append`` /
    ``append_row`` / ``extend_rows`` calls the session and its fast-forward
    path make, maintains O(1) running aggregates — row count, step total,
    time bounds, per-worker step totals — and stores no per-step rows, so a
    500-job fleet's traces stay a few hundred bytes each.  Everything the
    fleet payload and the CM-DARE controller read (``len``, the trace's
    ``end_time``/``duration``, session counters) keeps working; the
    row-level statistics (``cluster_speed``, ``speed_series``,
    ``worker_step_times``) raise :class:`~repro.errors.DataError` because
    the rows they need were never kept.
    """

    def __init__(self):
        self._rows = 0
        self._steps_total = 0
        self._first_start = math.inf
        self._max_end = 0.0
        self._worker_steps: Dict[str, int] = {}

    # -- mutation (mirrors the StepRecordArray write surface) ----------
    def append_row(self, worker_id: str, start_time: float, end_time: float,
                   steps: int, cluster_step: int, worker_step: int = 0) -> None:
        del cluster_step
        self._rows += 1
        self._steps_total += steps
        if start_time < self._first_start:
            self._first_start = start_time
        if end_time > self._max_end:
            self._max_end = end_time
        if worker_step:
            self._worker_steps[worker_id] = worker_step

    def extend_rows(self, worker_ids: Sequence[str], start_times: Sequence[float],
                    end_times: Sequence[float], steps: Sequence[int],
                    cluster_steps: Sequence[int], worker_steps: Sequence[int]) -> None:
        n = len(worker_ids)
        if not (len(start_times) == len(end_times) == len(steps)
                == len(cluster_steps) == len(worker_steps) == n):
            raise DataError("extend_rows requires equally sized columns")
        if n == 0:
            return
        self._rows += n
        self._steps_total += int(sum(steps))
        first = min(start_times)
        if first < self._first_start:
            self._first_start = first
        last = max(end_times)
        if last > self._max_end:
            self._max_end = last
        for worker_id, worker_step in zip(worker_ids, worker_steps):
            if worker_step:
                self._worker_steps[worker_id] = worker_step

    # -- aggregates ----------------------------------------------------
    def __len__(self) -> int:
        return self._rows

    @property
    def steps_total(self) -> int:
        """Sum of all appended step counts."""
        return self._steps_total

    @property
    def max_end_time(self) -> float:
        """Latest chunk end time seen, or 0.0 when nothing was appended."""
        return self._max_end

    @property
    def first_start_time(self) -> float:
        """Earliest chunk start time seen (``inf`` when empty)."""
        return self._first_start

    @property
    def worker_names(self) -> Tuple[str, ...]:
        """Workers that reported a cumulative step count."""
        return tuple(self._worker_steps)

    def worker_steps_done(self, worker_id: str) -> int:
        """Last cumulative step count reported by one worker (0 if none)."""
        return self._worker_steps.get(worker_id, 0)

    def shrink_to_fit(self) -> None:
        """No-op: a summary holds no buffers to trim."""

    @property
    def nbytes(self) -> int:
        """Rough footprint; a summary keeps no row data."""
        return 64 * (1 + len(self._worker_steps))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"StepRecordSummary({self._rows} rows folded, "
                f"{self._steps_total} steps, {len(self._worker_steps)} workers)")


class TeeSink(TraceSink):
    """Fan one session's rows out to several sinks.

    Every write goes to every member sink, in construction order; reads
    (``len``, :attr:`steps_total`, :attr:`max_end_time`) are answered by
    the first sink — the *primary* — so wrapping a trace's normal sink in
    a tee is observationally transparent to everything that consumes the
    trace (the fleet payload contract).  :attr:`nbytes` sums the members,
    since the tee really does hold all of them.

    The trace statistics unwrap a tee to its primary
    (:meth:`TrainingTrace._step_columns`), so a full-trace session with a
    telemetry tee still answers row-level queries, and a summary primary
    still raises the usual :class:`~repro.errors.DataError`.
    """

    def __init__(self, primary: TraceSink, *secondaries: TraceSink):
        self.primary = primary
        self.sinks: Tuple[TraceSink, ...] = (primary,) + tuple(secondaries)

    def append_row(self, worker_id: str, start_time: float, end_time: float,
                   steps: int, cluster_step: int, worker_step: int = 0) -> None:
        for sink in self.sinks:
            sink.append_row(worker_id, start_time, end_time, steps,
                            cluster_step, worker_step)

    def extend_rows(self, worker_ids: Sequence[str], start_times: Sequence[float],
                    end_times: Sequence[float], steps: Sequence[int],
                    cluster_steps: Sequence[int], worker_steps: Sequence[int]) -> None:
        for sink in self.sinks:
            sink.extend_rows(worker_ids, start_times, end_times, steps,
                             cluster_steps, worker_steps)

    def shrink_to_fit(self) -> None:
        for sink in self.sinks:
            sink.shrink_to_fit()

    def __len__(self) -> int:
        return len(self.primary)

    @property
    def steps_total(self) -> int:
        return self.primary.steps_total

    @property
    def max_end_time(self) -> float:
        return self.primary.max_end_time

    @property
    def nbytes(self) -> int:
        return sum(sink.nbytes for sink in self.sinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TeeSink({', '.join(repr(sink) for sink in self.sinks)})"


def make_step_sink(trace_level: str) -> TraceSink:
    """The built-in step-record sink for a ``trace_level``.

    ``"full"`` builds a fresh :class:`StepRecordArray`, ``"summary"`` a
    fresh :class:`StepRecordSummary`; anything else raises
    :class:`~repro.errors.DataError`.
    """
    if trace_level == "summary":
        return StepRecordSummary()
    if trace_level == "full":
        return StepRecordArray()
    raise DataError(
        f"trace_level must be 'full' or 'summary', got {trace_level!r}")


@dataclass(frozen=True)
class CheckpointRecord:
    """One checkpoint performed by the (acting) chief worker."""

    worker_id: str
    start_time: float
    duration: float
    cluster_step: int
    size_bytes: int


@dataclass(frozen=True)
class RevocationRecord:
    """One worker revocation observed during training."""

    worker_id: str
    time: float
    cluster_step: int
    was_chief: bool


@dataclass(frozen=True)
class ReplacementRecord:
    """One worker replacement (a new worker joining mid-training)."""

    worker_id: str
    time: float
    cluster_step: int
    cold_start: bool
    overhead_seconds: float


@dataclass
class TrainingTrace:
    """Everything recorded while simulating one training session.

    Attributes:
        model_name: Name of the trained model.
        cluster_description: Human-readable cluster description.
        step_records: Per-worker chunk completions (columnar).
        checkpoint_records: Checkpoints taken.
        revocation_records: Worker revocations.
        replacement_records: Worker replacements.
        start_time: Simulation time training started.
        end_time: Simulation time the workload finished (None while running).
    """

    model_name: str
    cluster_description: str
    #: Per-worker chunk completions: the columnar array by default, a
    #: :class:`StepRecordSummary` for ``trace_level="summary"`` runs, or
    #: any custom :class:`TraceSink` (e.g. a :class:`TeeSink` feeding the
    #: fleet telemetry spool alongside one of the built-ins).
    step_records: TraceSink = field(default_factory=StepRecordArray)
    checkpoint_records: List[CheckpointRecord] = field(default_factory=list)
    revocation_records: List[RevocationRecord] = field(default_factory=list)
    replacement_records: List[ReplacementRecord] = field(default_factory=list)
    start_time: float = 0.0
    end_time: Optional[float] = None

    # ------------------------------------------------------------------
    # Basic aggregates.
    # ------------------------------------------------------------------
    @property
    def total_steps(self) -> int:
        """Total training steps completed across all workers."""
        return int(self.step_records.steps_total)

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) duration of the traced session."""
        if self.end_time is not None:
            return self.end_time - self.start_time
        if not len(self.step_records):
            return 0.0
        return self.step_records.max_end_time - self.start_time

    def _step_columns(self) -> StepRecordArray:
        """The columnar step records, or a DataError for summary traces."""
        records = self.step_records
        if isinstance(records, TeeSink):
            # A tee is observationally its primary; row-level statistics
            # read the primary's columns (or fail on a summary primary).
            records = records.primary
        if isinstance(records, StepRecordSummary):
            raise DataError(
                "this trace was recorded with trace_level='summary'; "
                "per-step rows were not kept")
        return records

    def worker_ids(self) -> List[str]:
        """All workers that contributed steps, in first-appearance order.

        Raises:
            DataError: For ``trace_level="summary"`` traces — the summary
                sink cannot reproduce first-appearance order (query its
                :attr:`StepRecordSummary.worker_names` aggregate instead).
        """
        return list(self._step_columns().worker_names)

    # ------------------------------------------------------------------
    # Speed statistics (Table I, Fig. 2, Fig. 4).
    # ------------------------------------------------------------------
    def cluster_speed(self, warmup_steps: int = DEFAULT_WARMUP_STEPS) -> float:
        """Average cluster training speed in steps/second.

        The first ``warmup_steps`` cluster steps are discarded, following
        the paper's methodology.
        """
        records = self._step_columns()
        mask = records.cluster_step_counts > warmup_steps
        if not mask.any():
            raise DataError("not enough steps beyond the warm-up window")
        steps = int(records.step_counts[mask].sum())
        start = float(records.start_times[mask].min())
        end = float(records.end_times[mask].max())
        if end <= start:
            raise DataError("trace covers zero duration")
        return steps / (end - start)

    def speed_series(self, window_steps: int = DEFAULT_SPEED_WINDOW_STEPS
                     ) -> List[Tuple[int, float]]:
        """Cluster speed averaged over consecutive windows of steps.

        Returns:
            A list of ``(cluster step at window end, steps/second)`` pairs —
            the series plotted in Fig. 2.
        """
        if window_steps <= 0:
            raise DataError("window_steps must be positive")
        records = self._step_columns()
        n = len(records)
        if n == 0:
            return []
        order = np.argsort(records.end_times, kind="stable")
        end = records.end_times[order]
        steps = records.step_counts[order]
        cluster = records.cluster_step_counts[order]
        if np.all(np.diff(cluster) >= 0):
            return self._speed_series_sorted(end, steps, cluster, window_steps)
        return self._speed_series_scan(end, steps, cluster, window_steps)

    def _speed_series_sorted(self, end: np.ndarray, steps: np.ndarray,
                             cluster: np.ndarray, window_steps: int
                             ) -> List[Tuple[int, float]]:
        """Windowed speeds via cumulative sums + bisection (monotone traces).

        Each window boundary is located with ``np.searchsorted`` and the
        window's step count read off a cumulative sum, replacing the
        record-by-record accumulation while producing the same values: the
        cumulative int64 sums are exact, and the elapsed-time and division
        expressions are unchanged.
        """
        n = len(end)
        cumulative = np.cumsum(steps)
        series: List[Tuple[int, float]] = []
        window_start_time = self.start_time
        previous_index = -1
        next_boundary = window_steps
        while True:
            i = int(np.searchsorted(cluster, next_boundary, side="left"))
            if i >= n:
                break
            window_steps_done = int(cumulative[i]) - (
                int(cumulative[previous_index]) if previous_index >= 0 else 0)
            elapsed = float(end[i]) - window_start_time
            if elapsed > 0:
                series.append((int(cluster[i]), window_steps_done / elapsed))
            window_start_time = float(end[i])
            previous_index = i
            next_boundary = int(cluster[i]) + window_steps
        return series

    def _speed_series_scan(self, end: np.ndarray, steps: np.ndarray,
                           cluster: np.ndarray, window_steps: int
                           ) -> List[Tuple[int, float]]:
        """Reference record-order scan, kept for non-monotone traces.

        Sessions that restart from a checkpoint (legacy chief-IP reuse)
        append a negative correction row, making the cluster-step column
        non-monotone; bisection would find boundaries out of order there,
        so those traces take the original linear scan over the columns.
        """
        series: List[Tuple[int, float]] = []
        window_start_time = self.start_time
        window_steps_done = 0
        next_boundary = window_steps
        end_list = end.tolist()
        steps_list = steps.tolist()
        cluster_list = cluster.tolist()
        for i in range(len(end_list)):
            window_steps_done += steps_list[i]
            if cluster_list[i] >= next_boundary:
                elapsed = end_list[i] - window_start_time
                if elapsed > 0:
                    series.append((cluster_list[i], window_steps_done / elapsed))
                window_start_time = end_list[i]
                window_steps_done = 0
                next_boundary = cluster_list[i] + window_steps
        return series

    def speed_stability(self, warmup_steps: int = DEFAULT_WARMUP_STEPS,
                        window_steps: int = DEFAULT_SPEED_WINDOW_STEPS) -> float:
        """Coefficient of variation of the windowed speed after warm-up."""
        series = [speed for step, speed in self.speed_series(window_steps)
                  if step > warmup_steps]
        if len(series) < 2:
            raise DataError("not enough windows to compute stability")
        values = np.asarray(series)
        return float(values.std(ddof=1) / values.mean())

    # ------------------------------------------------------------------
    # Per-worker statistics (Table III).
    # ------------------------------------------------------------------
    def worker_step_times(self, worker_id: str,
                          warmup_steps: int = DEFAULT_WARMUP_STEPS) -> np.ndarray:
        """Per-chunk average step times (seconds) for one worker.

        The worker's *own* first ``warmup_steps`` steps are discarded, which
        mirrors how the paper measures individual workers with TFProf.
        """
        records = self._step_columns()
        index = records.worker_index(worker_id)
        if index is not None:
            mask = ((records.worker_indices == index)
                    & (records.worker_step_counts > warmup_steps))
        else:
            mask = np.zeros(0, dtype=bool)
        if not mask.any():
            raise DataError(f"no post-warm-up steps recorded for worker {worker_id!r}")
        durations = records.end_times[mask] - records.start_times[mask]
        steps = records.step_counts[mask]
        safe_steps = np.where(steps != 0, steps, 1)
        return np.where(steps != 0, durations / safe_steps, 0.0)

    def worker_mean_step_time(self, worker_id: str,
                              warmup_steps: int = DEFAULT_WARMUP_STEPS) -> Tuple[float, float]:
        """Mean and standard deviation of one worker's step time (seconds)."""
        times = self.worker_step_times(worker_id, warmup_steps)
        std = float(times.std(ddof=1)) if len(times) > 1 else 0.0
        return float(times.mean()), std

    # ------------------------------------------------------------------
    # Checkpoint statistics (Section IV).
    # ------------------------------------------------------------------
    def checkpoint_durations(self) -> List[float]:
        """Durations (seconds) of all checkpoints in the trace."""
        return [record.duration for record in self.checkpoint_records]

    def total_checkpoint_time(self) -> float:
        """Total seconds spent checkpointing."""
        return float(sum(self.checkpoint_durations()))

    # ------------------------------------------------------------------
    # Revocation statistics (Section V).
    # ------------------------------------------------------------------
    @property
    def num_revocations(self) -> int:
        """Number of worker revocations observed."""
        return len(self.revocation_records)

    @property
    def num_replacements(self) -> int:
        """Number of replacement workers that joined."""
        return len(self.replacement_records)

    def summary(self) -> Dict[str, float]:
        """A compact numeric summary of the trace."""
        summary: Dict[str, float] = {
            "total_steps": float(self.total_steps),
            "duration_seconds": float(self.duration),
            "num_checkpoints": float(len(self.checkpoint_records)),
            "num_revocations": float(self.num_revocations),
            "num_replacements": float(self.num_replacements),
        }
        try:
            summary["cluster_speed"] = self.cluster_speed()
        except DataError:
            pass
        return summary
