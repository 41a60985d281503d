"""Bounded-memory streaming accumulators for out-of-core analysis.

The fleet telemetry artifacts of :mod:`repro.telemetry` hold step tables
far larger than a bounded-memory host should materialize (the ROADMAP
north star is 100k-job fleets).  The accumulators here consume those
tables one chunk at a time and never hold more than O(block) values:

* :class:`StreamingMoments` — count / mean / std (ddof=1) / min / max;
* :class:`StreamingHistogram` — fixed-bin counts;
* :class:`ExactPercentiles` — *exact* order statistics (numpy's
  ``linear`` interpolation, bit-identical to :func:`numpy.percentile`)
  via sorted runs spilled to disk and a lazy k-way merge;
* :class:`StreamingDescribe` — the three combined into the same summary
  dict shape as :func:`repro.analysis.stats.describe`.

Partition invariance
--------------------
Results must not depend on how the caller chunks the stream (an artifact
written with ``chunk_rows=512`` must analyze identically to the same
rows written with ``chunk_rows=4096``, and to the fully materialized
table).  Order statistics, min/max, and integer histogram counts are
partition-invariant by definition.  Mean/M2 are made so by *canonical
re-blocking*: values are buffered and folded in fixed ``block_rows``
blocks regardless of the incoming chunk sizes, each block summarized
with numpy's pairwise reduction and merged left-to-right with Chan's
parallel update — so the sequence of float operations is a pure function
of the value stream, and streaming results are bit-identical to feeding
one concatenated array through the same accumulator.

Memory contract
---------------
Peak held state is O(``block_rows``) per accumulator: the re-block
buffer for moments, one sorted run for percentiles (full runs live on
disk until :meth:`ExactPercentiles.percentile` merges them back in
bounded slices), and a constant-size counts array for histograms.  A
percentile accumulator makes its temporary directory at its first
spill, so one that never fills a run (a short job's summary in a fleet
report) never touches the disk.  The ``BENCH_telemetry.json`` baseline
pins this with tracemalloc: analysis peak stays flat as the fleet grows
10x.
"""

from __future__ import annotations

import heapq
import math
import os
import shutil
import tempfile
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError

#: Values folded per canonical block (and per spilled percentile run).
DEFAULT_BLOCK_ROWS = 4096


def _as_vector(values) -> np.ndarray:
    array = np.asarray(values, dtype=np.float64)
    if array.ndim != 1:
        array = array.reshape(-1)
    return array


class StreamingMoments:
    """Count/mean/std/min/max of a float stream in O(block) memory.

    Chunk-size invariant (see the module docstring): feeding the same
    values through any chunking — including one concatenated array —
    produces bit-identical results.
    """

    def __init__(self, block_rows: int = DEFAULT_BLOCK_ROWS):
        if block_rows <= 0:
            raise DataError("block_rows must be positive")
        self.block_rows = int(block_rows)
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._pending: List[np.ndarray] = []
        self._pending_rows = 0

    def update(self, values) -> None:
        """Fold a chunk of values into the running summary."""
        array = _as_vector(values)
        if array.size == 0:
            return
        low = float(array.min())
        high = float(array.max())
        self._min = low if self._min is None else min(self._min, low)
        self._max = high if self._max is None else max(self._max, high)
        self._pending.append(array)
        self._pending_rows += array.size
        while self._pending_rows >= self.block_rows:
            buffered = np.concatenate(self._pending)
            block, remainder = (buffered[:self.block_rows],
                                buffered[self.block_rows:])
            self._fold_block(block)
            self._pending = [remainder] if remainder.size else []
            self._pending_rows = int(remainder.size)

    def _fold_block(self, block: np.ndarray) -> None:
        n_b = int(block.size)
        mean_b = float(block.mean())
        m2_b = float(np.square(block - mean_b).sum())
        self._count, self._mean, self._m2 = _merge_moments(
            self._count, self._mean, self._m2, n_b, mean_b, m2_b)

    def _current(self) -> Tuple[int, float, float]:
        """Running moments including the not-yet-full remainder block."""
        if not self._pending_rows:
            return self._count, self._mean, self._m2
        remainder = (self._pending[0] if len(self._pending) == 1
                     else np.concatenate(self._pending))
        n_b = int(remainder.size)
        mean_b = float(remainder.mean())
        m2_b = float(np.square(remainder - mean_b).sum())
        return _merge_moments(self._count, self._mean, self._m2,
                              n_b, mean_b, m2_b)

    @property
    def count(self) -> int:
        return self._count + self._pending_rows

    @property
    def mean(self) -> float:
        count, mean, _ = self._current()
        if count == 0:
            raise DataError("cannot summarize an empty stream")
        return mean

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); 0.0 for a single value."""
        count, _, m2 = self._current()
        if count == 0:
            raise DataError("cannot summarize an empty stream")
        if count < 2:
            return 0.0
        return math.sqrt(m2 / (count - 1))

    @property
    def minimum(self) -> float:
        if self._min is None:
            raise DataError("cannot summarize an empty stream")
        return self._min

    @property
    def maximum(self) -> float:
        if self._max is None:
            raise DataError("cannot summarize an empty stream")
        return self._max


def _merge_moments(n_a: int, mean_a: float, m2_a: float,
                   n_b: int, mean_b: float, m2_b: float
                   ) -> Tuple[int, float, float]:
    """Chan's parallel mean/M2 update (numerically stable merge)."""
    n = n_a + n_b
    if n == 0:
        return 0, 0.0, 0.0
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * (n_b / n))
    return n, mean, m2


class StreamingHistogram:
    """Fixed-bin histogram accumulated chunk by chunk.

    Integer counts sum exactly, so the result is independent of the
    chunking and equals ``np.histogram(all_values, bins=edges)``.
    """

    def __init__(self, edges: Sequence[float]):
        self.edges = np.asarray(edges, dtype=np.float64)
        if self.edges.ndim != 1 or self.edges.size < 2:
            raise DataError("histogram edges need at least two values")
        if not np.all(np.diff(self.edges) > 0):
            raise DataError("histogram edges must be strictly increasing")
        self.counts = np.zeros(self.edges.size - 1, dtype=np.int64)

    def update(self, values) -> None:
        array = _as_vector(values)
        if array.size:
            self.counts += np.histogram(array, bins=self.edges)[0]

    @property
    def total(self) -> int:
        return int(self.counts.sum())


class ExactPercentiles:
    """Exact percentiles of a float stream in O(run) memory.

    Incoming values are buffered, sorted, and spilled as raw
    little-endian ``float64`` runs in a private temporary directory
    (headerless, so re-opening a run costs one file handle and nothing
    else); :meth:`percentile` lazily k-way merges the runs, read in
    bounded slices, just far enough to pull the order statistics the
    requested percentiles interpolate between.  The directory is made
    at the first spill, so a stream shorter than one run never touches
    the disk.  The interpolation replicates numpy's default ``linear``
    method operation for operation, so results are bit-identical to
    ``np.percentile`` over the materialized stream.
    """

    def __init__(self, run_rows: int = DEFAULT_BLOCK_ROWS,
                 spool_dir: Optional[str] = None):
        if run_rows <= 0:
            raise DataError("run_rows must be positive")
        self.run_rows = int(run_rows)
        self._own_dir = spool_dir is None
        self._dir = spool_dir
        self._runs: List[str] = []
        self._pending: List[np.ndarray] = []
        self._pending_rows = 0
        self._count = 0

    # ------------------------------------------------------------------
    def update(self, values) -> None:
        array = _as_vector(values)
        if array.size == 0:
            return
        self._count += int(array.size)
        self._pending.append(array)
        self._pending_rows += int(array.size)
        while self._pending_rows >= self.run_rows:
            buffered = np.concatenate(self._pending)
            self._spill(buffered[:self.run_rows])
            remainder = buffered[self.run_rows:]
            self._pending = [remainder] if remainder.size else []
            self._pending_rows = int(remainder.size)

    def _spill(self, run: np.ndarray) -> None:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(prefix="repro-percentiles-")
        path = os.path.join(self._dir, f"run{len(self._runs):06d}.bin")
        np.sort(run).astype("<f8").tofile(path)
        self._runs.append(path)

    @property
    def count(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def _merged(self) -> Iterator[float]:
        """The globally sorted value stream, read in bounded slices."""
        sources: List[Iterable[float]] = []
        streams = len(self._runs) + (1 if self._pending_rows else 0)
        # Slice runs small enough that all resident slices together stay
        # O(run_rows) no matter how many runs were spilled.
        slice_rows = max(64, self.run_rows // max(1, streams))

        def run_values(path: str) -> Iterator[float]:
            # buffering=0: the explicit slice reads ARE the buffer; a
            # default BufferedReader would pin 8 KiB per open run.
            with open(path, "rb", buffering=0) as handle:
                while True:
                    data = handle.read(slice_rows * 8)
                    if not data:
                        return
                    # A raw handle may return short reads; top up to a
                    # whole number of float64 values.
                    while len(data) % 8:
                        more = handle.read(8 - len(data) % 8)
                        if not more:
                            raise DataError(f"truncated percentile run "
                                            f"{path!r}")
                        data += more
                    yield from np.frombuffer(data, dtype="<f8").tolist()

        def tail_values(tail: np.ndarray) -> Iterator[float]:
            # Slice like the disk runs: one full .tolist() would pin
            # O(run_rows) boxed floats for the whole merge.
            for start in range(0, tail.shape[0], slice_rows):
                yield from tail[start:start + slice_rows].tolist()

        sources.extend(run_values(path) for path in self._runs)
        if self._pending_rows:
            tail = (self._pending[0] if len(self._pending) == 1
                    else np.concatenate(self._pending))
            sources.append(tail_values(np.sort(tail)))
        return heapq.merge(*sources)

    def percentile(self, percentiles: Sequence[float]) -> List[float]:
        """Exact percentiles (numpy ``linear`` method) of the stream."""
        n = self._count
        if n == 0:
            raise DataError("cannot take percentiles of an empty stream")
        targets = [float(q) for q in percentiles]
        for q in targets:
            if not 0.0 <= q <= 100.0:
                raise DataError(f"percentile {q} outside [0, 100]")
        # The ranks the interpolation needs: floor and ceil of each
        # virtual index (q/100 * (n-1)), exactly as numpy computes them.
        virtuals = [(q / 100.0) * (n - 1) for q in targets]
        needed: Dict[int, float] = {}
        for virtual in virtuals:
            if virtual >= n - 1:
                needed[n - 1] = math.nan
            else:
                lower = int(math.floor(virtual))
                needed[lower] = math.nan
                needed[lower + 1] = math.nan
        highest = max(needed)
        for rank, value in enumerate(self._merged()):
            if rank in needed:
                needed[rank] = value
            if rank >= highest:
                break
        results = []
        for virtual in virtuals:
            if virtual >= n - 1:
                results.append(needed[n - 1])
                continue
            lower = int(math.floor(virtual))
            a, b = needed[lower], needed[lower + 1]
            gamma = virtual - lower
            # numpy's _lerp: the t >= 0.5 branch recomputes from b so
            # that q=100-q symmetry holds to the last bit.
            diff = b - a
            value = a + diff * gamma
            if gamma >= 0.5:
                value = b - diff * (1.0 - gamma)
            results.append(value)
        return results

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Delete the spilled runs; the accumulator is dead afterwards."""
        if self._own_dir and self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
        self._runs = []
        self._pending = []
        self._pending_rows = 0

    def __enter__(self) -> "ExactPercentiles":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StreamingDescribe:
    """Streaming counterpart of :func:`repro.analysis.stats.describe`.

    Combines :class:`StreamingMoments` and :class:`ExactPercentiles`
    into the same ``count/mean/std/min/p50/p95/max`` summary dict.
    Percentiles are bit-identical to the materialized ``np.percentile``;
    mean/std use the stable block-merge (chunk-size invariant, equal to
    the numpy reductions to ~1e-12 relative).
    """

    def __init__(self, block_rows: int = DEFAULT_BLOCK_ROWS,
                 percentiles: Sequence[float] = (50.0, 95.0),
                 spool_dir: Optional[str] = None):
        self.percentiles = tuple(float(q) for q in percentiles)
        self._moments = StreamingMoments(block_rows=block_rows)
        self._order = ExactPercentiles(run_rows=block_rows,
                                       spool_dir=spool_dir)

    def update(self, values) -> None:
        array = _as_vector(values)
        self._moments.update(array)
        self._order.update(array)

    @property
    def count(self) -> int:
        return self._moments.count

    def result(self) -> Dict[str, float]:
        """The describe-shaped summary; raises on an empty stream."""
        if self._moments.count == 0:
            raise DataError("cannot summarize an empty stream")
        quantiles = self._order.percentile(self.percentiles)
        summary = {
            "count": float(self._moments.count),
            "mean": self._moments.mean,
            "std": self._moments.std,
            "min": self._moments.minimum,
        }
        for q, value in zip(self.percentiles, quantiles):
            summary[f"p{q:g}"] = float(value)
        summary["max"] = self._moments.maximum
        return summary

    def close(self) -> None:
        self._order.close()

    def __enter__(self) -> "StreamingDescribe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
