"""Bounded-memory streaming accumulators for out-of-core analysis.

The fleet telemetry artifacts of :mod:`repro.telemetry` hold step tables
far larger than a bounded-memory host should materialize (the ROADMAP
north star is 100k-job fleets).  The accumulators here consume those
tables one chunk at a time and never hold more than O(block) values:

* :class:`StreamingMoments` — count / mean / std (ddof=1) / min / max;
* :class:`StreamingHistogram` — fixed-bin counts;
* :class:`ExactPercentiles` — *exact* order statistics (numpy's
  ``linear`` interpolation, bit-identical to :func:`numpy.percentile`)
  via sorted runs spilled to disk and a blockwise rank selection;
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
disk until :meth:`ExactPercentiles.percentile` reads them back in
bounded slices), and a constant-size counts array for histograms.  A
percentile accumulator makes its temporary directory at its first
spill, so one that never fills a run (a short job's summary in a fleet
report) never touches the disk.  The ``BENCH_telemetry.json`` baseline
pins this with tracemalloc: analysis peak stays flat as the fleet grows
10x.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import tempfile
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
        # A NaN wins from either side, as in array.min() / max(), so a
        # stream holding one summarizes the same at any chunking.
        if self._min is None or low < self._min or low != low:
            self._min = low
        if self._max is None or high > self._max or high != high:
            self._max = high
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
    else).  The directory is made at the first spill, so a stream
    shorter than one run never touches the disk.

    :meth:`percentile` selects only the ranks the requested percentiles
    interpolate between.  Without a spilled run it sorts the buffered
    values and indexes them.  Otherwise it merges the sorted runs and
    the sorted tail block by block, reading each in bounded slices.  A
    block takes from every current slice its prefix up to the smallest
    slice maximum, so no value outside the block is smaller than any
    value in it: sorted, the block holds exactly the next ranks of the
    whole sorted stream.  A block that holds no needed rank is only
    counted; the merge stops after the highest needed rank.  The value
    at a rank of a sorted multiset is unique, and the interpolation
    replicates numpy's default ``linear`` method operation for
    operation, so results are bit-identical to ``np.percentile`` over
    the materialized stream.  That includes NaN for every percentile
    once any NaN was seen: NaN sorts last, so the last value of each
    sorted run and of the sorted tail tells.
    """

    def __init__(self, run_rows: int = DEFAULT_BLOCK_ROWS,
                 spool_dir: Optional[str] = None):
        if run_rows <= 0:
            raise DataError("run_rows must be positive")
        self.run_rows = int(run_rows)
        self._own_dir = spool_dir is None
        self._dir = spool_dir
        self._runs: List[str] = []
        self._runs_have_nan = False
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
        ordered = np.sort(run).astype("<f8")
        self._runs_have_nan = self._runs_have_nan or math.isnan(ordered[-1])
        # Written through a file object: numpy 2.4's ndarray.tofile(path)
        # keeps ~0.2 KB allocated per call, so memory grew with each run.
        with open(path, "wb") as handle:
            handle.write(ordered)
        self._runs.append(path)

    @property
    def count(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    def _run_slices(self, handle, path: str, slice_rows: int
                    ) -> Iterator[np.ndarray]:
        """One spilled run, read ``slice_rows`` values at a time."""
        size = os.fstat(handle.fileno()).st_size
        if size != self.run_rows * 8:
            raise DataError(f"percentile run {path!r} holds {size} bytes, "
                            f"not {self.run_rows * 8}")
        while True:
            data = handle.read(slice_rows * 8)
            if not data:
                return
            # A raw handle may return short reads; top up to a whole
            # number of float64 values.
            while len(data) % 8:
                more = handle.read(8 - len(data) % 8)
                if not more:
                    raise DataError(f"truncated percentile run {path!r}")
                data += more
            yield np.frombuffer(data, dtype="<f8")

    def _select(self, tail: np.ndarray, ranks: List[int]) -> Dict[int, float]:
        """The values at ``ranks`` (ascending) of the sorted stream."""
        if not self._runs:
            return {rank: float(tail[rank]) for rank in ranks}
        streams = len(self._runs) + (1 if tail.size else 0)
        # Slice runs small enough that all resident slices together stay
        # O(run_rows) no matter how many runs were spilled.
        slice_rows = max(64, self.run_rows // streams)
        found: Dict[int, float] = {}
        with contextlib.ExitStack() as handles:
            # buffering=0: the explicit slice reads ARE the buffer; a
            # default BufferedReader would pin 8 KiB per open run.
            sources = [self._run_slices(
                handles.enter_context(open(path, "rb", buffering=0)),
                path, slice_rows) for path in self._runs]
            if tail.size:
                sources.append(iter([tail[start:start + slice_rows] for start
                                     in range(0, tail.size, slice_rows)]))
            current = [(next(source), source) for source in sources]
            position = 0
            pending = iter(ranks)
            rank = next(pending)
            while True:
                bound = min(values[-1] for values, _source in current)
                cuts = [int(np.searchsorted(values, bound, side="right"))
                        for values, _source in current]
                end = position + sum(cuts)
                if rank < end:
                    block = np.concatenate([values[:cut] for (values, _source),
                                            cut in zip(current, cuts)])
                    block.sort()
                    while rank < end:
                        found[rank] = float(block[rank - position])
                        rank = next(pending, -1)
                        if rank < 0:
                            return found
                position = end
                refilled = [(values[cut:] if cut < values.size
                             else next(source, None), source)
                            for (values, source), cut in zip(current, cuts)]
                current = [(values, source) for values, source in refilled
                           if values is not None]

    def percentile(self, percentiles: Sequence[float]) -> List[float]:
        """Exact percentiles (numpy ``linear`` method) of the stream."""
        n = self._count
        if n == 0:
            raise DataError("cannot take percentiles of an empty stream")
        targets = [float(q) for q in percentiles]
        for q in targets:
            if not 0.0 <= q <= 100.0:
                raise DataError(f"percentile {q} outside [0, 100]")
        if not targets:
            return []
        tail = (np.concatenate(self._pending) if self._pending_rows
                else np.empty(0))
        tail.sort()
        if self._runs_have_nan or (tail.size and math.isnan(tail[-1])):
            return [math.nan] * len(targets)
        # The ranks the interpolation needs: floor and ceil of each
        # virtual index (q/100 * (n-1)), exactly as numpy computes them.
        virtuals = [(q / 100.0) * (n - 1) for q in targets]
        needed = set()
        for virtual in virtuals:
            if virtual >= n - 1:
                needed.add(n - 1)
            else:
                lower = int(math.floor(virtual))
                needed.update((lower, lower + 1))
        values = self._select(tail, sorted(needed))
        results = []
        for virtual in virtuals:
            if virtual >= n - 1:
                results.append(values[n - 1])
                continue
            lower = int(math.floor(virtual))
            a, b = values[lower], values[lower + 1]
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
