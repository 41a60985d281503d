"""Bounded-memory streaming accumulators (:mod:`repro.analysis.streaming`).

The two contracts the out-of-core telemetry analysis rides on:

* **chunk invariance** — for a fixed ``block_rows``, feeding the same
  values through any chunking (including one concatenated array) gives
  bit-identical results (canonical re-blocking);
* **exactness** — percentiles equal :func:`numpy.percentile` to the last
  bit, histograms equal :func:`numpy.histogram`, min/max/count are
  exact, and mean/std match the numpy reductions to float precision.
"""

import math
import os
import tempfile

import numpy as np
import pytest
from oracles import heap_merge_percentiles

from repro.analysis import (
    ExactPercentiles,
    StreamingDescribe,
    StreamingHistogram,
    StreamingMoments,
    describe,
)
from repro.analysis.streaming import DEFAULT_BLOCK_ROWS
from repro.errors import DataError


def _chunked(values, sizes):
    start = 0
    for size in sizes:
        yield values[start:start + size]
        start += size
    assert start == len(values)


@pytest.fixture(scope="module")
def gamma_values():
    return np.random.default_rng(11).gamma(2.0, 1.5, size=10_007)


# ---------------------------------------------------------------------------
# StreamingMoments.
# ---------------------------------------------------------------------------
def test_moments_chunk_invariant_bit_identical(gamma_values):
    chunkings = [
        [len(gamma_values)],                      # one concatenated array
        [613] * 16 + [199],                       # uneven mid-size chunks
        [1] * 50 + [9957],                        # degenerate single rows
    ]
    results = []
    for sizes in chunkings:
        moments = StreamingMoments(block_rows=256)
        for chunk in _chunked(gamma_values, sizes):
            moments.update(chunk)
        results.append((moments.count, moments.mean, moments.std,
                        moments.minimum, moments.maximum))
    assert results[0] == results[1] == results[2]


def test_moments_match_numpy_reductions(gamma_values):
    moments = StreamingMoments(block_rows=512)
    for chunk in _chunked(gamma_values, [700] * 14 + [207]):
        moments.update(chunk)
    assert moments.count == gamma_values.size
    assert moments.minimum == gamma_values.min()
    assert moments.maximum == gamma_values.max()
    assert moments.mean == pytest.approx(gamma_values.mean(), rel=1e-12)
    assert moments.std == pytest.approx(gamma_values.std(ddof=1), rel=1e-10)


@pytest.mark.parametrize("chunks", [[[1.0, np.nan, 3.0]],
                                    [[1.0], [np.nan, 3.0]],
                                    [[np.nan], [1.0, 3.0]],
                                    [[1.0, 3.0], [np.nan]]])
def test_moments_min_max_of_a_stream_with_nan_are_nan(chunks):
    moments = StreamingMoments()
    for chunk in chunks:
        moments.update(chunk)
    assert math.isnan(moments.minimum) and math.isnan(moments.maximum)


def test_moments_edge_cases():
    moments = StreamingMoments()
    moments.update([])  # empty chunks are fine ...
    assert moments.count == 0
    with pytest.raises(DataError):  # ... but an empty stream has no summary
        moments.mean
    with pytest.raises(DataError):
        moments.minimum
    moments.update([4.5])
    assert moments.std == 0.0  # single value: ddof=1 defined as 0
    assert moments.mean == 4.5
    with pytest.raises(DataError):
        StreamingMoments(block_rows=0)


# ---------------------------------------------------------------------------
# ExactPercentiles.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1009])
def test_percentiles_bit_identical_to_numpy(n):
    values = np.random.default_rng(n).normal(size=n)
    quantiles = [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.9, 100.0]
    with ExactPercentiles(run_rows=16) as accumulator:
        for chunk in _chunked(values, [7] * (n // 7) + [n % 7]):
            accumulator.update(chunk)
        got = accumulator.percentile(quantiles)
    assert got == list(np.percentile(values, quantiles))


def test_percentiles_spill_and_cleanup(gamma_values, tmp_path):
    accumulator = ExactPercentiles(run_rows=128)
    accumulator.update(gamma_values)
    spool_dir = accumulator._dir
    assert len(accumulator._runs) == gamma_values.size // 128
    assert all(os.path.exists(path) for path in accumulator._runs)
    got = accumulator.percentile([50.0, 95.0])
    assert got == list(np.percentile(gamma_values, [50.0, 95.0]))
    assert accumulator.percentile([]) == []
    accumulator.close()
    assert not os.path.isdir(spool_dir)
    # A caller-owned spool directory is left alone on close.
    shared = ExactPercentiles(run_rows=8, spool_dir=str(tmp_path))
    shared.update(np.arange(32.0))
    shared.close()
    assert os.path.isdir(str(tmp_path))


@pytest.mark.parametrize("n", [1, 2, 4095, 4096])
def test_percentiles_spill_only_past_one_run(n, monkeypatch):
    # Below one run the values never leave memory, so no temp directory
    # is made.  n = 4096 is exactly one spilled run.
    if n < DEFAULT_BLOCK_ROWS:
        def refuse(*args, **kwargs):
            raise AssertionError("an unspilled accumulator made a directory")
        monkeypatch.setattr(tempfile, "mkdtemp", refuse)
    values = np.random.default_rng(n).gamma(2.0, 1.5, size=n)
    quantiles = [0.0, 0.1, 50.0, 95.0, 99.9, 100.0]
    with ExactPercentiles() as accumulator:
        accumulator.update(values)
        assert len(accumulator._runs) == n // DEFAULT_BLOCK_ROWS
        got = accumulator.percentile(quantiles)
    assert got == list(np.percentile(values, quantiles))


QUANTILES = [0.0, 0.1, 1.0, 25.0, 49.99, 50.0, 75.0, 95.0, 99.9, 100.0]


def _percentile_cases():
    rng = np.random.default_rng(20)
    # Few distinct values: long duplicate runs straddle run and slice
    # boundaries.
    duplicates = rng.integers(0, 7, size=2_000).astype(np.float64)
    yield "duplicates-run1", duplicates[:300], 1
    yield "duplicates-run2", duplicates[:301], 2
    yield "duplicates-run3", duplicates, 3
    # 4 runs + a tail: 64-value slices, each run read in four.
    yield "duplicates-sliced", duplicates[:1_100], 256
    # 70 runs + a tail: run_rows // streams is 1, so the 64-value slice
    # floor binds.
    yield "slice-floor", rng.normal(size=100 * 70 + 37), 100
    yield "runs-only", rng.gamma(2.0, 1.5, size=4_096 * 3), 4_096
    yield "constant", np.full(1_000, 2.5), 16
    yield "ties-at-ranks", np.repeat(rng.normal(size=40), 25), 64


@pytest.mark.parametrize("name, values, run_rows",
                         list(_percentile_cases()),
                         ids=[case[0] for case in _percentile_cases()])
def test_percentile_selection_matches_heap_merge_bitwise(name, values,
                                                         run_rows):
    with ExactPercentiles(run_rows=run_rows) as accumulator:
        for chunk in _chunked(values, [37] * (len(values) // 37)
                              + [len(values) % 37]):
            accumulator.update(chunk)
        got = np.array(accumulator.percentile(QUANTILES))
        oracle = np.array(heap_merge_percentiles(accumulator, QUANTILES))
    assert got.tobytes() == oracle.tobytes()
    assert got.tobytes() == np.percentile(values, QUANTILES).tobytes()


@pytest.mark.parametrize("run_rows", [1, 4, 16, 4096])
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_percentiles_of_a_stream_with_nan_are_nan(run_rows, where):
    values = np.arange(12.0)
    values[{"start": 0, "middle": 6, "end": 11}[where]] = np.nan
    values[{"start": 1, "middle": 5, "end": 10}[where]] = np.nan
    quantiles = [0.0, 50.0, 95.0, 100.0]
    assert np.isnan(np.percentile(values, quantiles)).all()
    with ExactPercentiles(run_rows=run_rows) as accumulator:
        for chunk in _chunked(values, [5, 7]):
            accumulator.update(chunk)
        got = accumulator.percentile(quantiles)
    assert all(math.isnan(value) for value in got)


def _open_paths_under(directory):
    fd_dir = "/proc/self/fd"
    paths = []
    for fd in os.listdir(fd_dir):
        try:
            paths.append(os.readlink(os.path.join(fd_dir, fd)))
        except OSError:  # closed since listdir
            continue
    return [path for path in paths if path.startswith(directory)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
@pytest.mark.parametrize("cut_bytes", [3, 8])
def test_truncated_run_raises_naming_it_and_closes_every_run(cut_bytes):
    values = np.random.default_rng(3).normal(size=8 * 5 + 3)
    with ExactPercentiles(run_rows=8) as accumulator:
        accumulator.update(values)
        spool = os.path.realpath(accumulator._dir)
        assert accumulator.percentile([0.0, 100.0]) == \
            list(np.percentile(values, [0.0, 100.0]))
        assert _open_paths_under(spool) == []
        victim = accumulator._runs[2]
        with open(victim, "r+b") as handle:
            handle.truncate(8 * 8 - cut_bytes)
        with pytest.raises(DataError, match=os.path.basename(victim)):
            accumulator.percentile([50.0])
        assert _open_paths_under(spool) == []


def test_percentiles_validation():
    with pytest.raises(DataError):
        ExactPercentiles(run_rows=0)
    with ExactPercentiles() as accumulator:
        with pytest.raises(DataError):
            accumulator.percentile([50.0])  # empty stream
        accumulator.update([1.0])
        with pytest.raises(DataError):
            accumulator.percentile([101.0])
        with pytest.raises(DataError):
            accumulator.percentile([-0.5])


# ---------------------------------------------------------------------------
# StreamingHistogram.
# ---------------------------------------------------------------------------
def test_histogram_matches_numpy(gamma_values):
    edges = np.linspace(0.0, 20.0, 41)
    histogram = StreamingHistogram(edges)
    for chunk in _chunked(gamma_values, [999] * 10 + [17]):
        histogram.update(chunk)
    expected = np.histogram(gamma_values, bins=edges)[0]
    assert histogram.counts.tolist() == expected.tolist()
    assert histogram.total == int(expected.sum())


def test_histogram_validation():
    with pytest.raises(DataError):
        StreamingHistogram([1.0])
    with pytest.raises(DataError):
        StreamingHistogram([1.0, 1.0, 2.0])
    with pytest.raises(DataError):
        StreamingHistogram([2.0, 1.0])


# ---------------------------------------------------------------------------
# StreamingDescribe.
# ---------------------------------------------------------------------------
def test_streaming_describe_matches_materialized(gamma_values):
    with StreamingDescribe(block_rows=256) as streaming:
        for chunk in _chunked(gamma_values, [613] * 16 + [199]):
            streaming.update(chunk)
        summary = streaming.result()
    reference = describe(gamma_values)
    assert set(summary) == set(reference)
    assert summary["count"] == reference["count"]
    assert summary["min"] == reference["min"]
    assert summary["max"] == reference["max"]
    # Percentiles are bit-identical; mean/std match to float precision.
    assert summary["p50"] == np.percentile(gamma_values, 50.0)
    assert summary["p95"] == np.percentile(gamma_values, 95.0)
    assert summary["mean"] == pytest.approx(reference["mean"], rel=1e-12)
    assert summary["std"] == pytest.approx(reference["std"], rel=1e-10)


def test_streaming_describe_custom_percentiles_and_empty():
    with StreamingDescribe(percentiles=(25.0, 75.0)) as streaming:
        with pytest.raises(DataError):
            streaming.result()
        streaming.update(np.arange(101.0))
        summary = streaming.result()
    assert summary["p25"] == 25.0
    assert summary["p75"] == 75.0
    assert "p50" not in summary
