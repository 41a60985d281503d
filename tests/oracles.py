"""Test-only reference implementations the production code replaced.

* :func:`sampled_lifetimes` is the scalar Monte-Carlo sampler the
  vectorized :class:`~repro.modeling.placement.ScoreTable` replays
  double-for-double; the table's lifetime vectors must match it byte for
  byte, and :func:`sampled_probability` (its rank at one horizon) exactly.
* :func:`roundrobin_advance` is the fleet loop the wake-set scheduler
  replaced: before every heap event it offers *every* unfinished session a
  fast-forward span.  Payloads must not depend on which loop drives them.
* :func:`heap_merge_percentiles` is the walk
  :meth:`~repro.analysis.streaming.ExactPercentiles.percentile` replaced:
  a ``heapq.merge`` of the spilled runs, one Python float at a time, up to
  the highest rank it needs.  Block selection must give the same bits.
* :func:`per_row_normalizers` is the per-launch-bin loop of the tilted
  Weibull likelihood, one 1-D sum per bin (:func:`per_bin_normalizers`
  builds its rows from scratch), and :func:`add_at_hour_distribution` the
  ``np.add.at`` exposure histogram; the batched ``sum(axis=1)`` and
  ``np.bincount`` must give the same bits.

:func:`use_reference` swaps either one into the production classes for a
test, so whole fleets and services run on the reference path.
"""

from __future__ import annotations

import heapq
import math
import zlib

import numpy as np

from repro.cloud.revocation import MAX_TRANSIENT_LIFETIME_HOURS, RevocationModel
from repro.modeling.placement import ScoreTable
from repro.scenarios.fleet import FleetRun
from repro.units import hour_bins


def sampled_lifetimes(table, gpu_name, region_name, hour):
    """Sorted revoked lifetimes of ``table.samples`` fresh draws from the
    option's own generator (seeded like the table's tape)."""
    option = zlib.crc32(f"place:{gpu_name}:{region_name}:{hour}".encode("utf-8"))
    model = RevocationModel(
        rng=np.random.default_rng(table.seed * 9973 + option),
        calibration=table._model._calibration,
        hourly_weights=table._model._hourly_weights)
    outcomes = model.sample_batch(gpu_name, region_name, table.samples,
                                  launch_hour_local=float(hour))
    return np.sort(np.array([outcome.lifetime_hours for outcome in outcomes
                             if outcome.revoked], dtype=np.float64))


def sampled_probability(table, gpu_name, region_name, hour, duration_hours):
    """Fraction of ``table.samples`` fresh draws revoked within the horizon."""
    lifetimes = sampled_lifetimes(table, gpu_name, region_name, hour)
    return int((lifetimes <= duration_hours).sum()) / table.samples


def sampled_probabilities(table, gpu_name, cells, duration_hours):
    """Drop-in for :meth:`ScoreTable.probabilities` over the sampler."""
    return np.array([sampled_probability(table, gpu_name, region, hour,
                                         duration_hours)
                     for region, hour in cells])


def roundrobin_advance(run, max_events):
    """Drop-in for ``FleetRun._advance``: offer every session a turn."""
    processed = 0
    next_report = run._progress_interval
    while processed < max_events:
        if run._progress_hook is not None and processed >= next_report:
            run._progress_hook()
            next_report = processed + run._progress_interval
        for job in run.jobs:
            if not job.session.finished:
                processed += job.session.fast_forward(max_events - processed)
        if all(job.session.finished or job.stalled for job in run.jobs):
            break
        if run.simulator.step() is None:
            break
        processed += 1
    return processed


def heap_merge_percentiles(accumulator, percentiles):
    """Exact percentiles of an :class:`ExactPercentiles` stream by walking
    its heap-merged sorted runs up to the highest rank needed (NaN-free
    streams only: NaN breaks the heap's ordering)."""
    n = accumulator.count
    virtuals = [(float(q) / 100.0) * (n - 1) for q in percentiles]
    needed = {}
    for virtual in virtuals:
        if virtual >= n - 1:
            needed[n - 1] = math.nan
        else:
            lower = int(math.floor(virtual))
            needed[lower] = math.nan
            needed[lower + 1] = math.nan
    runs = []
    for path in accumulator._runs:
        with open(path, "rb") as handle:
            runs.append(np.frombuffer(handle.read(), dtype="<f8").tolist())
    if accumulator._pending_rows:
        runs.append(np.sort(np.concatenate(accumulator._pending)).tolist())
    highest = max(needed)
    for rank, value in enumerate(heapq.merge(*runs)):
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
        diff = b - a
        value = a + diff * gamma
        if gamma >= 0.5:
            value = b - diff * (1.0 - gamma)
        results.append(value)
    return results


def _lifetime_grid():
    """The likelihood's integration grid (cell midpoints) and cell width."""
    cap = MAX_TRANSIENT_LIFETIME_HOURS
    return (np.arange(960) + 0.5) * (cap / 960), cap / 960


def _grid_density(shape, scale, cap_mass, grid):
    return ((shape / scale) * (grid / scale) ** (shape - 1.0)
            * np.exp(-((grid / scale) ** shape))) / cap_mass


def per_row_normalizers(density, tilt_rows):
    """Drop-in for ``recalibrate._tilt_normalizers``: one 1-D sum per
    launch bin's tilt row."""
    _grid, dt = _lifetime_grid()
    return [float((density * row).sum() * dt) for row in tilt_rows]


def per_bin_normalizers(shape, scale, tilt, launch_bins):
    """The tilted likelihood's normalizer ``Z`` for each distinct launch
    bin (ascending), each tilt row built from its own ``hour_bins``."""
    grid, _dt = _lifetime_grid()
    cap_mass = 1.0 - math.exp(-((MAX_TRANSIENT_LIFETIME_HOURS / scale)
                                ** shape))
    tilt = np.asarray(tilt, dtype=np.float64)
    rows = [tilt[hour_bins(float(launch_bin) + 0.5 + grid)]
            for launch_bin in np.unique(launch_bins)]
    return per_row_normalizers(_grid_density(shape, scale, cap_mass, grid),
                               rows)


def add_at_hour_distribution(shape, scale, launch_bin):
    """``recalibrate._base_hour_distribution`` accumulated with
    ``np.add.at``."""
    grid, dt = _lifetime_grid()
    cap_mass = 1.0 - math.exp(-((MAX_TRANSIENT_LIFETIME_HOURS / scale)
                                ** shape))
    density = _grid_density(shape, scale, max(cap_mass, 1e-12), grid)
    distribution = np.zeros(24)
    np.add.at(distribution, hour_bins(float(launch_bin) + 0.5 + grid),
              density * dt)
    total = distribution.sum()
    return distribution / total if total > 0 else distribution


def use_reference(monkeypatch, scheduler="wakeset", score_backend="table"):
    """Run fleets on the ``roundrobin`` loop and/or score placements with the
    ``sampling`` oracle for the rest of the test.  Shard workers fork from
    the test process, so they inherit the swap."""
    if scheduler == "roundrobin":
        monkeypatch.setattr(FleetRun, "_advance", roundrobin_advance)
    if score_backend == "sampling":
        monkeypatch.setattr(ScoreTable, "probabilities", sampled_probabilities)
