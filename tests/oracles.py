"""Test-only reference implementations the production code replaced.

* :func:`sampled_lifetimes` is the scalar Monte-Carlo sampler the
  vectorized :class:`~repro.modeling.placement.ScoreTable` replays
  double-for-double; the table's lifetime vectors must match it byte for
  byte, and :func:`sampled_probability` (its rank at one horizon) exactly.
* :func:`roundrobin_advance` is the fleet loop the wake-set scheduler
  replaced: before every heap event it offers *every* unfinished session a
  fast-forward span.  Payloads must not depend on which loop drives them.

:func:`use_reference` swaps either one into the production classes for a
test, so whole fleets and services run on the reference path.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.cloud.revocation import RevocationModel
from repro.modeling.placement import ScoreTable
from repro.scenarios.fleet import FleetRun


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


def use_reference(monkeypatch, scheduler="wakeset", score_backend="table"):
    """Run fleets on the ``roundrobin`` loop and/or score placements with the
    ``sampling`` oracle for the rest of the test.  Shard workers fork from
    the test process, so they inherit the swap."""
    if scheduler == "roundrobin":
        monkeypatch.setattr(FleetRun, "_advance", roundrobin_advance)
    if score_backend == "sampling":
        monkeypatch.setattr(ScoreTable, "probabilities", sampled_probabilities)
