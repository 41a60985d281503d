"""Refit the generative models from a fleet's exported telemetry.

This is the paper's measure -> model loop run at fleet scale: where the
authors fit their revocation and step-time models to 396 real transient
servers, we fit the *same parameter families* to a fleet's exported
telemetry and check that the refit recovers the generating parameters —
a self-consistency test real measurements could never run.

What is refit, and how
----------------------
* ``p_revoke_24h`` per ``(gpu, region)`` cell — the revoked fraction of
  that cell's recorded draws.
* Weibull ``shape``/``scale`` per cell — maximum likelihood on the
  revoked lifetimes under the 24-hour-truncated Weibull, *corrected for
  the hour-of-day resampling tilt*: the generative model importance-
  resamples candidate lifetimes toward preferred local hours, so the
  observed lifetimes follow ``f(t) * w(hour(launch + t)) / Z``, not
  ``f(t)``.  The fit maximizes that tilted likelihood (normalizer
  integrated numerically per launch-hour bin), using the empirically
  estimated tilt.
* Hourly revocation weights per GPU — the observed revocation-hour
  histogram divided by the histogram a *tilt-free* refit Weibull would
  produce given the observed launch hours.  The estimate converges in
  one round trip: untilted Weibull fit -> weight estimate -> tilted
  Weibull refit -> final weight estimate.  Weights are identifiable only
  up to scale (the sampler normalizes per draw), so they are reported
  mean-normalized; finite-candidate resampling also compresses the
  effective tilt toward uniform, so recovery is checked by profile
  correlation rather than per-bin equality (see
  :data:`RECOVERY_TOLERANCES`).
* Step-time anchors per GPU — the median post-warm-up per-step chunk
  time at each observed model complexity, yielding the same
  ``(gflops, seconds)`` anchor family
  :class:`~repro.perf.step_time.StepTimeModel` interpolates.
* ``noise_cov`` per GPU — a MAD-based robust spread of per-chunk step
  times, rescaled by ``sqrt(steps per chunk)`` (a chunk averages that
  many independent per-step draws).

:func:`check_recovery` compares a :class:`RecalibrationResult` against
the generating models under :data:`RECOVERY_TOLERANCES` and returns the
violations; the tests and the CI telemetry smoke both gate on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.gpus import GPU_CATALOG
from repro.cloud.regions import REGION_CATALOG
from repro.cloud.revocation import (
    HOURLY_REVOCATION_WEIGHTS,
    MAX_TRANSIENT_LIFETIME_HOURS,
    REVOCATION_CALIBRATION,
    WEIBULL_LOG_SCALE_RANGE,
    WEIBULL_LOG_SHAPE_RANGE,
    RevocationCellParams,
    RevocationModel,
)
from repro.errors import DataError
from repro.perf.calibration import STEP_TIME_ANCHORS, STEP_TIME_NOISE_COV
from repro.perf.step_time import WARMUP_STEPS, StepTimeModel
from repro.schema import check, choice, declare, fail, integer, mapping, parse, real, sequence, text
from repro.telemetry.reader import TelemetryReader
from repro.units import hour_bins

#: Documented self-consistency tolerances: refitting a fleet's own
#: telemetry must recover the generating parameters within these bounds.
#: Probabilities are absolute, Weibull/anchor comparisons relative;
#: hourly-weight profiles are compared by Pearson correlation of the
#: mean-normalized 24-bin profiles after a 3-bin circular smoothing
#: (the generating profiles are smooth daily curves, and the
#: finite-candidate resampler compresses the effective tilt, so raw
#: per-bin equality is not attainable), with generating zero-weight hours
#: additionally required to stay below ``forbidden_hour_weight`` in the
#: *unsmoothed* estimate; ``noise_cov`` must agree within a factor.
RECOVERY_TOLERANCES: Dict[str, float] = {
    "p_revoke_abs": 0.12,
    "weibull_shape_rel": 0.35,
    "weibull_scale_rel": 0.35,
    "anchor_rel": 0.05,
    "hourly_weight_corr": 0.80,
    "forbidden_hour_weight": 0.15,
    "noise_cov_factor": 2.0,
}

#: Cells with fewer recorded draws than this are left out of the refit
#: calibration (the defaults fill them in when building models).
MIN_CELL_DRAWS = 25

#: Minimum revoked lifetimes required for a per-cell Weibull refit.
MIN_CELL_REVOCATIONS = 12

#: Minimum post-warm-up chunks per ``(gpu, gflops)`` group for an anchor.
MIN_ANCHOR_CHUNKS = 30

#: Lifetime-integration grid resolution (points across the 24-hour cap).
_GRID_POINTS = 960

#: Grid cell width and midpoints (hours) of the lifetime integration.
_DT = MAX_TRANSIENT_LIFETIME_HOURS / _GRID_POINTS
_GRID = (np.arange(_GRID_POINTS) + 0.5) * _DT

#: ``hour_bin(launch_bin + 0.5 + t)`` for each launch bin (row) and grid
#: point ``t`` (column).
_GRID_HOUR_BINS = np.stack([hour_bins(float(launch_bin) + 0.5 + _GRID)
                            for launch_bin in range(24)])


_GPU = choice(*GPU_CATALOG)
_CELL_VALUES = sequence(real(convert=float), low=3, high=3)


def _cell_key(value: Any, where: str) -> Tuple[str, str]:
    """A ``"gpu:region"`` cell, or a ``(gpu, region)`` tuple, of catalog names."""
    cell = tuple(value.split(":")) if isinstance(value, str) else value
    if not (type(cell) is tuple and len(cell) == 2
            and cell[0] in GPU_CATALOG and cell[1] in REGION_CATALOG):
        fail(value, where, "a 'gpu:region' cell of catalog names")
    return cell


def _cell(value: Any, where: str) -> RevocationCellParams:
    """A cell, or its ``[p_revoke_24h, weibull_shape, weibull_scale_hours]`` document."""
    return (value if isinstance(value, RevocationCellParams)
            else RevocationCellParams(*_CELL_VALUES(value, where)))


@dataclass
class RecalibrationResult:
    """Parameters refit from one telemetry artifact.

    Only *observed* cells/GPUs appear here; the model builders merge the
    result over the stock calibration so unobserved cells keep their
    defaults.

    Attributes:
        calibration: Refit per-cell revocation parameters.
        hourly_weights: Refit mean-normalized 24-bin profiles per GPU.
        anchors: Refit ``(gflops, seconds-per-step)`` anchors per GPU.
        noise_cov: Refit relative step-time noise per GPU.
        samples: Diagnostics — draw/revocation/chunk counts per cell/GPU.
    """

    calibration: Dict[Tuple[str, str], RevocationCellParams] = declare(
        mapping(_cell_key, _cell), default_factory=dict)
    hourly_weights: Dict[str, Tuple[float, ...]] = declare(mapping(
        _GPU, sequence(real(ge=0.0, convert=float), low=24, high=24)), default_factory=dict)
    anchors: Dict[str, List[Tuple[float, float]]] = declare(mapping(_GPU, sequence(
        sequence(real(gt=0.0, convert=float), low=2, high=2), convert=list)), default_factory=dict)
    noise_cov: Dict[str, float] = declare(
        mapping(_GPU, real(ge=0.0, convert=float)), default_factory=dict)
    samples: Dict[str, Dict[str, int]] = declare(
        mapping(text, mapping(text, integer(0))), default_factory=dict)

    def __post_init__(self) -> None:
        check(self, "recalibration")

    # ------------------------------------------------------------------
    # Model builders (observed parameters merged over the defaults).
    # ------------------------------------------------------------------
    def revocation_model(self, rng: Optional[np.random.Generator] = None,
                         candidates: int = 8) -> RevocationModel:
        """A :class:`RevocationModel` driven by the refit parameters."""
        calibration = dict(REVOCATION_CALIBRATION)
        calibration.update(self.calibration)
        weights: Dict[str, Sequence[float]] = dict(HOURLY_REVOCATION_WEIGHTS)
        weights.update(self.hourly_weights)
        return RevocationModel(rng=rng, calibration=calibration,
                               hourly_weights=weights, candidates=candidates)

    def step_time_model(self, rng: Optional[np.random.Generator] = None
                        ) -> StepTimeModel:
        """A :class:`StepTimeModel` driven by the refit parameters."""
        anchors = {gpu: list(points) for gpu, points in STEP_TIME_ANCHORS.items()}
        for gpu, points in self.anchors.items():
            if len(points) < 2:
                raise DataError(
                    f"need >= 2 step-time anchors for GPU {gpu!r}, "
                    f"got {len(points)} (too few observed model sizes)")
            anchors[gpu] = list(points)
        noise = dict(STEP_TIME_NOISE_COV)
        noise.update(self.noise_cov)
        return StepTimeModel(rng=rng, anchors=anchors, noise_cov=noise)

    def advisor(self, samples_per_option: int = 200, seed: int = 0):
        """A :class:`~repro.modeling.launch_advisor.LaunchAdvisor` on the
        refit revocation model."""
        from repro.modeling.launch_advisor import LaunchAdvisor
        return LaunchAdvisor(revocation_model=self.revocation_model(),
                             samples_per_option=samples_per_option, seed=seed)

    # ------------------------------------------------------------------
    # JSON-safe round trip (the serve ``recalibrate`` op payload).
    # ------------------------------------------------------------------
    def to_params(self) -> Dict[str, object]:
        """A JSON-safe document round-tripping through :meth:`from_params`."""
        return {
            "calibration": {
                f"{gpu}:{region}": [params.p_revoke_24h, params.weibull_shape,
                                    params.weibull_scale_hours]
                for (gpu, region), params in sorted(self.calibration.items())},
            "hourly_weights": {gpu: list(weights) for gpu, weights
                               in sorted(self.hourly_weights.items())},
            "anchors": {gpu: [[x, y] for x, y in points]
                        for gpu, points in sorted(self.anchors.items())},
            "noise_cov": dict(sorted(self.noise_cov.items())),
            "samples": self.samples,
        }

    @classmethod
    def from_params(cls, document: Mapping[str, object]) -> "RecalibrationResult":
        """Rebuild a result from a :meth:`to_params` document."""
        return parse(cls, document, "recalibration")


# ---------------------------------------------------------------------------
# Truncated-Weibull fitting (with the hour-of-day resampling tilt).
# ---------------------------------------------------------------------------
def _weibull_init(lifetimes: np.ndarray) -> Tuple[float, float]:
    """Log-space method-of-moments initial guess (truncation ignored)."""
    logs = np.log(lifetimes)
    spread = float(logs.std(ddof=1)) if len(logs) > 1 else 0.0
    shape = math.pi / (math.sqrt(6.0) * spread) if spread > 1e-9 else 1.5
    shape = min(max(shape, 0.2), 8.0)
    scale = math.exp(float(logs.mean()) + 0.5772156649015329 / shape)
    return shape, min(max(scale, 0.05), 200.0)


def _grid_density(shape: float, scale: float, cap_mass: float) -> np.ndarray:
    """The Weibull density on the integration grid, divided by ``cap_mass``."""
    return ((shape / scale) * (_GRID / scale) ** (shape - 1.0)
            * np.exp(-((_GRID / scale) ** shape))) / cap_mass


def _tilt_normalizers(density: np.ndarray,
                      tilt_matrix: np.ndarray) -> List[float]:
    """``Z(launch)`` for each row of ``tilt_matrix``: the grid integral of
    ``density`` times that launch bin's tilt (see
    :func:`_fit_truncated_weibull` for why this is exact)."""
    return ((density * tilt_matrix).sum(axis=1) * _DT).tolist()


def _fit_truncated_weibull(lifetimes: np.ndarray,
                           launch_bins: Optional[np.ndarray] = None,
                           tilt: Optional[np.ndarray] = None
                           ) -> Tuple[float, float]:
    """MLE of the 24h-truncated Weibull, optionally tilt-corrected.

    With ``tilt`` (a 24-bin weight profile) and per-sample ``launch_bins``,
    the likelihood of each lifetime ``t`` becomes
    ``f(t) * tilt[bin(launch + t)] / Z(launch)`` — the density the
    hour-preferring resampler actually emits — with ``Z`` integrated on a
    fixed grid per distinct launch bin.

    The tilt rows of the distinct launch bins are stacked once per fit
    into a C-contiguous (bins x grid) matrix, and each likelihood
    evaluation sums all of them in one ``sum(axis=1)``.  A reduction
    along the contiguous last axis runs numpy's pairwise add over each
    row, the same inner loop a 1-D ``.sum()`` runs on that row alone, so
    every normalizer keeps its bits.  A matrix product (``@``, ``dot``,
    ``einsum``) would sum in a different order; Nelder-Mead follows every
    bit of the likelihood, so that would move the fitted parameters.
    """
    from scipy.optimize import minimize

    cap = MAX_TRANSIENT_LIFETIME_HOURS
    (shape_lo, shape_hi), (scale_lo, scale_hi) = WEIBULL_LOG_SHAPE_RANGE, WEIBULL_LOG_SCALE_RANGE
    if tilt is not None:
        tilt = np.asarray(tilt, dtype=np.float64)
        unique_bins, counts = np.unique(launch_bins, return_counts=True)
        counts = counts.tolist()
        # tilt value at hour(launch + t) for every launch bin / grid point.
        tilt_matrix = tilt[_GRID_HOUR_BINS[unique_bins]]
        log_tilt_obs = float(np.log(np.maximum(
            tilt[hour_bins(launch_bins + 0.5 + lifetimes)], 1e-12)).sum())
    else:
        counts, tilt_matrix, log_tilt_obs = [], None, 0.0

    n = len(lifetimes)
    log_t = np.log(lifetimes)

    def negative_log_likelihood(params: np.ndarray) -> float:
        shape = math.exp(min(max(params[0], shape_lo), shape_hi))
        scale = math.exp(min(max(params[1], scale_lo), scale_hi))
        z = (lifetimes / scale) ** shape
        log_f = (math.log(shape / scale) + (shape - 1.0) * (log_t - math.log(scale))
                 - z).sum()
        cap_mass = 1.0 - math.exp(-((cap / scale) ** shape))
        if cap_mass <= 1e-12:
            return 1e18
        value = -(log_f + log_tilt_obs) + n * math.log(cap_mass)
        if tilt_matrix is not None:
            normalizers = _tilt_normalizers(
                _grid_density(shape, scale, cap_mass), tilt_matrix)
            for count, normalizer in zip(counts, normalizers):
                value += count * math.log(max(normalizer, 1e-300))
        return float(value)

    shape0, scale0 = _weibull_init(lifetimes)
    solution = minimize(negative_log_likelihood,
                        np.array([math.log(shape0), math.log(scale0)]),
                        method="Nelder-Mead",
                        options={"xatol": 1e-4, "fatol": 1e-6, "maxiter": 400})
    shape = math.exp(min(max(float(solution.x[0]), shape_lo), shape_hi))
    scale = math.exp(min(max(float(solution.x[1]), scale_lo), scale_hi))
    return shape, scale


def _base_hour_distribution(shape: float, scale: float,
                            launch_bin: int) -> np.ndarray:
    """24-bin distribution of ``hour(launch + T)`` under the *untilted*
    truncated Weibull — the exposure the weight estimate divides by."""
    cap_mass = 1.0 - math.exp(-((MAX_TRANSIENT_LIFETIME_HOURS / scale) ** shape))
    density = _grid_density(shape, scale, max(cap_mass, 1e-12))
    # bincount adds each weight to its bin in input order, as np.add.at
    # into zeros would, so the sums keep their bits.
    distribution = np.bincount(_GRID_HOUR_BINS[launch_bin],
                               weights=density * _DT, minlength=24)
    total = distribution.sum()
    return distribution / total if total > 0 else distribution


# ---------------------------------------------------------------------------
# The refit driver.
# ---------------------------------------------------------------------------
def _collect_draws(reader: TelemetryReader
                   ) -> Dict[Tuple[str, str], Dict[str, np.ndarray]]:
    """Pool draw rows per ``(gpu, region)`` cell across all jobs.

    Consumes :meth:`TelemetryReader.draw_chunks` one chunk at a time and
    groups each chunk's rows by cell with vectorized selection, so the
    transient working set stays one chunk plus the per-cell output (never
    a per-row Python list over the whole fleet).
    """
    pooled: Dict[Tuple[str, str], List[np.ndarray]] = {}
    for rank in reader.ranks:
        gpus = regions = None
        for chunk in reader.draw_chunks(rank):
            if not len(chunk):
                continue
            if gpus is None:
                _ids, gpus, regions = reader.workers(rank)
            worker = chunk[:, 0].astype(np.int64)
            chunk_gpus = np.asarray(gpus)[worker]
            chunk_regions = np.asarray(regions)[worker]
            for gpu in np.unique(chunk_gpus):
                if not gpu:
                    continue
                for region in np.unique(chunk_regions[chunk_gpus == gpu]):
                    select = (chunk_gpus == gpu) & (chunk_regions == region)
                    pooled.setdefault((str(gpu), str(region)), []).append(
                        chunk[select])
    cells: Dict[Tuple[str, str], Dict[str, np.ndarray]] = {}
    for key, entries in pooled.items():
        block = np.concatenate(entries, axis=0)
        cells[key] = {
            "launch_hour": block[:, 1],
            "revoked": block[:, 2] > 0.5,
            "lifetime": block[:, 3],
            "revocation_hour": block[:, 4],
        }
    return cells


def _estimate_weights(cells: Mapping[Tuple[str, str], Dict[str, np.ndarray]],
                      fits: Mapping[Tuple[str, str], Tuple[float, float]]
                      ) -> Dict[str, Tuple[float, ...]]:
    """Observed revocation-hour histogram over the untilted expectation."""
    observed: Dict[str, np.ndarray] = {}
    expected: Dict[str, np.ndarray] = {}
    for (gpu, _region), draws in cells.items():
        key = (gpu, _region)
        if key not in fits:
            continue
        shape, scale = fits[key]
        revoked = draws["revoked"]
        if not revoked.any():
            continue
        hours = draws["revocation_hour"][revoked]
        launches = hour_bins(draws["launch_hour"][revoked])
        obs = observed.setdefault(gpu, np.zeros(24))
        np.add.at(obs, hour_bins(hours), 1.0)
        exp = expected.setdefault(gpu, np.zeros(24))
        for launch_bin in np.unique(launches):
            count = int((launches == launch_bin).sum())
            exp += count * _base_hour_distribution(shape, scale, int(launch_bin))
    weights: Dict[str, Tuple[float, ...]] = {}
    for gpu, obs in observed.items():
        exp = expected[gpu]
        ratio = np.where(exp > 1e-9, obs / np.maximum(exp, 1e-9), 1.0)
        mean = ratio.mean()
        if mean > 0:
            ratio = ratio / mean
        weights[gpu] = tuple(float(v) for v in ratio)
    return weights


def recalibrate(reader: TelemetryReader, *,
                min_cell_draws: int = MIN_CELL_DRAWS,
                min_cell_revocations: int = MIN_CELL_REVOCATIONS,
                min_anchor_chunks: int = MIN_ANCHOR_CHUNKS
                ) -> RecalibrationResult:
    """Refit revocation and step-time parameters from one artifact.

    Args:
        reader: An open :class:`TelemetryReader`.
        min_cell_draws: Cells with fewer draws are skipped entirely.
        min_cell_revocations: Cells with fewer revoked lifetimes keep the
            default Weibull (only ``p_revoke_24h`` is refit).
        min_anchor_chunks: ``(gpu, gflops)`` groups with fewer post-warm-up
            chunks contribute no anchor.
    """
    result = RecalibrationResult()
    cells = _collect_draws(reader)

    # Pass 1: revoked fractions + untilted Weibull fits.
    fits: Dict[Tuple[str, str], Tuple[float, float]] = {}
    p_revoke: Dict[Tuple[str, str], float] = {}
    for key, draws in cells.items():
        total = len(draws["revoked"])
        revoked = int(draws["revoked"].sum())
        result.samples[f"cell:{key[0]}:{key[1]}"] = {
            "draws": total, "revocations": revoked}
        if total < min_cell_draws:
            continue
        p_revoke[key] = revoked / total
        if revoked >= min_cell_revocations:
            lifetimes = draws["lifetime"][draws["revoked"]]
            fits[key] = _fit_truncated_weibull(lifetimes)

    # Pass 2: weight estimate -> tilt-corrected Weibull refit -> final
    # weight estimate off the corrected fits.
    weights = _estimate_weights(cells, fits)
    for key in list(fits):
        gpu = key[0]
        tilt = weights.get(gpu)
        if tilt is None:
            continue
        draws = cells[key]
        revoked = draws["revoked"]
        fits[key] = _fit_truncated_weibull(
            draws["lifetime"][revoked],
            launch_bins=hour_bins(draws["launch_hour"][revoked]),
            tilt=np.asarray(tilt))
    result.hourly_weights = _estimate_weights(cells, fits)

    for key, p in p_revoke.items():
        if key in fits:
            shape, scale = fits[key]
        else:
            default = REVOCATION_CALIBRATION.get(key)
            if default is None:
                continue
            shape, scale = default.weibull_shape, default.weibull_scale_hours
        result.calibration[key] = RevocationCellParams(
            p_revoke_24h=min(max(p, 0.0), 1.0),
            weibull_shape=shape, weibull_scale_hours=scale)

    # Step-time anchors and noise from the step rows.
    groups: Dict[Tuple[str, float], List[np.ndarray]] = {}
    for rank in reader.ranks:
        meta = reader.job_meta(rank)
        gflops = float(meta["gflops"])
        _ids, gpus, _regions = reader.workers(rank)
        for chunk in reader.step_chunks(rank):
            steps = chunk[:, 3]
            worker_step = chunk[:, 5]
            mask = (steps > 0) & (worker_step - steps >= WARMUP_STEPS)
            if not mask.any():
                continue
            worker = chunk[mask, 0].astype(np.int64)
            gpu_names = np.asarray(gpus)[worker]
            durations = chunk[mask, 2] - chunk[mask, 1]
            step_times = durations / steps[mask]
            for gpu in np.unique(gpu_names):
                if not gpu:
                    continue
                select = gpu_names == gpu
                groups.setdefault((str(gpu), gflops), []).append(
                    np.stack([step_times[select], steps[mask][select]]))

    anchor_points: Dict[str, List[Tuple[float, float]]] = {}
    noise_votes: Dict[str, List[Tuple[float, int]]] = {}
    for (gpu, gflops), blocks in sorted(groups.items()):
        data = np.concatenate(blocks, axis=1)
        step_times, steps = data[0], data[1]
        count = len(step_times)
        result.samples[f"steps:{gpu}:{gflops:g}"] = {"chunks": count}
        if count < min_anchor_chunks:
            continue
        anchor = float(np.median(step_times))
        anchor_points.setdefault(gpu, []).append((gflops, anchor))
        # Noise from the dominant chunk size: a chunk of n steps averages n
        # independent draws, so the per-step cov is the chunk-level relative
        # MAD spread scaled back up by sqrt(n).
        values, tallies = np.unique(steps, return_counts=True)
        mode = float(values[int(np.argmax(tallies))])
        sample = step_times[steps == mode]
        center = float(np.median(sample))
        if len(sample) >= min_anchor_chunks and center > 0 and mode > 1:
            mad = float(np.median(np.abs(sample - center)))
            cov = 1.4826 * mad / center * math.sqrt(mode)
            noise_votes.setdefault(gpu, []).append((cov, len(sample)))

    for gpu, points in anchor_points.items():
        result.anchors[gpu] = sorted(points)
    for gpu, votes in noise_votes.items():
        total = sum(count for _cov, count in votes)
        result.noise_cov[gpu] = sum(cov * count for cov, count in votes) / total
    return result


# ---------------------------------------------------------------------------
# Self-consistency gate.
# ---------------------------------------------------------------------------
def _smooth_profile(values: np.ndarray) -> np.ndarray:
    """3-bin circular [0.25, 0.5, 0.25] smoothing of a 24-hour profile."""
    return 0.25 * np.roll(values, 1) + 0.5 * values + 0.25 * np.roll(values, -1)


def check_recovery(result: RecalibrationResult, *,
                   revocation_model: Optional[RevocationModel] = None,
                   step_time_model: Optional[StepTimeModel] = None,
                   tolerances: Optional[Mapping[str, float]] = None
                   ) -> List[str]:
    """Compare a refit against the generating models.

    Returns:
        Human-readable violation messages — empty when every observed
        parameter is recovered within :data:`RECOVERY_TOLERANCES` (or the
        supplied override).
    """
    bounds = dict(RECOVERY_TOLERANCES)
    bounds.update(tolerances or {})
    generator = revocation_model if revocation_model is not None else RevocationModel()
    steps = step_time_model if step_time_model is not None else StepTimeModel()
    violations: List[str] = []

    for (gpu, region), refit in sorted(result.calibration.items()):
        truth = generator.params_for(gpu, region)
        if abs(refit.p_revoke_24h - truth.p_revoke_24h) > bounds["p_revoke_abs"]:
            violations.append(
                f"{gpu}/{region}: p_revoke_24h {refit.p_revoke_24h:.3f} vs "
                f"{truth.p_revoke_24h:.3f} (abs tol {bounds['p_revoke_abs']})")
        shape_err = abs(refit.weibull_shape - truth.weibull_shape) / truth.weibull_shape
        if shape_err > bounds["weibull_shape_rel"]:
            violations.append(
                f"{gpu}/{region}: weibull_shape {refit.weibull_shape:.3f} vs "
                f"{truth.weibull_shape:.3f} (rel {shape_err:.2f} > "
                f"{bounds['weibull_shape_rel']})")
        scale_err = (abs(refit.weibull_scale_hours - truth.weibull_scale_hours)
                     / truth.weibull_scale_hours)
        if scale_err > bounds["weibull_scale_rel"]:
            violations.append(
                f"{gpu}/{region}: weibull_scale {refit.weibull_scale_hours:.3f} "
                f"vs {truth.weibull_scale_hours:.3f} (rel {scale_err:.2f} > "
                f"{bounds['weibull_scale_rel']})")

    for gpu, refit_weights in sorted(result.hourly_weights.items()):
        truth_weights = np.asarray(generator.hourly_weights(gpu), dtype=np.float64)
        normalized_truth = truth_weights / truth_weights.mean()
        estimate = np.asarray(refit_weights, dtype=np.float64)
        smooth_estimate = _smooth_profile(estimate)
        smooth_truth = _smooth_profile(normalized_truth)
        if smooth_estimate.std() > 1e-12 and smooth_truth.std() > 1e-12:
            correlation = float(np.corrcoef(smooth_estimate, smooth_truth)[0, 1])
        else:
            correlation = 0.0
        if correlation < bounds["hourly_weight_corr"]:
            violations.append(
                f"{gpu}: hourly-weight correlation {correlation:.3f} < "
                f"{bounds['hourly_weight_corr']}")
        forbidden = normalized_truth == 0.0
        if forbidden.any():
            worst = float(estimate[forbidden].max())
            if worst > bounds["forbidden_hour_weight"]:
                violations.append(
                    f"{gpu}: weight {worst:.3f} in a zero-weight hour "
                    f"(tol {bounds['forbidden_hour_weight']})")

    for gpu, points in sorted(result.anchors.items()):
        for gflops, seconds in points:
            truth_seconds = steps.mean_step_time(gflops, gpu)
            error = abs(seconds - truth_seconds) / truth_seconds
            if error > bounds["anchor_rel"]:
                violations.append(
                    f"{gpu}@{gflops:g} GFLOPs: step time {seconds:.4f}s vs "
                    f"{truth_seconds:.4f}s (rel {error:.3f} > {bounds['anchor_rel']})")

    for gpu, cov in sorted(result.noise_cov.items()):
        truth_cov = steps.noise_cov(gpu)
        factor = max(cov, 1e-12) / truth_cov
        if factor > bounds["noise_cov_factor"] or factor < 1.0 / bounds["noise_cov_factor"]:
            violations.append(
                f"{gpu}: noise_cov {cov:.4f} vs {truth_cov:.4f} "
                f"(factor {factor:.2f} outside {bounds['noise_cov_factor']})")
    return violations
