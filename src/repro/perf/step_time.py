"""Ground-truth step-time model.

Answers "how long does one training step take for model M on GPU G?", the
quantity the paper measures in Table I and Fig. 2.  The model interpolates
between the Table I anchors (piecewise linear in model GFLOPs, per GPU) and
adds the small, stable noise the paper observes (maximum coefficient of
variation of 0.02 after warm-up).

A short warm-up transient is also modeled: the paper discards the first 100
steps of every measurement because early steps are slower (input pipeline
warm-up, XLA compilation, cache effects); reproducing the transient lets
the measurement methodology (discarding those steps) matter.

Performance notes
-----------------
The model sits on the simulation core's hottest path: every simulated
training step draws one sample.  Three things keep that cheap:

* anchor tables are pre-split into sorted ``xs``/``ys`` lists once per GPU
  and segment lookup uses :func:`bisect.bisect_left` instead of a linear
  scan,
* interpolated base step times and noise levels are memoized per
  ``(gflops, gpu)`` / per GPU, and
* :meth:`StepTimeModel.sample_steps` draws a whole vector of step durations
  with a single ``Generator.normal`` call.  The vector draw consumes the
  generator's stream exactly like the equivalent sequence of scalar
  :meth:`StepTimeModel.sample_step_time` calls and reproduces their values
  bit for bit, which is what lets the simulation fast-path stay
  bit-identical to the chunked path.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cloud.gpus import get_gpu
from repro.errors import ConfigurationError
from repro.perf.calibration import (
    GPU_SATURATION_RATIO_THRESHOLD,
    GPU_SATURATION_STEEPNESS,
    PS_CONTENTION_COV,
    STEP_TIME_ANCHORS,
    STEP_TIME_NOISE_COV,
)

#: Minimum step time as a fraction of the smallest anchor, guarding the
#: linear extrapolation for very small custom models.
_MIN_STEP_TIME_FRACTION = 0.25

#: Warm-up transient: the first ``WARMUP_STEPS`` steps are slowed by a
#: factor decaying from ``1 + WARMUP_EXTRA`` to 1.
WARMUP_STEPS = 100
WARMUP_EXTRA = 0.6

#: Lazily built table of the per-step warm-up slowdown factors.  Each entry
#: is computed with exactly the scalar expression the model always used, so
#: vectorized sampling multiplies by the very same floats.
_WARMUP_FACTORS: List[float] = []


def _warmup_factor(step_index: int) -> float:
    """Warm-up slowdown factor for one early step (``step_index < WARMUP_STEPS``)."""
    if not _WARMUP_FACTORS:
        for index in range(WARMUP_STEPS):
            progress = index / WARMUP_STEPS
            _WARMUP_FACTORS.append(1.0 + WARMUP_EXTRA * (1.0 - progress) ** 2)
    return _WARMUP_FACTORS[step_index]


def _interpolate(xs, ys, x: float) -> float:
    """Piecewise-linear interpolation with end-slope extrapolation.

    ``xs`` must be sorted ascending.  The arithmetic matches the original
    linear-scan implementation exactly (same expressions, same rounding);
    only the segment lookup changed to a bisection.
    """
    if x <= xs[0]:
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return ys[0] + slope * (x - xs[0])
    if x >= xs[-1]:
        slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
        return ys[-1] + slope * (x - xs[-1])
    # First segment i with xs[i] <= x <= xs[i + 1], as the linear scan found.
    i = bisect_left(xs, x) - 1
    fraction = (x - xs[i]) / (xs[i + 1] - xs[i])
    return ys[i] + fraction * (ys[i + 1] - ys[i])


class StepTimeModel:
    """Calibrated per-GPU step-time ground truth.

    Args:
        rng: Random generator used when sampling noisy step durations.
        anchors: Optional override of the per-GPU ``(gflops, step time)``
            anchor tables.
        noise_cov: Optional override of the per-GPU noise level.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 anchors=None, noise_cov=None):
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._anchors = {gpu: sorted(points) for gpu, points in
                         (anchors or STEP_TIME_ANCHORS).items()}
        # Pre-split anchor tables (satisfies the bisect lookup and avoids
        # rebuilding the coordinate lists on every interpolation).
        self._anchor_xs: Dict[str, List[float]] = {
            gpu: [point[0] for point in points]
            for gpu, points in self._anchors.items()}
        self._anchor_ys: Dict[str, List[float]] = {
            gpu: [point[1] for point in points]
            for gpu, points in self._anchors.items()}
        self._noise_cov = dict(noise_cov or STEP_TIME_NOISE_COV)
        self._mean_cache: Dict[Tuple[float, str], float] = {}
        self._cov_cache: Dict[str, float] = {}
        self._efficiency_cache: Dict[Tuple[float, str], float] = {}

    @property
    def generator(self) -> np.random.Generator:
        """The generator every step-duration draw consumes."""
        return self._rng

    # ------------------------------------------------------------------
    # Deterministic quantities.
    # ------------------------------------------------------------------
    def mean_step_time(self, model_gflops: float, gpu_name: str) -> float:
        """Mean seconds per training step for a single, uncontended worker.

        Args:
            model_gflops: Model complexity in GFLOPs per image (``Cm``).
            gpu_name: GPU type of the worker.
        """
        if model_gflops <= 0:
            raise ConfigurationError("model_gflops must be positive")
        key = (model_gflops, gpu_name)
        cached = self._mean_cache.get(key)
        if cached is not None:
            return cached
        gpu = get_gpu(gpu_name)
        xs = self._anchor_xs[gpu.name]
        ys = self._anchor_ys[gpu.name]
        interpolated = _interpolate(xs, ys, model_gflops)
        floor = ys[0] * _MIN_STEP_TIME_FRACTION
        value = float(max(floor, interpolated))
        self._mean_cache[key] = value
        return value

    def mean_speed(self, model_gflops: float, gpu_name: str) -> float:
        """Mean training speed (steps/second) for a single worker."""
        return 1.0 / self.mean_step_time(model_gflops, gpu_name)

    def computation_ratio(self, model_gflops: float, gpu_name: str) -> float:
        """The paper's computation ratio ``Cm / Cgpu`` (GFLOPs / teraflops)."""
        return model_gflops / get_gpu(gpu_name).teraflops

    def scaling_efficiency(self, model_gflops: float, gpu_name: str) -> float:
        """Marginal contribution of additional workers of this GPU type.

        Reproduces Fig. 4's Shake-Shake-Big observation: when the model's
        computation ratio exceeds a threshold for the given GPU, adding more
        of those workers stops improving cluster speed.  The value is ~1 for
        comfortable models and decays towards 0 past the threshold.
        """
        key = (model_gflops, gpu_name)
        cached = self._efficiency_cache.get(key)
        if cached is not None:
            return cached
        ratio = self.computation_ratio(model_gflops, gpu_name)
        exponent = (ratio - GPU_SATURATION_RATIO_THRESHOLD) * GPU_SATURATION_STEEPNESS
        # Numerically safe logistic.
        if exponent > 50:
            value = 0.0
        elif exponent < -50:
            value = 1.0
        else:
            value = float(1.0 / (1.0 + np.exp(exponent)))
        self._efficiency_cache[key] = value
        return value

    # ------------------------------------------------------------------
    # Sampling.
    # ------------------------------------------------------------------
    def noise_cov(self, gpu_name: str) -> float:
        """Baseline relative step-time noise for a GPU type."""
        cached = self._cov_cache.get(gpu_name)
        if cached is not None:
            return cached
        value = self._noise_cov[get_gpu(gpu_name).name]
        self._cov_cache[gpu_name] = value
        return value

    def sample_step_time(self, model_gflops: float, gpu_name: str,
                         step_index: int = 10_000,
                         ps_utilization: float = 0.0,
                         slowdown: float = 1.0) -> float:
        """Sample one noisy step duration.

        Args:
            model_gflops: Model complexity in GFLOPs per image.
            gpu_name: GPU type of the worker.
            step_index: Global step number, used to apply the warm-up
                transient for early steps.
            ps_utilization: Parameter-server utilization in [0, 1]; higher
                contention adds variability (Table III).
            slowdown: Multiplicative slowdown applied to the mean, used by
                the cluster model when the PS bottleneck stretches steps.
        """
        if step_index < 0:
            raise ConfigurationError("step_index must be non-negative")
        mean = self.mean_step_time(model_gflops, gpu_name) * max(1.0, slowdown)
        if step_index < WARMUP_STEPS:
            mean *= _warmup_factor(step_index)
        # Scalar clamp; identical to np.clip without the array dispatch.
        cov = (self.noise_cov(gpu_name)
               + PS_CONTENTION_COV * min(1.0, max(0.0, float(ps_utilization))))
        sample = self._rng.normal(mean, mean * cov)
        return float(max(mean * 0.2, sample))

    def sample_steps(self, model_gflops: float, gpu_name: str, count: int,
                     start_step_index: int = 10_000,
                     ps_utilization: float = 0.0,
                     slowdown: float = 1.0) -> np.ndarray:
        """Sample ``count`` consecutive noisy step durations in one RNG call.

        Bit-for-bit identical to ``count`` sequential
        :meth:`sample_step_time` calls with ``step_index`` running from
        ``start_step_index`` to ``start_step_index + count - 1``: the
        vectorized ``Generator.normal`` consumes the underlying bit stream
        one draw per element, exactly like the scalar calls, and the mean /
        noise / clip arithmetic uses the same expressions.

        Args:
            model_gflops: Model complexity in GFLOPs per image.
            gpu_name: GPU type of the worker.
            count: Number of consecutive steps to sample.
            start_step_index: Global step number of the first sampled step.
            ps_utilization: Parameter-server utilization in [0, 1].
            slowdown: Multiplicative slowdown applied to the mean.

        Returns:
            A float64 array of ``count`` step durations in seconds.
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        if start_step_index < 0:
            raise ConfigurationError("step_index must be non-negative")
        if count == 0:
            return np.empty(0, dtype=np.float64)
        mean = self.mean_step_time(model_gflops, gpu_name) * max(1.0, slowdown)
        cov = (self.noise_cov(gpu_name)
               + PS_CONTENTION_COV * min(1.0, max(0.0, float(ps_utilization))))
        if start_step_index >= WARMUP_STEPS:
            # Constant mean: one block draw from the shared stream.
            samples = self._rng.normal(mean, mean * cov, size=count)
            return np.maximum(mean * 0.2, samples)
        warm_end = min(WARMUP_STEPS, start_step_index + count)
        means = [mean * _warmup_factor(index)
                 for index in range(start_step_index, warm_end)]
        means.extend([mean] * (start_step_index + count - warm_end))
        mean_vec = np.asarray(means, dtype=np.float64)
        samples = self._rng.normal(mean_vec, mean_vec * cov)
        return np.maximum(mean_vec * 0.2, samples)

    def chunk_draw_params(self, model_gflops: float, gpu_name: str,
                          ps_utilization: float = 0.0,
                          slowdown: float = 1.0) -> Tuple[float, float, float]:
        """Precompute the ``(mean, sigma, floor)`` of post-warm-up draws.

        Hot replay loops call :meth:`sample_chunk` with these instead of
        :meth:`sample_steps`, skipping the per-call mean/cov lookups; the
        values are the exact intermediates of the post-warm-up branch of
        :meth:`sample_steps`, so the draws are identical.
        """
        mean = self.mean_step_time(model_gflops, gpu_name) * max(1.0, slowdown)
        cov = (self.noise_cov(gpu_name)
               + PS_CONTENTION_COV * min(1.0, max(0.0, float(ps_utilization))))
        return mean, mean * cov, mean * 0.2

    def sample_chunk_raw(self, params: Tuple[float, float, float],
                         count: int) -> np.ndarray:
        """Post-warm-up draws from precomputed chunk parameters, unfloored.

        Consumes the RNG stream exactly like the
        ``start_step_index >= WARMUP_STEPS`` branch of :meth:`sample_steps`;
        the caller must clamp each value to ``params[2]`` (the floor) —
        ``v if v > floor else floor`` per element reproduces the
        ``np.maximum`` of :meth:`sample_steps` bit for bit while skipping
        the array pass.
        """
        mean, sigma, _floor = params
        return self._rng.normal(mean, sigma, size=count)
