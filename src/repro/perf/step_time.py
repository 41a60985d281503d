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
training step draws one sample.  Four things keep that cheap:

* anchor tables are pre-split into sorted ``xs``/``ys`` lists once per GPU
  and segment lookup uses :func:`bisect.bisect_left` instead of a linear
  scan,
* interpolated base step times and noise levels are memoized per
  ``(gflops, gpu)`` / per GPU,
* every path applies one transform, ``max(floor, mean + sigma * z)``, to
  standard normals ``z`` from the generator: one ``standard_normal()``
  per :meth:`StepTimeModel.sample_step_time`, one
  ``standard_normal(count)`` per :meth:`StepTimeModel.sample_steps`.  A
  vector fill consumes the stream one ziggurat draw per element, exactly
  like the equivalent scalar calls, and both paths round the same IEEE
  multiply, then add, so they agree bit for bit by construction -- which
  is what keeps the simulation fast path bit-identical to the chunked
  path.  numpy's ``Generator.normal(loc, scale)``, which drew the golden
  fixtures, computes the same ``loc + scale * z`` in C: on a build that
  does not fuse it into one FMA it gives the same values and generator
  state (``tests/test_perf_step_time.py`` pins this), and
* the per-step ``(mean, scale, floor)`` vectors of a warm-up phase are
  built once per ``(mean, cov, start, count)`` and shared by every model
  in the process (:meth:`StepTimeModel.step_draw_params`), so a warm-up
  chunk costs a ``standard_normal`` call, not numpy's array-argument
  ``normal``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, NamedTuple, Optional, Tuple

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


class StepDrawParams(NamedTuple):
    """Per-step draw parameters of consecutive steps.

    Step ``i`` draws ``max(floor[i], loc[i] + scale[i] * z)`` for a
    standard normal ``z``.  ``rows`` holds the same floats as one
    ``(loc, scale, floor)`` tuple per step, for per-element Python loops.
    The arrays are read-only: they are shared through the memo.
    """

    loc: np.ndarray
    scale: np.ndarray
    floor: np.ndarray
    rows: Tuple[Tuple[float, float, float], ...]


#: Memo of :func:`_step_draw_params`.  Its key is everything the
#: parameters depend on, so every model in the process shares it: the
#: sessions of a fleet running one model on one GPU type reuse the same
#: warm-up phases.  It is emptied when full, and phases longer than
#: ``WARMUP_STEPS`` steps are not kept, so a long block draw pins no
#: memory.
_STEP_DRAW_PARAMS: Dict[Tuple[float, float, int, int], StepDrawParams] = {}
_STEP_DRAW_PARAMS_ENTRIES = 256


def _step_draw_params(mean: float, cov: float, start: int,
                      count: int) -> StepDrawParams:
    """Draw parameters of ``count`` steps from ``start``, memoized."""
    key = (mean, cov, start, count)
    params = _STEP_DRAW_PARAMS.get(key)
    if params is None:
        warm_end = max(start, min(WARMUP_STEPS, start + count))
        means = [mean * _warmup_factor(index)
                 for index in range(start, warm_end)]
        means.extend([mean] * (start + count - warm_end))
        loc = np.asarray(means, dtype=np.float64)
        scale, floor = loc * cov, loc * 0.2
        for vector in (loc, scale, floor):
            vector.flags.writeable = False
        params = StepDrawParams(loc, scale, floor, tuple(
            zip(means, scale.tolist(), floor.tolist())))
        if count <= WARMUP_STEPS:
            if len(_STEP_DRAW_PARAMS) >= _STEP_DRAW_PARAMS_ENTRIES:
                _STEP_DRAW_PARAMS.clear()
            _STEP_DRAW_PARAMS[key] = params
    return params


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
        sample = mean + (mean * cov) * self._rng.standard_normal()
        return float(max(mean * 0.2, sample))

    def sample_steps(self, model_gflops: float, gpu_name: str, count: int,
                     start_step_index: int = 10_000,
                     ps_utilization: float = 0.0,
                     slowdown: float = 1.0) -> np.ndarray:
        """Sample ``count`` consecutive noisy step durations in one RNG call.

        Bit-for-bit identical to ``count`` sequential
        :meth:`sample_step_time` calls with ``step_index`` running from
        ``start_step_index`` to ``start_step_index + count - 1``: the
        vectorized ``Generator.standard_normal`` consumes the underlying
        bit stream one draw per element, exactly like the scalar calls, and
        the mean / noise / clip arithmetic uses the same expressions.

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
            samples = mean + (mean * cov) * self._rng.standard_normal(count)
            return np.maximum(mean * 0.2, samples)
        loc, scale, floor, _rows = _step_draw_params(mean, cov,
                                                     start_step_index, count)
        return np.maximum(floor, loc + scale * self._rng.standard_normal(count))

    def step_draw_params(self, model_gflops: float, gpu_name: str,
                         start_step_index: int, count: int,
                         ps_utilization: float = 0.0,
                         slowdown: float = 1.0) -> StepDrawParams:
        """Per-step draw parameters of ``count`` steps from ``start_step_index``.

        They are the exact intermediates of :meth:`sample_steps`: applying
        them to ``generator.standard_normal(count)`` element by element
        reproduces its draws bit for bit.  Phases of up to
        ``WARMUP_STEPS`` steps are memoized per ``(mean, cov,
        start_step_index, count)``.
        """
        mean = self.mean_step_time(model_gflops, gpu_name) * max(1.0, slowdown)
        cov = (self.noise_cov(gpu_name)
               + PS_CONTENTION_COV * min(1.0, max(0.0, float(ps_utilization))))
        return _step_draw_params(mean, cov, start_step_index, count)
