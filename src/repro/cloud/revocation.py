"""Transient-server revocation model.

Google preemptible VMs can be revoked at any time and have a maximum
lifetime of 24 hours.  The paper launches 396 transient GPU servers across
six regions over twelve non-consecutive days and observes (Section V-C):

* revocation frequency depends on region and GPU type (Table V),
* lifetime distributions differ sharply between regions (Fig. 8) — e.g.
  more than half of europe-west1 K80 servers are revoked within two hours
  while fewer than 5% of us-west1 K80 servers are,
* revocations cluster at particular local hours of the day (Fig. 9), and
* the server's workload (idle vs. stressed) does not affect revocations.

This module provides a calibrated generative model with those properties.
For each ``(GPU, region)`` pair, the probability of revocation within the
24-hour maximum lifetime matches Table V, and the conditional revocation
time follows a truncated Weibull distribution whose shape/scale reproduce
the qualitative CDFs of Fig. 8.  Hour-of-day preferences are applied by
importance resampling among candidate revocation times, which preserves the
marginal lifetime distribution while concentrating revocations at the
paper's observed local hours.

Sampling is batched through numpy: the candidate lifetimes of one draw
come from a single vectorized ``Generator.uniform`` call and the
hourly-weight resampling from one vectorized weight gather, consuming the
underlying bit stream exactly like the scalar draws they replaced
(``tests/test_cloud_revocation.py`` pins the draw-order contract with a
golden reimplementation of the scalar loop).  Per-cell calibration
lookups, truncation quantiles, and weight tables are memoized, so
fleet-scale callers (:meth:`RevocationModel.sample_batch`,
:meth:`RevocationModel.mean_time_to_revocation`, the launch advisor)
spend their time in the RNG, not in Python bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.gpus import get_gpu
from repro.cloud.regions import get_region
from repro.errors import ConfigurationError
from repro.schema import check, declare, real
from repro.units import hour_bins, wrap_hour

#: Maximum lifetime of a transient (preemptible) server, in hours.
MAX_TRANSIENT_LIFETIME_HOURS = 24.0

#: Log ranges of a cell's Weibull shape and scale (hours); the refit clamps its fit into them.
WEIBULL_LOG_SHAPE_RANGE = (-3.0, 3.0)
WEIBULL_LOG_SCALE_RANGE = (-4.0, 6.0)


@dataclass(frozen=True)
class RevocationCellParams:
    """Calibrated revocation parameters for one ``(GPU, region)`` pair.

    Attributes:
        p_revoke_24h: Probability the server is revoked before the 24-hour
            maximum lifetime (Table V).
        weibull_shape: Shape of the conditional time-to-revocation Weibull.
        weibull_scale_hours: Scale (hours) of the conditional Weibull.
    """

    p_revoke_24h: float = declare(real(ge=0.0, le=1.0))
    weibull_shape: float = declare(real(*map(math.exp, WEIBULL_LOG_SHAPE_RANGE)))
    weibull_scale_hours: float = declare(real(*map(math.exp, WEIBULL_LOG_SCALE_RANGE)))

    def __post_init__(self) -> None:
        check(self, "revocation cell")


#: Calibrated parameters for every ``(gpu, region)`` cell of Table V.
#: ``p_revoke_24h`` matches the table exactly; shapes/scales are chosen so
#: the lifetime CDFs reproduce the Fig. 8 narrative (fast-dying europe-west1
#: K80s, long-lived us-west1 K80s, short-lived V100s, ...).
REVOCATION_CALIBRATION: Dict[Tuple[str, str], RevocationCellParams] = {
    # K80.
    ("k80", "us-east1"): RevocationCellParams(0.4667, 1.2, 12.0),
    ("k80", "us-central1"): RevocationCellParams(0.5625, 1.4, 16.0),
    ("k80", "us-west1"): RevocationCellParams(0.2292, 1.6, 15.0),
    ("k80", "europe-west1"): RevocationCellParams(0.6667, 0.70, 1.2),
    # P100.
    ("p100", "us-east1"): RevocationCellParams(0.70, 1.0, 8.0),
    ("p100", "us-central1"): RevocationCellParams(0.5333, 1.2, 10.0),
    ("p100", "us-west1"): RevocationCellParams(0.6667, 1.0, 7.0),
    ("p100", "europe-west1"): RevocationCellParams(0.2667, 1.4, 14.0),
    # V100.
    ("v100", "us-central1"): RevocationCellParams(0.6667, 1.0, 7.0),
    ("v100", "us-west1"): RevocationCellParams(0.7333, 0.9, 6.0),
    ("v100", "europe-west4"): RevocationCellParams(0.43, 1.2, 10.0),
    ("v100", "asia-east1"): RevocationCellParams(0.47, 1.2, 11.0),
}

#: Hour-of-day revocation intensity profiles (24 weights, local time) per
#: GPU type (Fig. 9): K80 revocations peak at 10 AM; V100 revocations do not
#: occur between 4 PM and 8 PM; P100 shows two moderate peaks.
HOURLY_REVOCATION_WEIGHTS: Dict[str, Tuple[float, ...]] = {
    "k80": (0.6, 0.5, 0.5, 0.5, 0.6, 0.7, 0.9, 1.2, 1.8, 2.4, 3.2, 2.2,
            1.6, 1.3, 1.2, 1.1, 1.0, 1.0, 0.9, 0.9, 0.8, 0.7, 0.6, 0.6),
    "p100": (0.7, 0.6, 0.6, 0.6, 0.7, 0.8, 1.0, 1.4, 2.0, 1.8, 1.4, 1.2,
             1.2, 1.6, 2.0, 1.6, 1.2, 1.0, 0.9, 0.8, 0.8, 0.7, 0.7, 0.7),
    "v100": (0.8, 0.7, 0.7, 0.8, 0.9, 1.0, 1.3, 1.8, 2.2, 1.8, 1.4, 1.2,
             1.0, 0.9, 0.8, 0.6, 0.0, 0.0, 0.0, 0.0, 0.8, 0.9, 0.8, 0.8),
}


@dataclass(frozen=True)
class RevocationOutcome:
    """The fate of one launched transient server.

    Attributes:
        revoked: Whether the server was revoked before the 24-hour cutoff.
        lifetime_hours: Observed lifetime in hours (24.0 when it survived).
        revocation_hour_local: Local hour-of-day at which the revocation
            occurred, or ``None`` when the server survived.
    """

    revoked: bool
    lifetime_hours: float
    revocation_hour_local: Optional[float]

    @property
    def lifetime_seconds(self) -> float:
        """Lifetime in seconds."""
        return self.lifetime_hours * 3600.0


class RevocationModel:
    """Calibrated generative model of transient-server revocations.

    Args:
        rng: Random generator used for sampling.
        calibration: Optional override of the per-cell calibration table.
        hourly_weights: Optional override of the hour-of-day profiles.
        candidates: Number of candidate revocation times drawn for the
            hour-of-day importance resampling step.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 calibration: Optional[Dict[Tuple[str, str], RevocationCellParams]] = None,
                 hourly_weights: Optional[Dict[str, Sequence[float]]] = None,
                 candidates: int = 8):
        if candidates < 1:
            raise ConfigurationError("candidates must be >= 1")
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self._calibration = dict(calibration or REVOCATION_CALIBRATION)
        self._hourly_weights = {name: tuple(weights) for name, weights in
                                (hourly_weights or HOURLY_REVOCATION_WEIGHTS).items()}
        self._candidates = candidates
        #: Memoized per-cell sampling state: ``(params, cap_quantile,
        #: inv_shape, scale, p_revoke, weights_array)`` keyed by the raw
        #: ``(gpu_name, region_name)`` the caller used.
        self._cell_cache: Dict[Tuple[str, str],
                               Tuple[RevocationCellParams, float, float,
                                     float, float, np.ndarray]] = {}

    # ------------------------------------------------------------------
    # Calibration lookups.
    # ------------------------------------------------------------------
    def params_for(self, gpu_name: str, region_name: str) -> RevocationCellParams:
        """Calibrated parameters for a ``(GPU, region)`` cell.

        Raises:
            ConfigurationError: If the combination is not offered (the
                ``N/A`` cells of Table V).
        """
        gpu = get_gpu(gpu_name)
        region = get_region(region_name)
        key = (gpu.name, region.name)
        if key not in self._calibration:
            raise ConfigurationError(
                f"GPU {gpu.name!r} is not offered as a transient server in {region.name!r}")
        return self._calibration[key]

    def available_cells(self) -> Sequence[Tuple[str, str]]:
        """All calibrated ``(gpu, region)`` combinations."""
        return tuple(sorted(self._calibration))

    def hourly_weights(self, gpu_name: str) -> Tuple[float, ...]:
        """The 24-hour local-time revocation intensity profile for a GPU."""
        gpu = get_gpu(gpu_name)
        return self._hourly_weights[gpu.name]

    # ------------------------------------------------------------------
    # Analytic distribution functions (used by the prediction models).
    # ------------------------------------------------------------------
    def revocation_probability(self, gpu_name: str, region_name: str,
                               duration_hours: float) -> float:
        """Probability a server is revoked within ``duration_hours``.

        This is the model-side counterpart of querying the empirical CDFs of
        Fig. 8, used by the expected-revocation term of Eq. (5).
        """
        if duration_hours <= 0:
            return 0.0
        params = self.params_for(gpu_name, region_name)
        horizon = min(duration_hours, MAX_TRANSIENT_LIFETIME_HOURS)
        # CDF of the truncated Weibull at the horizon.
        shape, scale = params.weibull_shape, params.weibull_scale_hours
        raw = 1.0 - np.exp(-((horizon / scale) ** shape))
        raw_at_max = 1.0 - np.exp(-((MAX_TRANSIENT_LIFETIME_HOURS / scale) ** shape))
        conditional = raw / raw_at_max if raw_at_max > 0 else 1.0
        return float(params.p_revoke_24h * min(1.0, conditional))

    def lifetime_cdf(self, gpu_name: str, region_name: str,
                     hours: Sequence[float]) -> np.ndarray:
        """Lifetime CDF values at the given hour grid (Fig. 8, model side)."""
        return np.array([self.revocation_probability(gpu_name, region_name, h)
                         for h in hours])

    def mean_time_to_revocation(self, gpu_name: str, region_name: str,
                                samples: int = 4000,
                                rng: Optional[np.random.Generator] = None) -> float:
        """Monte-Carlo mean lifetime in hours (survivors count as 24 h).

        The expected-lifetime estimate behind the advisor-facing callers
        (e.g. :mod:`repro.modeling.launch_advisor`); the draws go through
        the batched sampler, so the same seeds give the same estimate as
        the scalar loop this replaced, faster.
        """
        generator = rng if rng is not None else np.random.default_rng(12345)
        model = RevocationModel(rng=generator, calibration=self._calibration,
                                hourly_weights=self._hourly_weights,
                                candidates=self._candidates)
        outcomes = model.sample_batch(gpu_name, region_name, samples)
        lifetimes = np.fromiter((outcome.lifetime_hours for outcome in outcomes),
                                dtype=np.float64, count=samples)
        return float(lifetimes.mean())

    # ------------------------------------------------------------------
    # Sampling.
    # ------------------------------------------------------------------
    def _sample_conditional_lifetime(self, params: RevocationCellParams) -> float:
        """Sample a revocation time (hours) conditional on revocation."""
        shape, scale = params.weibull_shape, params.weibull_scale_hours
        # Inverse-CDF sampling of the Weibull truncated to the 24-hour cap.
        cap_quantile = 1.0 - np.exp(-((MAX_TRANSIENT_LIFETIME_HOURS / scale) ** shape))
        uniform = self._rng.uniform(0.0, cap_quantile)
        return float(scale * (-np.log(1.0 - uniform)) ** (1.0 / shape))

    def _cell_state(self, gpu_name: str, region_name: str):
        """Memoized per-cell sampling state (see ``_cell_cache``)."""
        key = (gpu_name, region_name)
        state = self._cell_cache.get(key)
        if state is None:
            gpu = get_gpu(gpu_name)
            params = self.params_for(gpu_name, region_name)
            shape, scale = params.weibull_shape, params.weibull_scale_hours
            cap_quantile = 1.0 - np.exp(
                -((MAX_TRANSIENT_LIFETIME_HOURS / scale) ** shape))
            weights = np.asarray(self._hourly_weights[gpu.name],
                                 dtype=np.float64)
            state = (params, cap_quantile, 1.0 / shape, scale,
                     params.p_revoke_24h, weights)
            self._cell_cache[key] = state
        return state

    def sample(self, gpu_name: str, region_name: str,
               launch_hour_local: float = 0.0,
               stressed: bool = False) -> RevocationOutcome:
        """Sample the fate of one launched transient server.

        The candidate lifetimes come from one vectorized uniform draw and
        the hour-of-day weights from one vectorized gather; the RNG stream
        consumption and the resulting outcome are identical to the scalar
        candidate loop this replaced (``tests/test_cloud_revocation.py``
        pins the equivalence golden against a scalar reimplementation).

        Args:
            gpu_name: GPU type of the server.
            region_name: Region in which the server is launched.
            launch_hour_local: Local hour-of-day at launch time; used to
                place the revocation at a local wall-clock hour.
            stressed: Whether the server runs a training workload.  Ignored
                by design — the paper finds workload does not affect
                revocation likelihood — but accepted so callers can record
                the grouping.
        """
        del stressed  # Workload does not influence revocations (Section V-C).
        (_params, cap_quantile, inv_shape, scale, p_revoke,
         weights) = self._cell_state(gpu_name, region_name)
        launch_hour_local = wrap_hour(launch_hour_local)
        if self._rng.uniform() >= p_revoke:
            return RevocationOutcome(revoked=False,
                                     lifetime_hours=MAX_TRANSIENT_LIFETIME_HOURS,
                                     revocation_hour_local=None)

        # One array draw == the old per-candidate scalar draws (numpy fills
        # uniform arrays element-wise from the same bit stream).  The
        # inverse-CDF power must stay scalar: numpy's SIMD power kernel can
        # round differently from the C pow behind a scalar ``**`` (about 4%
        # of values on an AVX-512 host), and the sampled lifetimes are
        # pinned bit for bit against the scalar loop.  The log need not:
        # scalar and array ``np.log`` share one kernel, which is how
        # ScoreTable._build_option takes it.
        uniforms = self._rng.uniform(0.0, cap_quantile, size=self._candidates)
        candidates = [float(scale * (-np.log(1.0 - u)) ** inv_shape)
                      for u in uniforms.tolist()]
        candidate_weights = weights[hour_bins(
            launch_hour_local + np.asarray(candidates))] + 1e-9
        probabilities = candidate_weights / candidate_weights.sum()
        chosen = candidates[
            int(self._rng.choice(self._candidates, p=probabilities))]
        revocation_hour = wrap_hour(launch_hour_local + chosen)
        return RevocationOutcome(revoked=True, lifetime_hours=chosen,
                                 revocation_hour_local=float(revocation_hour))

    def sample_batch(self, gpu_name: str, region_name: str, count: int,
                     launch_hour_local: float = 0.0,
                     stressed: bool = False) -> Tuple[RevocationOutcome, ...]:
        """Sample the fates of ``count`` servers launched together.

        Draw-order contract: the batch consumes the RNG stream exactly
        like ``count`` sequential :meth:`sample` calls, so batching a loop
        (as the Monte-Carlo estimators do) never changes any outcome.
        """
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        return tuple(self.sample(gpu_name, region_name,
                                 launch_hour_local=launch_hour_local,
                                 stressed=stressed)
                     for _ in range(count))
