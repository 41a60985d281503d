"""Transient and on-demand server startup-time model.

The paper breaks server startup into three consecutive stages (Section V-A,
following Google's instance life cycle):

1. **provisioning** — resources are allocated for the server,
2. **staging** — the instance is prepared for booting, and
3. **booting** — the server boots and enters the running state.

Figure 6 reports the per-stage breakdown for transient and on-demand K80 and
P100 servers in two regions; Figure 7 compares startup time for replacement
servers requested *immediately* after a revocation versus after a delay.
The calibrated means/variability below reproduce the paper's observations:

* total transient startup is under 100 seconds,
* transient P100 startup is ~8.7% slower than transient K80, with staging
  contributing most of the difference,
* transient startup is 11-22 seconds slower than on-demand,
* recent revocations barely move the mean startup time (<4 s) but make it
  about 4x more variable (CoV ~12% vs ~3%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.cloud.gpus import get_gpu
from repro.cloud.regions import get_region
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class StartupStages:
    """Durations (seconds) of the three startup stages for one server."""

    provisioning: float
    staging: float
    booting: float

    @property
    def total(self) -> float:
        """Total startup time in seconds."""
        return self.provisioning + self.staging + self.booting

    def as_dict(self) -> Dict[str, float]:
        """Stage durations keyed by stage name."""
        return {
            "provisioning": self.provisioning,
            "staging": self.staging,
            "booting": self.booting,
        }


@dataclass(frozen=True)
class _StageParams:
    """Mean and coefficient of variation for the three stages."""

    provisioning: Tuple[float, float]
    staging: Tuple[float, float]
    booting: Tuple[float, float]


#: Calibrated per-(GPU, server class) stage parameters: (mean seconds, CoV).
#: Keys are ``(gpu_name, transient)``.
_STAGE_PARAMS: Dict[Tuple[str, bool], _StageParams] = {
    ("k80", True): _StageParams(provisioning=(24.0, 0.10), staging=(33.0, 0.28),
                                booting=(25.0, 0.06)),
    ("k80", False): _StageParams(provisioning=(20.0, 0.08), staging=(27.0, 0.10),
                                 booting=(24.0, 0.06)),
    ("p100", True): _StageParams(provisioning=(26.0, 0.10), staging=(39.0, 0.12),
                                 booting=(24.2, 0.06)),
    ("p100", False): _StageParams(provisioning=(21.0, 0.08), staging=(23.0, 0.10),
                                  booting=(23.6, 0.06)),
    ("v100", True): _StageParams(provisioning=(27.0, 0.10), staging=(40.0, 0.12),
                                 booting=(24.0, 0.06)),
    ("v100", False): _StageParams(provisioning=(22.0, 0.08), staging=(24.0, 0.10),
                                  booting=(23.5, 0.06)),
}

#: Small additive adjustment (seconds, applied to the staging stage) per
#: region, reflecting the regional differences visible in Fig. 6.
_REGION_STAGING_OFFSET: Dict[str, float] = {
    "us-east1": 0.0,
    "us-central1": 1.0,
    "us-west1": 3.0,
    "europe-west1": 2.0,
    "europe-west4": 2.0,
    "asia-east1": 4.0,
}

#: Replacement-request startup means (seconds) measured through CM-DARE's
#: lighter-weight path (Fig. 7): (immediate mean, delayed mean).
_REPLACEMENT_MEANS: Dict[str, Tuple[float, float]] = {
    "k80": (61.0, 60.0),
    "p100": (63.0, 60.5),
    "v100": (64.0, 62.0),
}

#: Coefficient of variation of replacement startup time: requests issued
#: immediately after a revocation are about 4x more variable.
_REPLACEMENT_COV_IMMEDIATE = 0.12
_REPLACEMENT_COV_DELAYED = 0.03

#: Warm re-acquisition handshake (seconds): taking over an already-running
#: server skips all three startup stages entirely (Fig. 10's warm start has
#: no server-startup component at all); the only server-side cost left is
#: the control-plane handshake that reassigns the instance.  Mild per-GPU
#: spread mirrors the replacement-path means above.
_WARM_REACQUIRE_MEANS: Dict[str, float] = {
    "k80": 2.5,
    "p100": 2.7,
    "v100": 2.8,
}
_WARM_REACQUIRE_COV = 0.20


def _truncated_normal(rng: np.random.Generator, mean: float, cov: float,
                      minimum: float = 0.5) -> float:
    """Draw a normal sample with the given CoV, truncated below."""
    if mean <= 0:
        raise ConfigurationError("mean must be positive")
    return float(max(minimum, rng.normal(mean, mean * cov)))


class StartupTimeModel:
    """Samples startup-stage durations for requested servers.

    Args:
        rng: Random generator used for sampling; pass a stream from
            :class:`~repro.simulation.rng.RandomStreams` for reproducibility.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self._rng = rng if rng is not None else np.random.default_rng(0)

    # ------------------------------------------------------------------
    # Fresh requests (Fig. 6).
    # ------------------------------------------------------------------
    def stage_means(self, gpu_name: str, transient: bool,
                    region_name: str = "us-east1") -> StartupStages:
        """Mean stage durations without sampling noise."""
        gpu = get_gpu(gpu_name)
        region = get_region(region_name)
        params = _STAGE_PARAMS[(gpu.name, transient)]
        offset = _REGION_STAGING_OFFSET.get(region.name, 0.0)
        return StartupStages(provisioning=params.provisioning[0],
                             staging=params.staging[0] + offset,
                             booting=params.booting[0])

    def sample(self, gpu_name: str, transient: bool,
               region_name: str = "us-east1") -> StartupStages:
        """Sample the three stage durations for a newly requested server."""
        gpu = get_gpu(gpu_name)
        region = get_region(region_name)
        params = _STAGE_PARAMS[(gpu.name, transient)]
        offset = _REGION_STAGING_OFFSET.get(region.name, 0.0)
        provisioning = _truncated_normal(self._rng, *params.provisioning)
        staging = _truncated_normal(self._rng, params.staging[0] + offset,
                                    params.staging[1])
        booting = _truncated_normal(self._rng, *params.booting)
        return StartupStages(provisioning=provisioning, staging=staging,
                             booting=booting)

    # ------------------------------------------------------------------
    # Replacement requests after a revocation (Fig. 7).
    # ------------------------------------------------------------------
    def replacement_mean(self, gpu_name: str, immediate: bool) -> float:
        """Mean replacement startup time (seconds)."""
        gpu = get_gpu(gpu_name)
        immediate_mean, delayed_mean = _REPLACEMENT_MEANS[gpu.name]
        return immediate_mean if immediate else delayed_mean

    def sample_replacement(self, gpu_name: str, immediate: bool) -> float:
        """Sample the startup time of a replacement server.

        Args:
            gpu_name: GPU type of the replacement server.
            immediate: True when the request is issued immediately after a
                revocation; such requests have the same mean but much higher
                variance than delayed requests.
        """
        mean = self.replacement_mean(gpu_name, immediate)
        cov = _REPLACEMENT_COV_IMMEDIATE if immediate else _REPLACEMENT_COV_DELAYED
        return _truncated_normal(self._rng, mean, cov, minimum=5.0)

    # ------------------------------------------------------------------
    # Warm re-acquisition of an already-running server (Fig. 10 warm path).
    # ------------------------------------------------------------------
    def warm_reacquire_mean(self, gpu_name: str) -> float:
        """Mean handshake time (seconds) to re-acquire a warm server.

        A warm start reuses a server that is already provisioned, staged,
        and booted, so none of the Fig. 6 stages apply; what remains is the
        short control-plane handshake that hands the running instance to
        the new owner.  Used by the fleet warm-replacement path
        (:class:`repro.scenarios.pool.TransientPool` with warm capacity).
        """
        gpu = get_gpu(gpu_name)
        return _WARM_REACQUIRE_MEANS[gpu.name]

    def sample_warm_reacquire(self, gpu_name: str) -> float:
        """Sample the warm re-acquisition handshake time (seconds)."""
        return _truncated_normal(self._rng, self.warm_reacquire_mean(gpu_name),
                                 _WARM_REACQUIRE_COV)
