"""Ground-truth checkpoint-time model.

The paper instruments TensorFlow's checkpointing function and finds
(Section IV-B, Fig. 5) that checkpoint time grows with checkpoint size,
varies little between repetitions (CoV 0.018-0.073), runs on the CPU of the
chief worker only, and happens *sequentially* with training — 100 training
steps take exactly one checkpoint-time longer when a checkpoint falls in
the window.

The model is linear in the total checkpoint size and calibrated to the
paper's ResNet-32 anchor (3.84 +- 0.25 seconds).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.perf.calibration import (
    CHECKPOINT_ANCHOR_MODEL,
    CHECKPOINT_ANCHOR_SECONDS,
    CHECKPOINT_TIME_BASE_SECONDS,
    CHECKPOINT_TIME_COV,
)
from repro.workloads.checkpoints import CheckpointFiles


def _default_seconds_per_mb() -> float:
    """Derive the linear slope from the ResNet-32 anchor of the catalog."""
    # Imported lazily to keep repro.perf importable without building the
    # catalog (and to avoid an import cycle at module load time).
    from repro.workloads.catalog import default_catalog

    anchor = default_catalog().profile(CHECKPOINT_ANCHOR_MODEL)
    anchor_mb = anchor.checkpoint.total_mb
    if anchor_mb <= 0:
        raise ConfigurationError("anchor checkpoint size must be positive")
    return (CHECKPOINT_ANCHOR_SECONDS - CHECKPOINT_TIME_BASE_SECONDS) / anchor_mb


class CheckpointTimeModel:
    """Calibrated checkpoint-duration ground truth.

    Args:
        rng: Random generator used when sampling noisy durations.
        base_seconds: Fixed per-checkpoint cost.
        seconds_per_mb: Linear cost per MB of checkpoint data; derived from
            the paper's ResNet-32 anchor when omitted.
        cov: Relative variability of repeated checkpoints.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None,
                 base_seconds: float = CHECKPOINT_TIME_BASE_SECONDS,
                 seconds_per_mb: Optional[float] = None,
                 cov: float = CHECKPOINT_TIME_COV):
        if base_seconds < 0:
            raise ConfigurationError("base_seconds must be non-negative")
        if cov < 0:
            raise ConfigurationError("cov must be non-negative")
        self._rng = rng if rng is not None else np.random.default_rng(0)
        self.base_seconds = base_seconds
        self.seconds_per_mb = (seconds_per_mb if seconds_per_mb is not None
                               else _default_seconds_per_mb())
        if self.seconds_per_mb <= 0:
            raise ConfigurationError("seconds_per_mb must be positive")
        self.cov = cov

    @property
    def generator(self) -> np.random.Generator:
        """The generator checkpoint-duration draws consume."""
        return self._rng

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    def mean_time(self, checkpoint: CheckpointFiles) -> float:
        """Mean checkpoint duration in seconds for the given file sizes."""
        return self.mean_time_for_bytes(checkpoint.total_bytes)

    def mean_time_for_bytes(self, total_bytes: float) -> float:
        """Mean checkpoint duration for a raw total size in bytes."""
        if total_bytes < 0:
            raise ConfigurationError("total_bytes must be non-negative")
        total_mb = total_bytes / (1024.0 * 1024.0)
        return float(self.base_seconds + self.seconds_per_mb * total_mb)

    def sample_time(self, checkpoint: CheckpointFiles) -> float:
        """Sample one noisy checkpoint duration."""
        mean = self.mean_time(checkpoint)
        sample = self._rng.normal(mean, mean * self.cov)
        return float(max(mean * 0.5, sample))
