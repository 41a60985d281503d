"""Performance profiler: offline measurement aggregation.

The profiler is where CM-DARE accumulates the raw measurements that power
the paper's regression models: per-(model, GPU) training speed samples and
per-model checkpoint durations.  The measurement campaigns in
:mod:`repro.measurement` write into a profiler; the modeling layer fits on
its measurement lists, and each predictor builds its own features from them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import DataError


@dataclass(frozen=True)
class SpeedMeasurement:
    """One training-speed measurement for a (model, GPU) pair.

    Attributes:
        model_name: CNN model name.
        gpu_name: GPU type of the measured worker.
        model_gflops: Model complexity (``Cm``) in GFLOPs.
        gpu_teraflops: GPU capacity (``Cgpu``) in teraflops.
        step_time: Measured average step time in seconds.
        cluster_size: Number of GPU workers in the measured cluster.
        num_parameter_servers: Number of parameter servers.
    """

    model_name: str
    gpu_name: str
    model_gflops: float
    gpu_teraflops: float
    step_time: float
    cluster_size: int = 1
    num_parameter_servers: int = 1

    @property
    def speed(self) -> float:
        """Training speed in steps/second."""
        return 1.0 / self.step_time

    @property
    def computation_ratio(self) -> float:
        """The paper's computation ratio ``Cm / Cgpu``."""
        return self.model_gflops / self.gpu_teraflops


@dataclass(frozen=True)
class CheckpointMeasurement:
    """One checkpoint-duration measurement for a model.

    Attributes:
        model_name: CNN model name.
        data_bytes: Checkpoint data-file size (``Sd``).
        index_bytes: Checkpoint index-file size (``Si``).
        meta_bytes: Checkpoint meta-file size (``Sm``).
        duration: Measured checkpoint duration in seconds.
    """

    model_name: str
    data_bytes: int
    index_bytes: int
    meta_bytes: int
    duration: float

    @property
    def total_bytes(self) -> int:
        """Total checkpoint size (``Sc``)."""
        return self.data_bytes + self.index_bytes + self.meta_bytes


class PerformanceProfiler:
    """Accumulates speed and checkpoint measurements across sessions."""

    def __init__(self) -> None:
        self._speed: List[SpeedMeasurement] = []
        self._checkpoints: List[CheckpointMeasurement] = []

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def record_speed(self, measurement: SpeedMeasurement) -> None:
        """Record one speed measurement."""
        if measurement.step_time <= 0:
            raise DataError("step_time must be positive")
        self._speed.append(measurement)

    def record_checkpoint(self, measurement: CheckpointMeasurement) -> None:
        """Record one checkpoint measurement."""
        if measurement.duration <= 0:
            raise DataError("checkpoint duration must be positive")
        self._checkpoints.append(measurement)

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def speed_measurements(self) -> List[SpeedMeasurement]:
        """All recorded speed measurements."""
        return list(self._speed)

    @property
    def checkpoint_measurements(self) -> List[CheckpointMeasurement]:
        """All recorded checkpoint measurements."""
        return list(self._checkpoints)

    def speed_for(self, gpu_name: Optional[str] = None,
                  model_name: Optional[str] = None) -> List[SpeedMeasurement]:
        """Speed measurements filtered by GPU and/or model."""
        result = self._speed
        if gpu_name is not None:
            result = [m for m in result if m.gpu_name == gpu_name.lower()]
        if model_name is not None:
            result = [m for m in result if m.model_name == model_name]
        return list(result)

    def gpus(self) -> List[str]:
        """GPU types with at least one speed measurement."""
        return sorted({m.gpu_name for m in self._speed})

    def models(self) -> List[str]:
        """Models with at least one speed measurement."""
        return sorted({m.model_name for m in self._speed})

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------
    def mean_step_time(self, model_name: str, gpu_name: str) -> Tuple[float, float]:
        """Mean and std of the measured step time for a (model, GPU) pair."""
        measurements = [m.step_time for m in self.speed_for(gpu_name, model_name)]
        if not measurements:
            raise DataError(f"no measurements for {model_name!r} on {gpu_name!r}")
        values = np.asarray(measurements)
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        return float(values.mean()), std

    def mean_checkpoint_time(self, model_name: str) -> Tuple[float, float]:
        """Mean and std of the measured checkpoint duration for a model."""
        durations = [m.duration for m in self._checkpoints if m.model_name == model_name]
        if not durations:
            raise DataError(f"no checkpoint measurements for {model_name!r}")
        values = np.asarray(durations)
        std = float(values.std(ddof=1)) if len(values) > 1 else 0.0
        return float(values.mean()), std
