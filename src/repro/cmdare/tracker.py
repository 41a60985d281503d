"""Training performance tracker.

Every training server runs a performance tracker that forwards training
speed to the CM-DARE performance profiler (steps (4) of the Fig. 1
workflow).  The tracker reads the session's cluster step count at each
poll and exposes windowed speed estimates, which the bottleneck detector
compares against predictions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import DataError
from repro.training.session import TrainingSession


@dataclass(frozen=True)
class SpeedSample:
    """One windowed speed observation.

    Attributes:
        time: Simulation time at the end of the window.
        cluster_step: Cluster step count at the end of the window.
        speed: Cluster training speed over the window (steps/second).
    """

    time: float
    cluster_step: int
    speed: float


class PerformanceTracker:
    """Tracks the windowed training speed of one session.

    Args:
        session: The training session to observe.
        window_seconds: Length of the speed-averaging window.
    """

    def __init__(self, session: TrainingSession, window_seconds: float = 30.0):
        if window_seconds <= 0:
            raise DataError("window_seconds must be positive")
        self.session = session
        self.window_seconds = window_seconds
        self._samples: List[SpeedSample] = []
        self._window_start_time = session.simulator.now
        self._window_start_step = 0

    # ------------------------------------------------------------------
    # Ingestion.
    # ------------------------------------------------------------------
    def poll(self) -> Optional[SpeedSample]:
        """Emit a speed sample when the current window has elapsed.

        Returns:
            The newly closed window's sample, or ``None`` if the current
            window has not yet elapsed.
        """
        now = self.session.simulator.now
        if now - self._window_start_time < self.window_seconds:
            return None
        current_step = self.session.cluster_steps
        elapsed = now - self._window_start_time
        steps = current_step - self._window_start_step
        sample = SpeedSample(time=now, cluster_step=current_step,
                             speed=max(0.0, steps / elapsed))
        self._samples.append(sample)
        self._window_start_time = now
        self._window_start_step = current_step
        return sample

    def reset_window(self) -> None:
        """Restart the current averaging window at the present time.

        The controller calls this after cluster reconfigurations (a
        revocation, a replacement joining, an added parameter server) so the
        next speed sample does not mix measurements from two different
        cluster shapes.
        """
        self._window_start_time = self.session.simulator.now
        self._window_start_step = self.session.cluster_steps

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------
    @property
    def samples(self) -> List[SpeedSample]:
        """All closed-window samples so far."""
        return list(self._samples)

    def latest_speed(self) -> float:
        """Speed of the most recent closed window.

        Raises:
            DataError: If no window has closed yet.
        """
        if not self._samples:
            raise DataError("no speed window has closed yet")
        return self._samples[-1].speed

    def average_speed(self, last_n_windows: Optional[int] = None) -> float:
        """Average speed over the most recent ``last_n_windows`` windows."""
        if not self._samples:
            raise DataError("no speed window has closed yet")
        samples = self._samples if last_n_windows is None else self._samples[-last_n_windows:]
        return sum(sample.speed for sample in samples) / len(samples)
