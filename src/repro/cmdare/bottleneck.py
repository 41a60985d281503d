"""Parameter-server bottleneck detection and mitigation (Section VI-B).

CM-DARE compares the *predicted* cluster training speed (the sum of the
individual workers' predicted speeds, Section VI-A) against the *measured*
speed from the performance tracker.  After a warm-up period, a measured
speed falling short of the prediction by more than a configurable threshold
flags a bottleneck; the suggested mitigation is to add a parameter server,
which the paper shows improves training speed by up to 70.6% (Fig. 12) at
the cost of a ~10 s session restart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, DataError

#: Warm-up period (seconds) before the detector starts judging, and the
#: relative deviation threshold; both values come from Section VI-B
#: ("a warmup period of 30 seconds and a threshold of 6.7%").
DEFAULT_WARMUP_SECONDS = 30.0
DEFAULT_THRESHOLD = 0.067


@dataclass(frozen=True)
class BottleneckReport:
    """Outcome of one bottleneck check.

    Attributes:
        bottleneck_detected: Whether the measured speed fell short of the
            prediction by more than the threshold.
        predicted_speed: Predicted cluster speed (steps/second).
        measured_speed: Measured cluster speed (steps/second).
        deviation: Relative shortfall ``(predicted - measured) / predicted``.
        in_warmup: True when the check happened inside the warm-up window
            (in which case no bottleneck is ever reported).
        suggestion: Human-readable mitigation suggestion.
    """

    bottleneck_detected: bool
    predicted_speed: float
    measured_speed: float
    deviation: float
    in_warmup: bool
    suggestion: str


class BottleneckDetector:
    """Flags parameter-server bottlenecks from prediction/measurement gaps.

    Args:
        warmup_seconds: Time to wait after session start before judging.
        threshold: Relative shortfall that triggers a bottleneck flag.
    """

    def __init__(self, warmup_seconds: float = DEFAULT_WARMUP_SECONDS,
                 threshold: float = DEFAULT_THRESHOLD):
        if warmup_seconds < 0:
            raise ConfigurationError("warmup_seconds must be non-negative")
        if threshold <= 0:
            raise ConfigurationError("threshold must be positive")
        self.warmup_seconds = warmup_seconds
        self.threshold = threshold

    # ------------------------------------------------------------------
    # Core check.
    # ------------------------------------------------------------------
    def check(self, predicted_speed: float, measured_speed: float,
              elapsed_seconds: float) -> BottleneckReport:
        """Compare a prediction against a measurement.

        Args:
            predicted_speed: Predicted cluster speed (steps/second).
            measured_speed: Measured cluster speed (steps/second).
            elapsed_seconds: Time since the session (or the last
                reconfiguration) started.
        """
        if predicted_speed <= 0:
            raise DataError("predicted_speed must be positive")
        if measured_speed < 0:
            raise DataError("measured_speed must be non-negative")
        deviation = (predicted_speed - measured_speed) / predicted_speed
        in_warmup = elapsed_seconds < self.warmup_seconds
        detected = (not in_warmup) and deviation > self.threshold
        if detected:
            suggestion = ("measured speed is {:.1%} below the prediction; the "
                          "parameter servers are the likely bottleneck — add a "
                          "parameter server (expect up to ~70% speedup at the "
                          "cost of a ~10 s session restart)").format(deviation)
        elif in_warmup:
            suggestion = "still inside the warm-up window; no judgement yet"
        else:
            suggestion = "measured speed is consistent with the prediction"
        return BottleneckReport(bottleneck_detected=detected,
                                predicted_speed=predicted_speed,
                                measured_speed=measured_speed,
                                deviation=deviation, in_warmup=in_warmup,
                                suggestion=suggestion)

    # ------------------------------------------------------------------
    # Slow-worker variant (the paper notes the same approach detects
    # under-performing workers).
    # ------------------------------------------------------------------
    def check_worker(self, predicted_step_time: float, measured_step_time: float,
                     elapsed_seconds: float) -> BottleneckReport:
        """Flag an individual worker training slower than predicted."""
        if predicted_step_time <= 0 or measured_step_time <= 0:
            raise DataError("step times must be positive")
        return self.check(predicted_speed=1.0 / predicted_step_time,
                          measured_speed=1.0 / measured_step_time,
                          elapsed_seconds=elapsed_seconds)
