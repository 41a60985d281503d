"""Revocation estimation from empirical lifetime data.

Equation (5) of the paper computes the expected number of revocations over
a training run as the sum of each worker's probability of revocation within
the run's duration, obtained "by querying the empirical CDFs" of the
lifetime measurements (Fig. 8).  This module builds those empirical CDFs
from observed lifetimes and answers the queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.gpus import get_gpu
from repro.cloud.regions import get_region
from repro.cloud.revocation import MAX_TRANSIENT_LIFETIME_HOURS, RevocationModel
from repro.errors import DataError


@dataclass
class EmpiricalLifetimeDistribution:
    """Empirical lifetime distribution of one ``(GPU, region)`` pair.

    Lifetimes are measured in hours; servers that survived to the 24-hour
    maximum are right-censored at 24 hours, exactly as in the paper's data.

    Attributes:
        lifetimes_hours: Observed lifetimes (revoked servers only).
        num_launched: Total servers launched, including survivors.
    """

    lifetimes_hours: List[float]
    num_launched: int

    def __post_init__(self) -> None:
        if self.num_launched <= 0:
            raise DataError("num_launched must be positive")
        if len(self.lifetimes_hours) > self.num_launched:
            raise DataError("more revocations than launched servers")
        if any(t < 0 for t in self.lifetimes_hours):
            raise DataError("lifetimes must be non-negative")

    @property
    def num_revoked(self) -> int:
        """Number of servers revoked before the 24-hour cutoff."""
        return len(self.lifetimes_hours)

    @property
    def revocation_fraction(self) -> float:
        """Fraction of launched servers that were revoked (Table V)."""
        return self.num_revoked / self.num_launched

    def cdf(self, duration_hours: float) -> float:
        """Probability a server is revoked within ``duration_hours``.

        The CDF is evaluated over *all* launched servers, so it saturates at
        the revocation fraction rather than at one.
        """
        if duration_hours <= 0:
            return 0.0
        horizon = min(duration_hours, MAX_TRANSIENT_LIFETIME_HOURS)
        revoked_before = sum(1 for t in self.lifetimes_hours if t <= horizon)
        return revoked_before / self.num_launched

    def mean_lifetime(self) -> float:
        """Mean lifetime in hours, counting survivors at 24 hours."""
        survivors = self.num_launched - self.num_revoked
        total = sum(self.lifetimes_hours) + survivors * MAX_TRANSIENT_LIFETIME_HOURS
        return total / self.num_launched

    def mean_time_to_revocation(self) -> float:
        """Mean lifetime of the revoked servers only.

        Raises:
            DataError: If no server was revoked.
        """
        if not self.lifetimes_hours:
            raise DataError("no revocations observed")
        return float(np.mean(self.lifetimes_hours))


class RevocationEstimator:
    """Per-(GPU, region) revocation probability estimates.

    The estimator can be built from measured lifetimes (the normal CM-DARE
    path: feed it the revocation campaign's dataset) or fall back to the
    calibrated analytic model for cells without measurements.

    Args:
        fallback_model: Analytic model used for cells without data.
    """

    def __init__(self, fallback_model: Optional[RevocationModel] = None):
        self._distributions: Dict[Tuple[str, str], EmpiricalLifetimeDistribution] = {}
        self._fallback = fallback_model

    # ------------------------------------------------------------------
    # Construction.
    # ------------------------------------------------------------------
    def add_observations(self, gpu_name: str, region_name: str,
                         lifetimes_hours: Sequence[float], num_launched: int) -> None:
        """Add (or replace) the observations for one ``(GPU, region)`` cell."""
        key = (get_gpu(gpu_name).name, get_region(region_name).name)
        self._distributions[key] = EmpiricalLifetimeDistribution(
            lifetimes_hours=list(lifetimes_hours), num_launched=num_launched)

    def distribution(self, gpu_name: str, region_name: str) -> EmpiricalLifetimeDistribution:
        """The empirical distribution for a cell.

        Raises:
            DataError: If no observations were added for the cell.
        """
        key = (get_gpu(gpu_name).name, get_region(region_name).name)
        if key not in self._distributions:
            raise DataError(f"no lifetime observations for {key}")
        return self._distributions[key]

    def cells(self) -> List[Tuple[str, str]]:
        """All cells with observations."""
        return sorted(self._distributions)

    # ------------------------------------------------------------------
    # Queries (Eq. 5).
    # ------------------------------------------------------------------
    def revocation_probability(self, gpu_name: str, region_name: str,
                               duration_hours: float) -> float:
        """``Pr(R_i)``: probability one worker is revoked within the run."""
        key = (get_gpu(gpu_name).name, get_region(region_name).name)
        if key in self._distributions:
            return self._distributions[key].cdf(duration_hours)
        if self._fallback is not None:
            return self._fallback.revocation_probability(gpu_name, region_name,
                                                         duration_hours)
        raise DataError(f"no lifetime observations or fallback model for {key}")

    def expected_revocations(self, workers: Sequence[Tuple[str, str]],
                             duration_hours: float) -> float:
        """``Nr = sum_i Pr(R_i)`` over the cluster's transient workers.

        Args:
            workers: ``(gpu_name, region_name)`` of each transient worker.
            duration_hours: Predicted training duration in hours.
        """
        return float(sum(self.revocation_probability(gpu, region, duration_hours)
                         for gpu, region in workers))

    def safest_region(self, gpu_name: str, duration_hours: float) -> Tuple[str, float]:
        """The region with the lowest revocation probability for a GPU type.

        A direct implementation of the paper's "avoid high revocation
        regions" guidance.
        """
        candidates: List[Tuple[str, float]] = []
        for gpu, region in self.cells():
            if gpu == get_gpu(gpu_name).name:
                candidates.append((region, self.revocation_probability(gpu, region,
                                                                       duration_hours)))
        if not candidates and self._fallback is not None:
            for gpu, region in self._fallback.available_cells():
                if gpu == get_gpu(gpu_name).name:
                    candidates.append((region,
                                       self._fallback.revocation_probability(
                                           gpu, region, duration_hours)))
        if not candidates:
            raise DataError(f"no data for GPU {gpu_name!r}")
        return min(candidates, key=lambda pair: pair[1])
