"""Placement query API and the vectorized revocation score table.

This module carries the redesigned placement interface shared by the fleet
runner (:mod:`repro.scenarios.fleet`) and the online placement service
(:mod:`repro.serve`): one :class:`PlacementQuery` in, one
:class:`PlacementDecision` out.

The design separates the two halves of every placement decision:

* **Score computation** — the calibrated per-worker revocation probability
  of each ``(gpu, region, launch hour)`` cell.  Expensive (Monte-Carlo
  against :class:`~repro.cloud.revocation.RevocationModel`), but pure: it
  depends only on the calibration, the advisor seed, and the sample count.
  :class:`ScoreTable` precomputes it for every cell at once and caches it
  forever — score tables survive arbitrary pool churn.
* **Pool-state reads** — live availability and queue pressure.  Cheap
  (O(cells) counter reads through a versioned
  :class:`~repro.scenarios.pool.PoolSnapshot`), but volatile: any pool
  transition invalidates feasibility.  These are re-read per query and
  never cached across pool versions.

Score-table representation
--------------------------
The PR 5 advisor memoized one Monte-Carlo probability per
``(gpu, region, hour, duration)`` — a new duration meant re-sampling every
cell.  The table stores something strictly stronger: the **sorted revoked
lifetimes** of each ``(gpu, region, hour)`` option.  The Monte-Carlo
probability for *any* horizon ``d`` is then the rank of ``d`` in that
vector (``count(lifetime <= d) / samples``), so one build answers every
duration, and a whole candidate set is scored with a single vectorized
comparison against the row-stacked lifetime matrix.

Bit-identity contract
---------------------
Table scores are **bit-identical** to the sampling path they replace, for
every duration: each option replays the exact RNG tape of the legacy
per-option sampler (one stable generator per option, seeded from the
advisor seed and a CRC digest of the option, consuming the underlying
bit stream double-for-double — a block ``Generator.random`` draw yields
the same doubles as the scalar ``uniform``/``choice`` calls it replaces).
``tests/test_placement_api.py`` pins the equivalence against the scalar
sampler (kept as a test-only oracle in ``tests/oracles.py``) across the
full calibration grid, and the adaptive-placement golden fixture in
``tests/test_fleet_golden_identity.py`` pins that fleets score exactly as
they did under the sampler.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.gpus import get_gpu
from repro.cloud.regions import get_region
from repro.cloud.revocation import (
    MAX_TRANSIENT_LIFETIME_HOURS,
    RevocationModel,
)
from repro.errors import ConfigurationError
from repro.units import hour_bin, hour_bins, wrap_hour

#: Candidate revocation times per Monte-Carlo draw.  Mirrors the
#: :class:`~repro.cloud.revocation.RevocationModel` constructor default the
#: legacy per-option sampler always used (it re-instantiated the model
#: without forwarding ``candidates``), which the tape replay must match.
DEFAULT_CANDIDATES = 8

#: Tape stride per Monte-Carlo sample: one revocation test, then (for
#: revoked samples) ``DEFAULT_CANDIDATES`` candidate draws plus one
#: hour-of-day resampling choice.
_DRAWS_PER_SAMPLE = DEFAULT_CANDIDATES + 2


def _finite_hour(hour: Any, field_name: str) -> float:
    """``hour`` as a float; NaN and infinities would wrap to hour 0."""
    value = float(hour)
    if not math.isfinite(value):
        raise ConfigurationError(
            f"{field_name} must be finite, got {hour!r}")
    return value


@dataclass(frozen=True)
class PlacementQuery:
    """One placement question: where (and optionally when) to launch.

    A query runs in one of two modes:

    * **live** (``hour_of_day_utc`` given): every candidate region is
      scored at its *local* hour right now — the mode fleet controllers
      and the online service use against a live pool snapshot;
    * **grid** (``launch_hours`` given): every ``(region, hour)``
      combination of an explicit local launch-hour grid is scored — the
      paper's offline Section V-C planning mode.

    Queries are frozen and hashable, so they key decision caches directly.

    Attributes:
        gpu_name: GPU type of the worker(s) being placed.
        duration_hours: Horizon the revocation score covers.
        num_workers: Cluster size; scales ``expected_revocations``.
        region_names: Candidate regions; ``None`` means every region that
            offers the GPU (in the pool when one is supplied, else in the
            calibration).
        launch_hours: Candidate local launch hours (grid mode); mutually
            exclusive with ``hour_of_day_utc``.
        hour_of_day_utc: Current UTC wall-clock hour (live mode).
        queue_weight: Weight of the queue-pressure penalty (queued waiters
            per slot of capacity) added to the revocation probability.
    """

    gpu_name: str
    duration_hours: float
    num_workers: int = 1
    region_names: Optional[Tuple[str, ...]] = None
    launch_hours: Optional[Tuple[int, ...]] = None
    hour_of_day_utc: Optional[float] = None
    queue_weight: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.duration_hours < math.inf:
            raise ConfigurationError(
                f"duration_hours must be positive and finite, got "
                f"{self.duration_hours!r}")
        if self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1")
        if self.queue_weight < 0:
            raise ConfigurationError("queue_weight must be non-negative")
        if (self.launch_hours is None) == (self.hour_of_day_utc is None):
            raise ConfigurationError(
                "a placement query needs exactly one of launch_hours (grid "
                "mode) or hour_of_day_utc (live mode)")
        if self.region_names is not None:
            names = tuple(self.region_names)
            if not names:
                raise ConfigurationError(
                    "region_names must name at least one candidate region")
            object.__setattr__(self, "region_names", names)
        if self.launch_hours is not None:
            hours = tuple(hour_bin(_finite_hour(hour, "launch_hours"))
                          for hour in self.launch_hours)
            if not hours:
                raise ConfigurationError(
                    "launch_hours must name at least one candidate hour")
            object.__setattr__(self, "launch_hours", hours)
        else:
            object.__setattr__(self, "hour_of_day_utc", wrap_hour(
                _finite_hour(self.hour_of_day_utc, "hour_of_day_utc")))
        object.__setattr__(self, "duration_hours", float(self.duration_hours))
        object.__setattr__(self, "queue_weight", float(self.queue_weight))

    def to_params(self) -> Dict[str, Any]:
        """A JSON-encodable parameter dict (defaults omitted)."""
        params: Dict[str, Any] = {"gpu_name": self.gpu_name,
                                  "duration_hours": self.duration_hours}
        if self.num_workers != 1:
            params["num_workers"] = self.num_workers
        if self.region_names is not None:
            params["region_names"] = list(self.region_names)
        if self.launch_hours is not None:
            params["launch_hours"] = list(self.launch_hours)
        if self.hour_of_day_utc is not None:
            params["hour_of_day_utc"] = self.hour_of_day_utc
        if self.queue_weight != 0.5:
            params["queue_weight"] = self.queue_weight
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "PlacementQuery":
        """Rebuild a query from :meth:`to_params` output (wire format)."""
        known = {"gpu_name", "duration_hours", "num_workers", "region_names",
                 "launch_hours", "hour_of_day_utc", "queue_weight"}
        unknown = set(params) - known
        if unknown:
            raise ConfigurationError(
                f"unknown placement-query fields: {sorted(unknown)}")
        kwargs = dict(params)
        if "region_names" in kwargs and kwargs["region_names"] is not None:
            kwargs["region_names"] = tuple(kwargs["region_names"])
        if "launch_hours" in kwargs and kwargs["launch_hours"] is not None:
            kwargs["launch_hours"] = tuple(kwargs["launch_hours"])
        return cls(**kwargs)


@dataclass(frozen=True)
class PlacementOption:
    """One ranked ``(gpu, region, launch hour)`` option of a decision.

    Attributes:
        gpu_name: GPU type being placed.
        region_name: Candidate region.
        launch_hour_local: Local launch hour (0-23) the score was taken at.
        revocation_probability: Estimated probability that one worker is
            revoked before the query horizon elapses.
        expected_revocations: ``num_workers`` times the per-worker
            probability.
        acquirable: Slots (cold free + warm) the pool could hand out right
            now in this cell; ``None`` when the query ran without a pool.
        queue_depth: Replacement requests already queued on this cell.
        feasible: Whether the pool can grant a slot here right now (always
            true without a pool).
        score: Combined rank score (lower is better): the revocation
            probability plus the queue-pressure penalty; infeasible options
            always rank after every feasible one.
    """

    gpu_name: str
    region_name: str
    launch_hour_local: int
    revocation_probability: float
    expected_revocations: float
    acquirable: Optional[int]
    queue_depth: int
    feasible: bool
    score: float

    def to_params(self) -> Dict[str, Any]:
        """A JSON-encodable option dict (wire format)."""
        return {"gpu_name": self.gpu_name, "region_name": self.region_name,
                "launch_hour_local": self.launch_hour_local,
                "revocation_probability": self.revocation_probability,
                "expected_revocations": self.expected_revocations,
                "acquirable": self.acquirable,
                "queue_depth": self.queue_depth,
                "feasible": self.feasible, "score": self.score}


@dataclass(frozen=True)
class PlacementDecision:
    """The ranked answer to one :class:`PlacementQuery`.

    Attributes:
        query: The query this decision answers.
        options: Candidate placements sorted best first — feasible options
            by score, then the infeasible tail, with deterministic
            ``(region, hour)`` tie-breaks.
        pool_version: The pool-state version the feasibility columns were
            read at (``None`` for poolless queries).  Decision caches key
            on it: a version bump makes every cached decision stale.
    """

    query: PlacementQuery
    options: Tuple[PlacementOption, ...] = field(default=())
    pool_version: Optional[int] = None

    @property
    def best(self) -> Optional[PlacementOption]:
        """The best feasible option, or ``None`` when nothing is grantable."""
        if self.options and self.options[0].feasible:
            return self.options[0]
        return None

    @property
    def feasible(self) -> bool:
        """Whether at least one option is grantable right now."""
        return self.best is not None

    def to_params(self) -> Dict[str, Any]:
        """A JSON-encodable decision dict (wire format)."""
        return {"query": self.query.to_params(),
                "options": [option.to_params() for option in self.options],
                "pool_version": self.pool_version}


class ScoreTable:
    """Precomputed revocation scores for every ``(gpu, region, hour)`` cell.

    Each option's Monte-Carlo draw replays the exact RNG tape of the
    legacy per-option sampler (see the module docstring), then keeps the
    *sorted revoked lifetimes* instead of a single per-duration
    probability.  ``probability(..., duration)`` is a rank lookup, and
    :meth:`probabilities` scores a whole candidate set with one vectorized
    comparison against the row-stacked lifetime matrix — the stage that
    makes the online service's query path sampling-free.

    Args:
        revocation_model: Calibration source; the calibrated default model
            when omitted.  Only its calibration and hourly-weight tables
            are read — the table never consumes the model's own generator.
        samples: Monte-Carlo samples per option.
        seed: Advisor seed the per-option generators derive from.
    """

    def __init__(self, revocation_model: Optional[RevocationModel] = None,
                 samples: int = 400, seed: int = 0):
        if samples < 10:
            raise ConfigurationError("samples must be at least 10")
        self._model = (revocation_model if revocation_model is not None
                       else RevocationModel())
        self.samples = int(samples)
        self.seed = int(seed)
        #: Sorted revoked lifetimes per built ``(gpu, region, hour)`` option.
        self._lifetimes: Dict[Tuple[str, str, int], np.ndarray] = {}
        #: Row-stacked (inf-padded) lifetime matrices per candidate set,
        #: so repeated queries over the same cells are one array op.
        self._matrices: Dict[Tuple[str, Tuple[Tuple[str, int], ...]],
                             np.ndarray] = {}

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def available_cells(self) -> Sequence[Tuple[str, str]]:
        """All calibrated ``(gpu, region)`` combinations."""
        return self._model.available_cells()

    @property
    def options_built(self) -> int:
        """Options whose lifetime vectors are materialized."""
        return len(self._lifetimes)

    # ------------------------------------------------------------------
    # Build (the cacheable, pool-independent stage).
    # ------------------------------------------------------------------
    def _build_option(self, gpu_name: str, region_name: str,
                      hour: int) -> np.ndarray:
        """Replay one option's sampling tape; return sorted revoked lifetimes.

        The legacy sampler seeded one generator per option
        (``seed * 9973 + crc32("place:<gpu>:<region>:<hour>")``) and
        consumed it through scalar ``uniform``/``choice`` calls.  Every one
        of those calls takes exactly one double from the underlying bit
        stream, so a single block ``random()`` draw is the same tape; the
        replay below applies the same arithmetic to the same doubles
        (candidate transforms stay scalar on purpose — numpy's SIMD
        log/pow kernels differ from the scalar ones by an ulp).  Revoked
        samples consume ``DEFAULT_CANDIDATES + 2`` doubles, survivors one;
        the block is sized for the worst case and the excess — drawn from
        a generator that exists only for this option — is discarded.
        """
        params = self._model.params_for(gpu_name, region_name)
        shape, scale = params.weibull_shape, params.weibull_scale_hours
        cap_quantile = 1.0 - np.exp(
            -((MAX_TRANSIENT_LIFETIME_HOURS / scale) ** shape))
        inv_shape = 1.0 / shape
        weights = np.asarray(self._model.hourly_weights(gpu_name),
                             dtype=np.float64)
        launch_hour = wrap_hour(float(hour))
        option_index = zlib.crc32(
            f"place:{gpu_name}:{region_name}:{hour}".encode("utf-8"))
        rng = np.random.default_rng(self.seed * 9973 + option_index)
        tape = rng.random(self.samples * _DRAWS_PER_SAMPLE)
        candidates = DEFAULT_CANDIDATES
        position = 0
        lifetimes: List[float] = []
        for _ in range(self.samples):
            if tape[position] >= params.p_revoke_24h:
                position += 1
                continue
            position += 1
            uniforms = tape[position:position + candidates] * cap_quantile
            times = [float(scale * (-np.log(1.0 - u)) ** inv_shape)
                     for u in uniforms.tolist()]
            candidate_weights = weights[hour_bins(
                launch_hour + np.asarray(times))] + 1e-9
            probabilities = candidate_weights / candidate_weights.sum()
            # Generator.choice(n, p=...) == cumsum-normalize + one double +
            # searchsorted; replayed verbatim so the chosen index matches.
            cdf = probabilities.cumsum()
            cdf /= cdf[-1]
            chosen = int(cdf.searchsorted(tape[position + candidates],
                                          side="right"))
            if chosen >= candidates:  # pragma: no cover - u < 1 <= cdf[-1]
                chosen = candidates - 1
            lifetimes.append(times[chosen])
            position += candidates + 1
        return np.sort(np.asarray(lifetimes, dtype=np.float64))

    def lifetimes(self, gpu_name: str, region_name: str,
                  launch_hour_local: int) -> np.ndarray:
        """The sorted revoked-lifetime vector of one option (built lazily)."""
        gpu = get_gpu(gpu_name)
        region = get_region(region_name)
        hour = hour_bin(launch_hour_local)
        key = (gpu.name, region.name, hour)
        vector = self._lifetimes.get(key)
        if vector is None:
            vector = self._build_option(gpu.name, region.name, hour)
            self._lifetimes[key] = vector
        return vector

    def warm(self, cells: Optional[Sequence[Tuple[str, str]]] = None,
             hours: Sequence[int] = tuple(range(24))) -> int:
        """Build every ``(cell, hour)`` option up front; returns the count.

        The online service calls this at startup so steady-state queries
        never sample; fleets rely on the lazy path instead and only build
        the options they actually rank.
        """
        if cells is None:
            cells = self.available_cells()
        for gpu_name, region_name in cells:
            for hour in hours:
                self.lifetimes(gpu_name, region_name, hour)
        return self.options_built

    # ------------------------------------------------------------------
    # Lookup (exact for every duration).
    # ------------------------------------------------------------------
    def probability(self, gpu_name: str, region_name: str,
                    launch_hour_local: int, duration_hours: float) -> float:
        """Per-worker revocation probability within ``duration_hours``.

        Bit-identical to the legacy per-option Monte-Carlo estimate for
        every duration: the rank of the horizon among the option's revoked
        lifetimes is exactly the ``lifetime <= duration`` count the
        sampling loop took.
        """
        if duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        vector = self.lifetimes(gpu_name, region_name, launch_hour_local)
        count = int(np.searchsorted(vector, float(duration_hours),
                                    side="right"))
        return count / self.samples

    def probabilities(self, gpu_name: str,
                      cells: Sequence[Tuple[str, int]],
                      duration_hours: float) -> np.ndarray:
        """Vectorized :meth:`probability` over a ``(region, hour)`` set.

        All candidate options are scored with one comparison against the
        cached row-stacked lifetime matrix — the "score every cell at
        once" stage of the serve hot path.  Elementwise identical to the
        scalar lookups (the padding rows compare with ``inf``).
        """
        if duration_hours <= 0:
            raise ConfigurationError("duration_hours must be positive")
        gpu = get_gpu(gpu_name)
        key = (gpu.name, tuple((region, hour_bin(hour))
                               for region, hour in cells))
        matrix = self._matrices.get(key)
        if matrix is None:
            vectors = [self.lifetimes(gpu.name, region, hour)
                       for region, hour in key[1]]
            width = max((vector.size for vector in vectors), default=0)
            matrix = np.full((len(vectors), max(width, 1)), np.inf)
            for row, vector in enumerate(vectors):
                matrix[row, :vector.size] = vector
            self._matrices[key] = matrix
        counts = (matrix <= float(duration_hours)).sum(axis=1)
        return counts / float(self.samples)
