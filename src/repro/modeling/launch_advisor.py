"""Launch-time and region advisor (the paper's Section V-C future work).

The paper observes that revocations depend on the region, the GPU type, and
the local time of day, and suggests "investigating how strategically
launching transient clusters at different times of day and different data
center locations can help mitigate revocation impacts" as future work.
This module implements that advisor: it scores (region, local launch hour)
combinations for a given GPU type and run duration by the probability that
a worker survives the run, estimated by Monte-Carlo sampling of the
calibrated revocation model (or of any model with the same interface).

The query API
-------------
All placement questions go through one entry point,
:meth:`LaunchAdvisor.answer`, which takes a frozen
:class:`~repro.modeling.placement.PlacementQuery` (grid mode: score a
launch-hour grid offline; live mode: score every candidate region at its
current local hour) plus an optional pool snapshot, and returns a ranked
:class:`~repro.modeling.placement.PlacementDecision`.

Scoring is deterministic — each ``(gpu, region, hour)`` option draws from
its own stable generator, seeded from the advisor seed and a CRC digest of
the option itself, independent of call order — so fleet payloads stay
reproducible and serial/parallel sweep executions stay bit-identical.  The
scores come from the vectorized
:class:`~repro.modeling.placement.ScoreTable`, which replays each option's
sampling tape once, keeps the sorted revoked lifetimes, and answers every
duration by rank lookup.

Pool-aware placement
--------------------
A live-mode query with a pool ranks ``(gpu, region, launch hour)`` options
by combining the calibrated revocation score with pool state (free/warm
slot counts and replacement-queue depth), read through the versioned
read-only snapshot API of :class:`repro.scenarios.pool.TransientPool` (any
object with ``cells()`` / ``acquirable()`` / ``pending_waiters()`` /
``capacity()`` works).  Options with no acquirable slot are marked
infeasible and rank after every feasible one, so a fleet controller can
fall back to the next-best feasible placement instead of queueing blindly
on an exhausted cell.  The decision records the pool version it was
computed against, which is what lets :mod:`repro.serve` cache decisions
until the pool actually changes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.cloud.gpus import get_gpu
from repro.cloud.regions import get_region
from repro.cloud.revocation import RevocationModel
from repro.errors import ConfigurationError
from repro.modeling.placement import (
    PlacementDecision,
    PlacementOption,
    PlacementQuery,
    ScoreTable,
)
from repro.units import hour_bin


class LaunchAdvisor:
    """Scores candidate regions and launch hours for a transient cluster.

    Args:
        revocation_model: Generative revocation model to sample from; the
            calibrated default model when omitted.
        samples_per_option: Monte-Carlo samples per (region, hour) option.
        seed: Seed the per-option generators derive from.
    """

    def __init__(self, revocation_model: Optional[RevocationModel] = None,
                 samples_per_option: int = 400, seed: int = 0):
        if samples_per_option < 10:
            raise ConfigurationError("samples_per_option must be at least 10")
        self.samples_per_option = samples_per_option
        self.seed = seed
        self._table = ScoreTable(revocation_model,
                                 samples=samples_per_option, seed=seed)

    @property
    def score_table(self) -> ScoreTable:
        """The advisor's vectorized score table (the serve layer pre-warms
        every ``(gpu, region, hour)`` option of it at startup)."""
        return self._table

    def revocation_score(self, gpu_name: str, region_name: str,
                         launch_hour_local: int, duration_hours: float) -> float:
        """Per-worker revocation probability for one option.

        Each ``(gpu, region, hour)`` option samples from its own stable
        generator (seeded from the advisor seed and a digest of the option
        itself, independent of call order), so repeated placement queries
        during a fleet run are deterministic and cheap.
        """
        return self._table.probability(gpu_name, region_name,
                                       launch_hour_local, duration_hours)

    # ------------------------------------------------------------------
    # The query API.
    # ------------------------------------------------------------------
    def _candidate_cells(self, query: PlacementQuery,
                         pool) -> List[Tuple[str, int]]:
        """Resolve a query to concrete ``(region, local hour)`` candidates."""
        gpu = get_gpu(query.gpu_name)
        region_names = query.region_names
        if region_names is None:
            if query.hour_of_day_utc is not None and pool is not None:
                region_names = tuple(region for cell_gpu, region in pool.cells()
                                     if cell_gpu == gpu.name)
                if not region_names:
                    raise ConfigurationError(
                        f"the pool has no {query.gpu_name!r} cells to place into")
            else:
                region_names = tuple(
                    region for cell_gpu, region
                    in self._table.available_cells() if cell_gpu == gpu.name)
                if not region_names:
                    raise ConfigurationError(
                        f"no candidate regions offer {query.gpu_name!r}")
        if query.launch_hours is not None:
            return [(region_name, hour) for region_name in region_names
                    for hour in query.launch_hours]
        return [(region.name, hour_bin(region.local_hour(query.hour_of_day_utc)))
                for region in map(get_region, region_names)]

    def answer(self, query: PlacementQuery, pool=None) -> PlacementDecision:
        """Answer one placement query, optionally against live pool state.

        Args:
            query: What to place, for how long, and where/when to consider
                (see :class:`~repro.modeling.placement.PlacementQuery`).
            pool: Optional pool state, duck-typed against
                :class:`repro.scenarios.pool.PoolSnapshot` (a live
                :class:`~repro.scenarios.pool.TransientPool` works too):
                must offer ``cells()``, ``acquirable(gpu, region)``,
                ``pending_waiters(gpu, region)``, and
                ``capacity(gpu, region)``.  Without a pool every option is
                feasible and the score is the bare revocation probability.

        Returns:
            The ranked decision; ``decision.best`` is the placement to
            take, or ``None`` when the pool can grant nothing.
        """
        gpu = get_gpu(query.gpu_name)
        cells = self._candidate_cells(query, pool)
        probabilities = self._table.probabilities(gpu.name, cells,
                                                  query.duration_hours)
        options: List[PlacementOption] = []
        for (region_name, hour), probability in zip(cells,
                                                    probabilities.tolist()):
            if pool is None:
                acquirable: Optional[int] = None
                queue_depth = 0
                feasible = True
                score = probability
            else:
                acquirable = pool.acquirable(gpu.name, region_name)
                queue_depth = pool.pending_waiters(gpu.name, region_name)
                capacity = pool.capacity(gpu.name, region_name)
                pressure = queue_depth / capacity if capacity > 0 else 0.0
                feasible = acquirable > 0
                score = probability + query.queue_weight * pressure
            options.append(PlacementOption(
                gpu_name=gpu.name, region_name=region_name,
                launch_hour_local=hour,
                revocation_probability=probability,
                expected_revocations=probability * query.num_workers,
                acquirable=acquirable, queue_depth=queue_depth,
                feasible=feasible, score=score))
        options.sort(key=lambda option: (not option.feasible, option.score,
                                         option.region_name,
                                         option.launch_hour_local))
        return PlacementDecision(query=query, options=tuple(options),
                                 pool_version=getattr(pool, "version", None))
