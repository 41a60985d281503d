"""The in-process placement service (see the package docstring).

:class:`PlacementService` wraps one :class:`~repro.modeling.launch_advisor
.LaunchAdvisor` and an optional pool, caches decisions per pool version,
and exposes the async endpoints the transport layer serves.  All real work
is synchronous and deterministic — the async surface exists for request
interleaving at the transport, not for parallel scoring — which is what
makes ``answer_many`` trivially bit-identical to a sequential loop of
single queries: it *is* that loop, with no await between items, so no pool
transition can slip between two queries of one batch.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional

from repro.errors import ConfigurationError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementDecision, PlacementQuery


class PlacementService:
    """Answers placement queries against an advisor and (optionally) a pool.

    Args:
        advisor: The advisor whose ``answer()`` does the scoring; a default
            calibrated one when omitted.
        pool: Optional live :class:`~repro.scenarios.pool.TransientPool`.
            Every query is answered against a fresh snapshot of it; without
            a pool, queries run poolless (always feasible, probability-only
            scores).
        seed: Seed for the default advisor (ignored when ``advisor`` is
            given).
        samples_per_option: Sample count for the default advisor (ignored
            when ``advisor`` is given).
    """

    def __init__(self, advisor: Optional[LaunchAdvisor] = None,
                 pool=None, seed: int = 0, samples_per_option: int = 400):
        self.advisor = advisor if advisor is not None else LaunchAdvisor(
            samples_per_option=samples_per_option, seed=seed)
        self.pool = pool
        #: Decisions answered at `_cache_version`; discarded wholesale when
        #: the pool version moves, so a stale epoch is structurally
        #: unservable (tested in ``tests/test_serve.py``).
        self._decisions: Dict[PlacementQuery, PlacementDecision] = {}
        self._cache_version: Optional[int] = None
        self.queries_answered = 0
        self.cache_hits = 0
        self.cache_invalidations = 0
        self.recalibrations = 0
        #: Bumped by :meth:`recalibrate`; cached decisions are only valid
        #: within one calibration epoch, so a bump drops them all.
        self.calibration_epoch = 0
        #: Monotonic construction instant; the ``health`` op reports
        #: uptime relative to it.
        self.started_monotonic = time.monotonic()

    # ------------------------------------------------------------------
    # Warm-up.
    # ------------------------------------------------------------------
    def warm(self) -> int:
        """Precompute the score table for every ``(gpu, region, hour)`` cell.

        Returns the number of options built.  After warming, steady-state
        queries never run Monte-Carlo sampling — the hot path is a rank
        lookup plus snapshot reads.
        """
        return self.advisor.score_table.warm()

    # ------------------------------------------------------------------
    # Online recalibration.
    # ------------------------------------------------------------------
    def recalibrate(self, result) -> Dict[str, object]:
        """Swap in a refit calibration and invalidate every cached decision.

        Args:
            result: A :class:`repro.telemetry.recalibrate.RecalibrationResult`
                (observed cells are merged over the stock calibration by its
                ``advisor()`` builder).

        The advisor is rebuilt with the same sampling configuration
        (samples, seed) on the refit revocation model, the
        decision cache epoch is bumped, and the cache is dropped — a
        decision scored under the old calibration must never answer a
        post-recalibration query.  The new advisor's score table starts
        empty; answers refill it one option at a time.

        Returns:
            A summary: the new calibration epoch plus the refit cell and
            profile counts.
        """
        self.advisor = result.advisor(
            samples_per_option=self.advisor.samples_per_option,
            seed=self.advisor.seed)
        if self._decisions:
            self.cache_invalidations += 1
        self._decisions.clear()
        self._cache_version = None
        self.recalibrations += 1
        self.calibration_epoch += 1
        return {
            "calibration_epoch": self.calibration_epoch,
            "cells_refit": len(result.calibration),
            "weight_profiles_refit": len(result.hourly_weights),
        }

    # ------------------------------------------------------------------
    # Query endpoints.
    # ------------------------------------------------------------------
    def answer_now(self, query: PlacementQuery) -> PlacementDecision:
        """Answer one query synchronously (the core all endpoints share)."""
        if not isinstance(query, PlacementQuery):
            raise ConfigurationError(
                "answer_now expects a PlacementQuery; build one with "
                "PlacementQuery(...) or PlacementQuery.from_params(...)")
        version = self.pool.version if self.pool is not None else None
        if version != self._cache_version:
            # The pool moved since the cache was filled: every cached
            # decision describes a dead epoch.  Drop them all.
            if self._decisions:
                self.cache_invalidations += 1
            self._decisions.clear()
            self._cache_version = version
        self.queries_answered += 1
        decision = self._decisions.get(query)
        if decision is not None:
            self.cache_hits += 1
            return decision
        snapshot = self.pool.snapshot() if self.pool is not None else None
        decision = self.advisor.answer(query, pool=snapshot)
        self._decisions[query] = decision
        return decision

    async def answer(self, query: PlacementQuery) -> PlacementDecision:
        """Answer one query (async endpoint)."""
        return self.answer_now(query)

    async def answer_many(self, queries: Iterable[PlacementQuery]
                          ) -> List[PlacementDecision]:
        """Answer a batch of queries, bit-identical to sequential singles.

        The loop never awaits between items, so the whole batch answers
        against one pool epoch — exactly what a caller issuing the same
        queries back-to-back through :meth:`answer` would see when the
        pool does not move between them.
        """
        return [self.answer_now(query) for query in queries]

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        """Liveness summary: uptime, epoch, and cache/answer counters.

        The transport layer (``{"op": "health"}``) merges its own queue
        depth on top of this document; the service-level view is what an
        in-process embedder probes.
        """
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self.started_monotonic,
            "calibration_epoch": self.calibration_epoch,
            "queries_answered": self.queries_answered,
            "cached_decisions": len(self._decisions),
            "pool_version": (self.pool.version
                             if self.pool is not None else None),
        }

    def stats(self) -> Dict[str, object]:
        """JSON-encodable service counters."""
        return {
            "queries_answered": self.queries_answered,
            "cache_hits": self.cache_hits,
            "cache_invalidations": self.cache_invalidations,
            "cached_decisions": len(self._decisions),
            "recalibrations": self.recalibrations,
            "calibration_epoch": self.calibration_epoch,
            "pool_version": (self.pool.version
                             if self.pool is not None else None),
            "score_options_built": self.advisor.score_table.options_built,
        }
