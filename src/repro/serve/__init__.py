"""Online placement service: the launch advisor behind a query API.

``repro.serve`` turns the pool-aware placement advisor into a
long-running service answering :class:`~repro.modeling.placement
.PlacementQuery` requests against live pool state — the ROADMAP's
"placement advisor as an online service" item.  The design rests on the
decomposition production inference schedulers use to keep admission
decisions off the hot path, splitting every placement answer into:

* **Score computation** — the calibrated revocation score of each
  ``(gpu, region, hour)`` cell.  Expensive but *pure*: it depends only on
  the calibration, seed, and sample count, never on the pool.  The
  service's :class:`~repro.modeling.placement.ScoreTable` precomputes all
  cells at startup (:meth:`PlacementService.warm`) and survives arbitrary
  pool churn.  Only ``recalibrate`` replaces it: the refit calibration
  gets a new, unwarmed table, and answers refill it lazily, one
  ``(gpu, region, hour)`` option on first use.  Refilling all 288 options
  at the default 400 samples takes about 0.25 s on a 2-vCPU x86 host.
* **Pool-state reads** — availability and queue pressure, read through a
  versioned frozen :class:`~repro.scenarios.pool.PoolSnapshot`.  Cheap
  but *volatile*: any pool transition bumps the pool's version counter.

Decision caching follows the same split: answered decisions are cached by
query, keyed to the pool version they were computed at, and the whole
decision cache is discarded the moment the pool version moves — a stale
epoch is structurally unservable, while score tables carry over untouched.
A recalibration drops the cache too, along with the old table.

:class:`PlacementService` is the in-process core (sync ``answer_now``,
async ``answer`` / ``answer_many``; the batch endpoint is bit-identical to
sequential single queries).  :mod:`repro.serve.transport` adds a JSON-lines
TCP front end on plain :mod:`asyncio`, and :mod:`repro.serve.cli` the
``repro-serve`` console entry point.  See ``examples/serve_queries.py``
for the service driven against a churning fleet pool, and
``benchmarks/serve_baseline.py`` for the load-generator benchmark behind
``BENCH_serve.json``.

Hardening (PR 9): the transport enforces a per-request dispatch timeout
and a concurrent-connection cap (:class:`~repro.serve.transport
.ServerConfig`), answers every failure with a structured error code
(``bad_request`` / ``timeout`` / ``overloaded`` / ``internal``), exposes
a ``health`` op (service uptime + epoch merged with transport queue
depth), and drains gracefully on SIGTERM (``repro-serve serve
--drain-seconds``; :func:`~repro.serve.transport.drain` then closes any
connection a client left open).  Clients survive transient faults via
:func:`~repro.serve.transport.request_with_retry` — exponential backoff
with seeded jitter, applied only to idempotent ops.  The
:mod:`repro.chaos` harness injects connection resets (``serve_reset``)
and dispatch hangs (``serve_hang``) to pin these paths in
``tests/test_serve.py`` and the CI chaos-smoke job.
"""

from repro.serve.service import PlacementService

__all__ = ["PlacementService"]
