"""Record the placement-service baseline (``BENCH_serve.json``).

Replays a deterministic query stream against a :class:`repro.serve
.PlacementService` backed by a churning transient pool — the serving
shape of the ROADMAP's "placement advisor as an online service" item —
and records:

* **queries/sec** on the full replay (batched ``answer_many``, pool
  version bumps interleaved so the decision cache is repeatedly
  invalidated and refilled, like a live fleet would);
* **p50/p99 latency** of single ``answer`` calls over a sampled slice of
  the same stream;
* **cold-scoring throughput** of a fresh service (empty score table, every
  option built on first use, each scored once per duration), best of five
  fresh services, divided by the best-of-five chunked single-session
  steps/sec of the core baseline's reference session
  (:func:`core_baseline.chunked_steps_per_sec`) measured in the same
  process — the host-normalized ratio the CI smoke gate tracks.

It also verifies the serve-layer contracts: batch answers bit-identical
to sequential singles, and decisions deterministic across fresh services.

Run with::

    python benchmarks/serve_baseline.py            # full baseline, writes JSON
    python benchmarks/serve_baseline.py --quick    # quick config only, no write
    python benchmarks/serve_baseline.py --quick --check
        # measure the quick config and fail (exit 1) if the host-normalized
        # cold-scoring throughput regressed more than 30% against the
        # committed BENCH_serve.json
    python benchmarks/serve_baseline.py --quick --json-out out.json
        # also dump the measured numbers (CI uploads these as artifacts)
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import numpy as np

from _common import environment_block, make_parser, ratio_gate, write_json
from core_baseline import BEST_OF, chunked_steps_per_sec
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.scenarios.pool import TransientPool
from repro.serve.service import PlacementService
from repro.simulation.engine import Simulator

#: The reference replay: 1M queries over a discrete (gpu, duration,
#: utc-hour) grid, pool churn every ``churn_every`` queries.
REFERENCE = {"queries": 1_000_000, "latency_sample": 20_000,
             "churn_every": 256, "batch": 1_000, "seed": 0,
             "samples_per_option": 400}

#: Quick variant used by the CI smoke gate.
QUICK = {"queries": 50_000, "latency_sample": 5_000,
         "churn_every": 256, "batch": 1_000, "seed": 0,
         "samples_per_option": 400}

#: Allowed fractional regression of the normalized cold-scoring throughput
#: before ``--check`` fails.
REGRESSION_TOLERANCE = 0.30

#: The query grid: every combination appears in the replay stream.
GPUS = ("k80", "p100", "v100")
DURATIONS = tuple(float(hours) for hours in range(1, 25))
UTC_HOURS = tuple(hour / 2.0 for hour in range(48))

#: Cold-scoring workload (the gate): score every (gpu, hour) option at
#: each duration with a fresh advisor.
COLD_DURATIONS = DURATIONS[:12]

OUTPUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "BENCH_serve.json")

#: Pool cells covering every replay GPU (capacities > 1 so churn can
#: acquire/release without exhausting a cell).
POOL_CAPACITY = {("k80", "us-west1"): 4, ("k80", "europe-west1"): 4,
                 ("p100", "us-central1"): 4, ("p100", "europe-west1"): 4,
                 ("v100", "us-west1"): 4, ("v100", "us-central1"): 4}


def build_service(config: dict, with_pool: bool = True) -> PlacementService:
    pool = None
    if with_pool:
        pool = TransientPool(Simulator(), dict(POOL_CAPACITY),
                             reclaim_seconds=600.0)
    advisor = LaunchAdvisor(samples_per_option=config["samples_per_option"],
                            seed=config["seed"])
    return PlacementService(advisor=advisor, pool=pool)


def query_stream(count: int):
    """A deterministic replay stream cycling the discrete query grid.

    Stride-based index mixing (coprime strides) so consecutive queries
    differ in every axis — the worst case for a naive per-query cache,
    the intended case for the epoch-keyed decision cache.
    """
    gpus, durations, hours = GPUS, DURATIONS, UTC_HOURS
    for index in range(count):
        yield PlacementQuery(
            gpu_name=gpus[(index * 7) % len(gpus)],
            duration_hours=durations[(index * 11) % len(durations)],
            hour_of_day_utc=hours[(index * 13) % len(hours)])


def churn(pool: TransientPool, step: int) -> None:
    """One deterministic pool transition (bumps the pool version)."""
    cells = sorted(POOL_CAPACITY)
    gpu, region = cells[step % len(cells)]
    if pool.available(gpu, region) > 0:
        pool.acquire(gpu, region)
    else:
        pool.release(gpu, region)


def measure_replay(config: dict) -> dict:
    """Throughput + latency of the batched replay with pool churn."""
    service = build_service(config)
    service.warm()

    async def replay() -> float:
        batch_size = config["batch"]
        churn_every = config["churn_every"]
        batch: list = []
        started = time.perf_counter()
        step = 0
        for index, query in enumerate(query_stream(config["queries"])):
            batch.append(query)
            if len(batch) == batch_size:
                await service.answer_many(batch)
                batch.clear()
            if (index + 1) % churn_every == 0:
                churn(service.pool, step)
                step += 1
        if batch:
            await service.answer_many(batch)
        return time.perf_counter() - started

    wall = asyncio.run(replay())

    async def latencies() -> np.ndarray:
        samples = np.empty(config["latency_sample"])
        for index, query in enumerate(query_stream(config["latency_sample"])):
            started = time.perf_counter()
            await service.answer(query)
            samples[index] = time.perf_counter() - started
        return samples

    sampled = asyncio.run(latencies())
    stats = service.stats()
    return {
        "queries": config["queries"],
        "wall_seconds": round(wall, 3),
        "queries_per_sec": round(config["queries"] / wall, 1),
        "latency_p50_us": round(float(np.percentile(sampled, 50)) * 1e6, 2),
        "latency_p99_us": round(float(np.percentile(sampled, 99)) * 1e6, 2),
        "latency_sample": config["latency_sample"],
        "cache_hits": stats["cache_hits"],
        "cache_invalidations": stats["cache_invalidations"],
        "pool_version_final": stats["pool_version"],
    }


def measure_cold_scoring(config: dict) -> dict:
    """Score the full option grid cold; gate the host-normalized rate.

    Each run answers on a fresh service, so every option is built; the
    best wall counts, like the best-of-five normalizer it is divided by.
    """
    queries = [PlacementQuery(gpu_name=gpu, duration_hours=duration,
                              hour_of_day_utc=hour)
               for gpu in GPUS
               for duration in COLD_DURATIONS
               for hour in UTC_HOURS]
    walls = []
    for _ in range(BEST_OF):
        service = build_service(config, with_pool=False)
        started = time.perf_counter()
        asyncio.run(service.answer_many(queries))
        walls.append(time.perf_counter() - started)
    wall = min(walls)
    session_steps_per_sec = chunked_steps_per_sec()
    return {
        "options": len(GPUS) * len(UTC_HOURS),
        "durations": len(COLD_DURATIONS),
        "wall_seconds": round(wall, 3),
        "queries_per_sec": round(len(queries) / wall, 1),
        "chunked_session_steps_per_sec": round(session_steps_per_sec, 1),
        "queries_per_kilostep": round(
            1000.0 * len(queries) / wall / session_steps_per_sec, 3),
    }


def verify_contracts(config: dict) -> dict:
    """The serve-layer identity contracts (asserted, and recorded)."""
    probe = dict(config, queries=2_000)

    # Batch == sequential: same advisor seed, same pool history.
    batch_service = build_service(probe)
    batched = asyncio.run(
        batch_service.answer_many(list(query_stream(probe["queries"]))))
    single_service = build_service(probe)

    async def sequential():
        return [await single_service.answer(query)
                for query in query_stream(probe["queries"])]

    singles = asyncio.run(sequential())
    assert batched == singles, "batch decisions diverged from sequential"

    # Determinism across fresh services.
    again = asyncio.run(build_service(probe).answer_many(
        list(query_stream(probe["queries"]))))
    assert again == batched, "fresh service produced different decisions"

    return {"batch_equals_sequential": True, "deterministic": True,
            "probe_queries": probe["queries"]}


def _measure(config: dict) -> dict:
    contracts = verify_contracts(config)
    return {
        "replay": measure_replay(config),
        "cold_scoring": measure_cold_scoring(config),
        "bit_identical_decisions": contracts,
    }


def main(argv=None) -> int:
    parser = make_parser(
        __doc__, output=OUTPUT,
        check_help="compare the quick cold-scoring throughput, "
                   "normalized by the chunked single-session steps/sec, "
                   "against a committed baseline (default benchmarks/"
                   "BENCH_serve.json) and exit non-zero on a >30%% "
                   "regression")
    args = parser.parse_args(argv)

    quick = _measure(QUICK)
    print(json.dumps({"quick": quick}, indent=2))
    measured = {"quick": quick}
    status = 0
    if args.check is not None:
        status = ratio_gate(
            args.check, quick,
            ratio_path=("cold_scoring", "queries_per_kilostep"),
            label="cold-scoring queries per chunked-session kilostep",
            tolerance=REGRESSION_TOLERANCE, precision=3,
            informative_path=("replay", "queries_per_sec"),
            informative_label="queries/sec")
    elif not args.quick:
        full = _measure(REFERENCE)
        measured["full"] = full
        baseline = {
            "reference_replay": REFERENCE,
            "full": full,
            "quick": quick,
            "environment": environment_block(),
            "note": ("queries_per_sec replays the (gpu, duration, utc-hour) "
                     "grid through PlacementService.answer_many batches with "
                     "a pool transition every churn_every queries (decision "
                     "cache repeatedly invalidated); latency percentiles "
                     "time single answer() awaits.  cold_scoring answers "
                     "the full grid on a fresh service (every score-table "
                     "option built on first use), best of five fresh "
                     "services; queries_per_kilostep "
                     "divides its queries/sec by the chunked-path steps/sec "
                     "of the core baseline's quick reference session "
                     "(per 1000 steps), measured in the same process, and "
                     "is the gated host-normalized ratio.  Tracked "
                     "contracts: batch == sequential decisions and "
                     "deterministic replay.  Regenerate with "
                     "`python benchmarks/serve_baseline.py` on the same "
                     "host class when the advisor, score table, or serve "
                     "layer changes."),
        }
        print(json.dumps({"full": full}, indent=2))
        print()
        write_json(OUTPUT, baseline)
    if args.json_out:
        write_json(args.json_out, measured)
    return status


if __name__ == "__main__":
    sys.exit(main())
