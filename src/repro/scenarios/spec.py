"""Declarative fleet-scenario specifications.

A :class:`ScenarioSpec` describes a *fleet*: several concurrent training
jobs (:class:`JobSpec`) sharing one finite pool of transient GPU servers.
Specs round-trip losslessly through JSON (:meth:`ScenarioSpec.to_params` /
:meth:`ScenarioSpec.from_params`), which is what lets the fleet runner fan
scenario cells out through :class:`repro.sweeps.SweepRunner`: the JSON form
is the sweep cell's parameter payload, so per-cell RNG seeding, caching,
and serial/parallel bit-identity all come for free.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.cloud.gpus import get_gpu
from repro.cloud.regions import get_region
from repro.errors import ConfigurationError
from repro.schema import (Invalid, check, choice, declare, flag, integer, mapping, nested,
                          nonempty_text, optional, parse, real, sequence, text)
from repro.training.cluster import ClusterSpec, WorkerSpec
from repro.units import wrap_hour

#: A pool key: ``(gpu name, region name)``.
PoolKey = Tuple[str, str]

#: Valid fleet placement modes: ``static`` pins every worker to its
#: declared ``(gpu, region)``; ``adaptive`` lets the pool-aware launch
#: advisor pick regions from live availability and the revocation
#: calibration, at launch and on replacement denial.
PLACEMENTS = ("static", "adaptive")
_PAIR = sequence(text, low=2, high=2)


def pool_key(value: Any, where: str) -> PoolKey:
    """A ``(gpu, region)`` pair, or its ``"gpu/region"`` spelling, as canonical catalog names."""
    gpu, region = _PAIR(value.split("/") if isinstance(value, str) else value, where)
    try:
        return (get_gpu(gpu).name, get_region(region).name)
    except ConfigurationError as exc:
        raise Invalid(where, "", f": {exc}", "") from None


@dataclass(frozen=True)
class JobSpec:
    """One training job inside a fleet scenario.

    Attributes:
        name: Fleet-unique job name.
        model_name: Catalog model to train.
        total_steps: Workload size in training steps.
        workers: ``(gpu, region)`` placement of each transient GPU worker.
        num_parameter_servers: On-demand parameter servers for the job.
        ps_region_name: Region hosting the parameter servers; defaults to
            the first worker's region.
        checkpoint_interval_steps: Steps between checkpoints.
        start_delay_seconds: Simulation time at which training begins
            (staggered fleet arrivals).  Pool slots for the initial workers
            are reserved at time zero regardless, mirroring servers that
            are provisioned up front and idle until the job starts.
        queue_replacements: When the pool is exhausted, queue replacement
            requests until reclaimed capacity returns instead of denying
            them outright.
        auto_mitigate_bottleneck: Let the job's controller add a parameter
            server when a PS bottleneck is detected.
        steps_per_event: Simulation granularity (steps per chunk event).
    """

    name: str = declare(nonempty_text)
    model_name: str = declare(text)
    total_steps: int = declare(integer(1))
    workers: Tuple[PoolKey, ...] = declare(sequence(pool_key, low=1))
    num_parameter_servers: int = declare(integer(1), default=1)
    ps_region_name: Optional[str] = declare(optional(text), default=None)
    checkpoint_interval_steps: int = declare(integer(1), default=4000)
    start_delay_seconds: float = declare(real(ge=0.0), default=0.0)
    queue_replacements: bool = declare(flag, default=False)
    auto_mitigate_bottleneck: bool = declare(flag, default=False)
    steps_per_event: int = declare(integer(1), default=10)

    def __post_init__(self) -> None:
        check(self, "job")
        # WorkerSpec validates that every region offers its GPU type.
        self.cluster()

    def cluster(self) -> ClusterSpec:
        """The job's :class:`~repro.training.cluster.ClusterSpec`."""
        specs = tuple(WorkerSpec(gpu_name=gpu, region_name=region, transient=True)
                      for gpu, region in self.workers)
        ps_region = self.ps_region_name or self.workers[0][1]
        return ClusterSpec(workers=specs,
                           num_parameter_servers=self.num_parameter_servers,
                           ps_region_name=ps_region)

    def to_params(self) -> Dict[str, Any]:
        """JSON-encodable form (sweep cell parameters)."""
        return {
            "name": self.name,
            "model_name": self.model_name,
            "total_steps": self.total_steps,
            "workers": [list(pair) for pair in self.workers],
            "num_parameter_servers": self.num_parameter_servers,
            "ps_region_name": self.ps_region_name,
            "checkpoint_interval_steps": self.checkpoint_interval_steps,
            "start_delay_seconds": self.start_delay_seconds,
            "queue_replacements": self.queue_replacements,
            "auto_mitigate_bottleneck": self.auto_mitigate_bottleneck,
            "steps_per_event": self.steps_per_event,
        }

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "JobSpec":
        """Rebuild a job spec from its :meth:`to_params` form."""
        return parse(cls, params, "job")


@dataclass(frozen=True)
class ScenarioSpec:
    """A fleet of concurrent jobs contending for one transient-server pool.

    Attributes:
        name: Scenario name (used for sweep naming and caching).
        description: One-line summary shown by the CLI.
        jobs: The fleet's jobs, in launch order.
        pool_capacity: Maximum concurrently alive transient servers per
            ``(gpu, region)`` pool; must cover every job's initial workers.
        reclaim_seconds: How long revoked capacity stays reclaimed by the
            provider before it returns to the pool (and can serve queued
            replacement requests).
        epoch_hour_utc: Wall-clock UTC hour at simulation time zero, or
            ``None`` to draw it from the scenario's random streams.
        poll_interval_seconds: Cadence of every job controller's
            monitoring loop.
        warm_seconds: How long returning reclaimed capacity lingers as a
            warm (re-acquirable, Fig. 10 warm-start) server before cooling
            down.  0 keeps the pool cold-only.
        warm_capacity: Maximum warm servers kept per ``(gpu, region)``
            cell; 0 (the default) disables warm reuse entirely and is
            bit-identical to the pre-warm-pool fleets.
        placement: ``"static"`` (default: workers pinned to their declared
            cells, bit-identical to pre-placement fleets) or ``"adaptive"``
            (the pool-aware launch advisor picks regions from live
            availability and the revocation calibration, at launch and on
            replacement denial).
    """

    name: str = declare(nonempty_text)
    description: str = declare(text)
    jobs: Tuple[JobSpec, ...] = declare(sequence(nested(JobSpec), low=1))
    pool_capacity: Mapping[PoolKey, int] = declare(
        mapping(pool_key, integer(1, convert=int)), default_factory=dict)
    reclaim_seconds: float = declare(real(ge=0.0), default=3600.0)
    epoch_hour_utc: Optional[float] = declare(optional(real(convert=wrap_hour)), default=None)
    poll_interval_seconds: float = declare(real(gt=0.0), default=60.0)
    warm_seconds: float = declare(real(ge=0.0), default=0.0)
    warm_capacity: int = declare(integer(0), default=0)
    placement: str = declare(choice(*PLACEMENTS), default="static")

    def __post_init__(self) -> None:
        check(self, "scenario")
        names = [job.name for job in self.jobs]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate job names in scenario {self.name!r}")
        demand = self.initial_demand()
        if self.placement == "adaptive":
            # Adaptive placement may move a worker to any pool cell with
            # the same GPU type, so validate demand per GPU type instead of
            # per cell.
            demand_by_gpu: Dict[str, int] = {}
            supply_by_gpu: Dict[str, int] = {}
            for (gpu, _region), needed in demand.items():
                demand_by_gpu[gpu] = demand_by_gpu.get(gpu, 0) + needed
            for (gpu, _region), have in self.pool_capacity.items():
                supply_by_gpu[gpu] = supply_by_gpu.get(gpu, 0) + have
            for gpu, needed in demand_by_gpu.items():
                have = supply_by_gpu.get(gpu, 0)
                if needed > have:
                    raise ConfigurationError(
                        f"scenario {self.name!r} needs {needed} x {gpu} "
                        f"transient servers up front but the pool only "
                        f"offers {have} across all regions")
        else:
            for key, needed in demand.items():
                have = self.pool_capacity.get(key, 0)
                if needed > have:
                    raise ConfigurationError(
                        f"scenario {self.name!r} needs {needed} x {key} transient "
                        f"servers up front but the pool only offers {have}")

    def shard_subset(self, job_indices: Tuple[int, ...],
                     cells: Tuple[PoolKey, ...],
                     epoch_hour_utc: Optional[float] = None) -> "ScenarioSpec":
        """The sub-scenario one fleet shard runs: a job/cell slice of this one.

        Used by :mod:`repro.scenarios.shard`: each shard simulates the jobs
        in ``job_indices`` (in their original fleet order, so per-cell pool
        acquisition sequences and launch-draw ordering are preserved)
        against only the pool cells in ``cells``.  ``epoch_hour_utc`` pins
        the fleet epoch explicitly — the parent resolves a ``None`` epoch
        by drawing from the fleet streams exactly once, so every shard
        shares the draw the single-process run would have made.

        The slice revalidates through ``__post_init__``: because the full
        scenario was launchable and ``cells`` covers every sliced job's
        placements, the per-cell demand check passes by construction.
        """
        jobs = tuple(self.jobs[index] for index in job_indices)
        capacity = {key: self.pool_capacity[key] for key in sorted(cells)}
        epoch = self.epoch_hour_utc if epoch_hour_utc is None else epoch_hour_utc
        return dataclasses.replace(self, jobs=jobs, pool_capacity=capacity,
                                   epoch_hour_utc=epoch)

    def initial_demand(self) -> Dict[PoolKey, int]:
        """Transient servers needed per pool at fleet launch."""
        demand: Dict[PoolKey, int] = {}
        for job in self.jobs:
            for key in job.workers:
                demand[key] = demand.get(key, 0) + 1
        return demand

    def total_workers(self) -> int:
        """GPU workers across the whole fleet at launch."""
        return sum(len(job.workers) for job in self.jobs)

    def to_params(self) -> Dict[str, Any]:
        """JSON-encodable form (sweep cell parameters).

        The warm-pool and placement knobs are emitted **only when they
        differ from their cold/static defaults**: the canonical JSON of a
        cell's parameters keys both its derived RNG seed and its cache
        entry, so a default (cold-only, statically placed) scenario must
        encode byte-identically to its pre-warm-pool form for fleet
        payloads and caches to stay bit-compatible.
        """
        params: Dict[str, Any] = {
            "name": self.name,
            "description": self.description,
            "jobs": [job.to_params() for job in self.jobs],
            "pool_capacity": {f"{gpu}/{region}": count
                              for (gpu, region), count in
                              sorted(self.pool_capacity.items())},
            "reclaim_seconds": self.reclaim_seconds,
            "epoch_hour_utc": self.epoch_hour_utc,
            "poll_interval_seconds": self.poll_interval_seconds,
        }
        if self.warm_seconds != 0.0:
            params["warm_seconds"] = self.warm_seconds
        if self.warm_capacity != 0:
            params["warm_capacity"] = self.warm_capacity
        if self.placement != "static":
            params["placement"] = self.placement
        return params

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "ScenarioSpec":
        """Rebuild a scenario spec from its :meth:`to_params` form."""
        return parse(cls, params, "scenario")

    def describe(self) -> str:
        """Short human-readable summary for CLI listings."""
        pools = ", ".join(f"{count}x {gpu}@{region}"
                          for (gpu, region), count in
                          sorted(self.pool_capacity.items()))
        extras = ""
        if self.placement != "static":
            extras += f"; placement: {self.placement}"
        if self.warm_capacity > 0 and self.warm_seconds > 0:
            extras += (f"; warm: {self.warm_capacity}/cell "
                       f"for {self.warm_seconds:g}s")
        return (f"{len(self.jobs)} jobs / {self.total_workers()} workers; "
                f"pool: {pools}{extras}")
