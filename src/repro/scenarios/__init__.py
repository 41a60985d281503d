"""Fleet-scale scenario simulation.

Design note
===========

The paper (and the measurement campaigns reproducing it) always runs **one
training job at a time** against the transient-server characterization of
Section V-C.  The ROADMAP's north star, however, asks for scenario
diversity at production scale: whole *fleets* of concurrent jobs competing
for the same finite transient-GPU capacity.  This package is the layer
that composes the existing subsystems into that regime:

* a :class:`~repro.scenarios.spec.ScenarioSpec` declares N concurrent jobs
  (:class:`~repro.scenarios.spec.JobSpec`: catalog model, steps, mixed
  GPU/region placements, staggered starts) plus a per-``(gpu, region)``
  pool capacity — everything JSON-round-trippable;
* the :class:`~repro.scenarios.pool.TransientPool` holds the shared finite
  capacity.  A revocation *reclaims* a slot for ``reclaim_seconds``, so a
  revoked job's replacement request can be **denied** or **queued** when
  the pool is exhausted — contention the paper's single-job experiments
  never reach;
* :class:`~repro.scenarios.fleet.FleetRun` places every job on one
  simulator: each job is a :class:`~repro.training.session.TrainingSession`
  driven by a :class:`~repro.scenarios.fleet.FleetJobController` (a
  pool-aware :class:`~repro.cmdare.controller.CMDareController`), worker
  lifetimes come from the calibrated
  :class:`~repro.cloud.revocation.RevocationModel` using each region's
  local hour-of-day, and the run loop rides the PR 2 vectorized
  fast-forward path between disturbances;
* execution fans out through :class:`repro.sweeps.SweepRunner` — one sweep
  cell per fleet replicate (``fleet_cell``) — inheriting bit-identical
  serial/parallel execution and cache/resume for free; results aggregate
  into fleet-level tables (makespan, cost, revocations absorbed,
  replacement-denial rate, PS mitigations) via :mod:`repro.analysis`.

Beyond the cold, statically placed baseline, two opt-in knobs extend the
regime (both default off and are payload-bit-identical to the baseline
when off — the golden-fixture contract of
``tests/test_fleet_golden_identity.py``):

* **warm pool** (``warm_capacity``/``warm_seconds``): reclaimed capacity
  returns as still-running warm servers, and replacements granted from
  one pay the Fig. 10 warm overhead instead of a cold boot;
* **adaptive placement** (``placement="adaptive"``): the pool-aware
  :meth:`repro.modeling.launch_advisor.LaunchAdvisor.answer` mode picks
  each worker's region from live pool availability plus the revocation
  calibration, at launch and when a replacement would be denied.

A fleet can also execute **sharded** across worker processes
(:mod:`repro.scenarios.shard`, ``REPRO_FLEET_SHARDS`` / ``--shards``):
jobs and their pool cells are partitioned by connected component, each
shard runs its own simulator + wake-set loop, and the one cross-shard
coupling — the shared revocation stream — is served by the parent in
deterministic ``(time, job rank)`` order, so payloads stay bit-identical
to the single-process run at any shard count.

Fleet sweeps can fan out along ``pool_size``, ``queue_policy``,
``warm_seconds``, ``launch_hour``, and ``placement`` axes besides
``replicate`` (see :func:`repro.scenarios.fleet.build_fleet_spec`), and
:func:`repro.scenarios.report.fleet_frontier_table` renders the resulting
cost/makespan frontier.

Six named scenarios live in :mod:`repro.scenarios.catalog`
(``single_region_k80``, ``multi_region_hetero``, ``revocation_storm``,
``capacity_crunch``, ``warm_reuse``, ``adaptive_placement``); each is
also registered as a ``fleet_<name>`` sweep.

Command line (mirrors ``python -m repro.sweeps``)::

    python -m repro.scenarios list
    python -m repro.scenarios run capacity_crunch --workers 2 --cache-dir .fleet-cache
    python -m repro.scenarios resume capacity_crunch --cache-dir .fleet-cache
"""

from repro.scenarios.catalog import (
    SCENARIO_BUILDERS,
    get_scenario,
    list_scenarios,
)
from repro.scenarios.fleet import (
    FleetJobController,
    FleetRun,
    apply_fleet_axes,
    build_fleet_spec,
    fleet_cell,
    run_fleet,
    run_scenario,
)
from repro.scenarios.pool import (
    DENIED,
    GRANTED,
    QUEUED,
    ReplacementTicket,
    TransientPool,
)
from repro.scenarios.report import (
    fleet_frontier_table,
    fleet_hour_histogram,
    fleet_rows,
    fleet_summary_table,
    frontier_rows,
)
from repro.scenarios.shard import (
    DeterministicMessageQueue,
    ShardFleetRun,
    ShardGroup,
    ShardedFleetRun,
    partition_scenario,
    run_fleet_sharded,
)
from repro.scenarios.spec import PLACEMENTS, JobSpec, ScenarioSpec

__all__ = [
    "DENIED",
    "DeterministicMessageQueue",
    "FleetJobController",
    "FleetRun",
    "GRANTED",
    "JobSpec",
    "PLACEMENTS",
    "QUEUED",
    "ReplacementTicket",
    "SCENARIO_BUILDERS",
    "ScenarioSpec",
    "ShardFleetRun",
    "ShardGroup",
    "ShardedFleetRun",
    "TransientPool",
    "apply_fleet_axes",
    "build_fleet_spec",
    "fleet_cell",
    "fleet_frontier_table",
    "fleet_hour_histogram",
    "fleet_rows",
    "fleet_summary_table",
    "frontier_rows",
    "get_scenario",
    "list_scenarios",
    "partition_scenario",
    "run_fleet",
    "run_fleet_sharded",
    "run_scenario",
]
