"""Sharded fleet execution: partitioner, golden identity matrix, merging.

``tests/data/fleet_golden_multi_region_hetero_seed5.json`` was frozen from
the **single-process** fleet runner the day the sharded driver landed.
The tentpole contract: ``run_fleet_sharded`` must keep producing that
payload byte for byte at every shard count, whichever fleet loop drives
the shards (the wake-set loop or the round-robin oracle of
``tests/oracles.py``), on either simulation core path
(``REPRO_CORE_FASTFORWARD``) and at either trace level
(``REPRO_FLEET_TRACE_LEVEL``) — sharding is an execution knob, never a
modeling decision.

Regenerate the fixture **only** for a deliberate, documented payload
change::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.scenarios import get_scenario, run_fleet
    from repro.simulation.rng import RandomStreams
    payload = run_fleet(get_scenario("multi_region_hetero"), RandomStreams(seed=5))
    with open("tests/data/fleet_golden_multi_region_hetero_seed5.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    PY
"""

import dataclasses
import json
import pathlib

import pytest

from oracles import use_reference
from repro import config
from repro.errors import ConfigurationError, SimulationError
from repro.scenarios import (
    get_scenario,
    partition_scenario,
    run_fleet,
    run_fleet_sharded,
)
from repro.scenarios.fleet import run_scenario
from repro.scenarios.shard import ShardedFleetRun
from repro.scenarios.spec import JobSpec, ScenarioSpec
from repro.simulation.rng import RandomStreams

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE = DATA / "fleet_golden_multi_region_hetero_seed5.json"
SINGLE_REGION_FIXTURE = DATA / "fleet_golden_single_region_k80_seed5.json"

REGIONS = ("us-east1", "us-central1", "us-west1", "europe-west1")


def golden_payload():
    return json.loads(FIXTURE.read_text())


def normalized(payload):
    """A JSON round trip so tuples/ints normalize exactly like the fixture."""
    return json.loads(json.dumps(payload))


def four_region_storm(jobs=8, total_steps=30_000):
    """A revocation storm spread over the four K80 regions (one component
    per region), small enough for tests but hot enough to draw revocations
    at seed 3 — so the cross-shard draw service and record merge are
    actually exercised, not just the launch path."""
    specs = tuple(
        JobSpec(name=f"storm-{index}", model_name="resnet_15",
                total_steps=total_steps,
                workers=(("k80", REGIONS[index % len(REGIONS)]),) * 3,
                checkpoint_interval_steps=4000,
                queue_replacements=True)
        for index in range(jobs))
    return ScenarioSpec(
        name="shard_storm_test",
        description="four-region storm for shard tests",
        jobs=specs,
        pool_capacity={("k80", region): jobs for region in REGIONS},
        reclaim_seconds=1200.0,
        epoch_hour_utc=8.5)


# ---------------------------------------------------------------------------
# Partitioner.
# ---------------------------------------------------------------------------
def test_partitioner_groups_by_connected_component():
    """multi_region_hetero's four jobs touch disjoint cell sets, so four
    shards put every job in its own group, each owning its own cells."""
    scenario = get_scenario("multi_region_hetero")
    groups = partition_scenario(scenario, 4)
    assert sorted(g.job_indices for g in groups) == [(0,), (1,), (2,), (3,)]
    owned = [cell for group in groups for cell in group.cells]
    assert sorted(owned) == sorted(scenario.pool_capacity)
    assert len(owned) == len(set(owned)), "cells must be owned by one shard"
    assert [g.index for g in groups] == [0, 1, 2, 3]


def test_partitioner_balances_components_deterministically():
    scenario = get_scenario("multi_region_hetero")
    first = partition_scenario(scenario, 2)
    second = partition_scenario(scenario, 2)
    assert [(g.job_indices, g.cells, g.weight) for g in first] == \
        [(g.job_indices, g.cells, g.weight) for g in second]
    total_weight = sum(g.weight for g in first)
    assert all(g.weight <= total_weight for g in first)
    assert {index for g in first for index in g.job_indices} == {0, 1, 2, 3}


def test_partitioner_jobs_sharing_a_cell_stay_together():
    scenario = four_region_storm(jobs=8)
    groups = partition_scenario(scenario, 8)
    # Two jobs per region share that region's cell: 4 components, not 8.
    assert len(groups) == 4
    for group in groups:
        regions = {scenario.jobs[index].workers[0][1]
                   for index in group.job_indices}
        assert len(regions) == 1


def test_partitioner_gives_spare_cells_to_shard_zero():
    scenario = dataclasses.replace(
        get_scenario("multi_region_hetero"),
        pool_capacity={**get_scenario("multi_region_hetero").pool_capacity,
                       ("v100", "us-central1"): 2})
    groups = partition_scenario(scenario, 2)
    assert ("v100", "us-central1") in groups[0].cells
    owned = [cell for group in groups for cell in group.cells]
    assert sorted(owned) == sorted(scenario.pool_capacity)


@pytest.mark.parametrize("scenario_name, shards", [
    ("multi_region_hetero", 1),     # shards=1 is always one group
    ("single_region_k80", 8),       # one shared cell: one component
    ("adaptive_placement", 4),      # adaptive couples every cell by design
])
def test_partitioner_single_group_cases(scenario_name, shards):
    scenario = get_scenario(scenario_name)
    groups = partition_scenario(scenario, shards)
    assert len(groups) == 1
    assert groups[0].job_indices == tuple(range(len(scenario.jobs)))
    assert groups[0].cells == tuple(sorted(scenario.pool_capacity))


def test_partitioner_rejects_bad_shard_counts():
    with pytest.raises(ConfigurationError):
        partition_scenario(get_scenario("multi_region_hetero"), 0)


def test_shard_subset_keeps_validation_and_pins_the_epoch():
    scenario = get_scenario("multi_region_hetero")
    subset = scenario.shard_subset((1, 2), (("p100", "us-central1"),
                                            ("v100", "us-west1")),
                                   epoch_hour_utc=8.25)
    assert [job.name for job in subset.jobs] == \
        [scenario.jobs[1].name, scenario.jobs[2].name]
    assert subset.epoch_hour_utc == 8.25
    assert sorted(subset.pool_capacity) == [("p100", "us-central1"),
                                            ("v100", "us-west1")]
    with pytest.raises(ConfigurationError):
        scenario.shard_subset((), (("p100", "us-central1"),))


# ---------------------------------------------------------------------------
# Golden identity matrix (the tentpole contract).
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ("wakeset", "roundrobin"))
@pytest.mark.parametrize("fastforward", ("1", "0"))
@pytest.mark.parametrize("trace_level", ("full", "summary"))
def test_two_shard_fleet_matches_the_frozen_single_process_payload(
        scheduler, fastforward, trace_level, catalog, monkeypatch):
    """Two shards reproduce the frozen single-process payload byte for
    byte, for every scheduler x core path x trace level combination (the
    knobs through their environment switches, and the fleet loop through
    the oracle swap, all of which the forked shard workers inherit)."""
    use_reference(monkeypatch, scheduler=scheduler)
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", fastforward)
    monkeypatch.setenv("REPRO_FLEET_TRACE_LEVEL", trace_level)
    payload = run_fleet_sharded(get_scenario("multi_region_hetero"),
                                RandomStreams(seed=5), catalog=catalog,
                                shards=2)
    assert normalized(payload) == golden_payload()


@pytest.mark.parametrize("shards", (1, 4))
def test_other_shard_counts_match_the_frozen_payload(shards, catalog):
    payload = run_fleet_sharded(get_scenario("multi_region_hetero"),
                                RandomStreams(seed=5), catalog=catalog,
                                shards=shards)
    assert normalized(payload) == golden_payload()


def test_fixture_matches_the_live_single_process_runner(catalog):
    """The committed fixture is the single-process payload — if this
    drifts, every sharded comparison above is testing against history."""
    payload = run_fleet(get_scenario("multi_region_hetero"),
                        RandomStreams(seed=5), catalog=catalog)
    assert normalized(payload) == golden_payload()


def test_single_component_fleet_runs_single_process_at_any_shard_count(
        catalog):
    """A one-component fleet (everything shares one cell) takes the stock
    in-process path whatever the shard count — byte-identical to the
    frozen PR 4 payload, no processes spawned."""
    run = ShardedFleetRun(get_scenario("single_region_k80"),
                          RandomStreams(seed=5), catalog=catalog, shards=8)
    assert len(run.groups) == 1
    payload = run.run()
    assert normalized(payload) == json.loads(SINGLE_REGION_FIXTURE.read_text())
    assert run.events_processed > 0


def test_storm_with_revocations_is_identical_across_shard_counts(catalog):
    """The four-region storm draws real revocations at seed 3, so this
    pins the cross-shard draw service and the (time, draw rank) merge of
    revocation records — not just the launch path."""
    scenario = four_region_storm()
    single = run_fleet(scenario, RandomStreams(seed=3), catalog=catalog)
    assert single["revocations"] > 0, "dead storm: tune seed/steps"
    assert single["revocation_hours_local"]
    for shards in (2, 4):
        payload = run_fleet_sharded(scenario, RandomStreams(seed=3),
                                    catalog=catalog, shards=shards)
        assert normalized(payload) == normalized(single)


def test_warm_pool_fleet_is_identical_across_shards(catalog):
    """Two warm-pool components merge their warm counters exactly
    (the conditional replacements_warm / warm_reuse_rate payload keys)."""
    base = get_scenario("warm_reuse")
    jobs = base.jobs + tuple(
        dataclasses.replace(job, name=f"{job.name}-west",
                            workers=(("k80", "us-west1"),) * 3)
        for job in base.jobs)
    scenario = dataclasses.replace(
        base, name="warm_two_region", jobs=jobs,
        pool_capacity={("k80", "europe-west1"): 12, ("k80", "us-west1"): 12})
    single = run_fleet(scenario, RandomStreams(seed=11), catalog=catalog)
    payload = run_fleet_sharded(scenario, RandomStreams(seed=11),
                                catalog=catalog, shards=2)
    assert normalized(payload) == normalized(single)
    assert "replacements_warm" in payload
    assert "warm_reuse_rate" in payload


def test_sharded_event_counts_sum_across_shards(catalog):
    scenario = four_region_storm()
    run = ShardedFleetRun(scenario, RandomStreams(seed=3), catalog=catalog,
                          shards=4)
    assert len(run.groups) == 4
    run.run()
    assert run.events_processed > 0


# ---------------------------------------------------------------------------
# Failure propagation and plumbing.
# ---------------------------------------------------------------------------
def _live_fleet_children():
    """Any still-running multiprocessing children of this test process."""
    import multiprocessing

    return [process for process in multiprocessing.active_children()
            if process.name.startswith("repro-fleet-shard")]


def test_shard_failure_surfaces_as_a_simulation_error(catalog):
    """A shard that dies mid-run (unknown model resolved in the child)
    raises in the parent with the child traceback, instead of hanging the
    draw service."""
    scenario = four_region_storm(jobs=4, total_steps=1000)
    broken = dataclasses.replace(
        scenario,
        jobs=scenario.jobs[:3] + (dataclasses.replace(
            scenario.jobs[3], model_name="no_such_model"),))
    with pytest.raises(SimulationError, match="shard"):
        run_fleet_sharded(broken, RandomStreams(seed=3), catalog=catalog,
                          shards=4)
    assert _live_fleet_children() == [], \
        "the fail-fast path must reap every child before raising"


def test_fail_fast_path_reaps_all_children(catalog):
    """A deterministic child error is NOT retried (replaying it would just
    repeat it); the parent raises with zero restarts used and no live
    children left behind."""
    scenario = four_region_storm(jobs=4, total_steps=1000)
    broken = dataclasses.replace(
        scenario,
        jobs=(dataclasses.replace(scenario.jobs[0],
                                  model_name="no_such_model"),)
        + scenario.jobs[1:])
    run = ShardedFleetRun(broken, RandomStreams(seed=3), catalog=catalog,
                          shards=4, max_restarts=5)
    with pytest.raises(SimulationError, match="no_such_model"):
        run.run()
    assert run.restarts == [], "deterministic errors must not burn restarts"
    assert _live_fleet_children() == []


def test_exhausted_restart_budget_raises_and_reaps(catalog, monkeypatch):
    """A shard that keeps crashing (chaos kills every incarnation) exhausts
    the restart budget, surfaces a clean SimulationError naming it, and
    leaves no live children."""
    monkeypatch.setenv(
        "REPRO_CHAOS",
        ";".join(f"shard_crash:shard=0,at=1,incarnation={i}"
                 for i in range(4)))
    scenario = four_region_storm(jobs=4, total_steps=1000)
    run = ShardedFleetRun(scenario, RandomStreams(seed=3), catalog=catalog,
                          shards=4, max_restarts=2)
    with pytest.raises(SimulationError,
                       match=r"restart budget \(2\) is exhausted"):
        run.run()
    assert len(run.restarts) == 2, "both budgeted restarts were attempted"
    assert all(record["shard"] == 0 for record in run.restarts)
    assert _live_fleet_children() == []


def test_restart_budget_env_knob_and_validation(monkeypatch):
    monkeypatch.setenv("REPRO_SHARD_RESTARTS", "7")
    assert config.SHARD_RESTARTS.get() == 7
    monkeypatch.setenv("REPRO_SHARD_RESTARTS", "-1")
    with pytest.raises(ConfigurationError):
        config.SHARD_RESTARTS.get()
    monkeypatch.setenv("REPRO_SHARD_RESTARTS", "lots")
    with pytest.raises(ConfigurationError):
        config.SHARD_RESTARTS.get()
    monkeypatch.delenv("REPRO_SHARD_RESTARTS")
    for heartbeat in ("0", "nan"):
        monkeypatch.setenv("REPRO_SHARD_HEARTBEAT_SECONDS", heartbeat)
        with pytest.raises(ConfigurationError):
            config.SHARD_HEARTBEAT_SECONDS.get()
    monkeypatch.delenv("REPRO_SHARD_HEARTBEAT_SECONDS")
    scenario = four_region_storm(jobs=4, total_steps=1000)
    with pytest.raises(ConfigurationError):
        ShardedFleetRun(scenario, RandomStreams(seed=3), shards=2,
                        max_restarts=-1)
    with pytest.raises(ConfigurationError):
        ShardedFleetRun(scenario, RandomStreams(seed=3), shards=2,
                        heartbeat_seconds=0.0)


def test_fleet_cell_routes_through_the_env_knob(catalog, monkeypatch):
    """REPRO_FLEET_SHARDS=2 changes execution, not payloads, all the way
    through the sweep engine (run_scenario -> fleet_cell)."""
    scenario = get_scenario("multi_region_hetero")
    monkeypatch.delenv("REPRO_FLEET_SHARDS", raising=False)
    single = run_scenario(scenario, replicates=1, seed=5, workers=1)
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "2")
    sharded = run_scenario(scenario, replicates=1, seed=5, workers=1)
    assert normalized(sharded.payloads()) == normalized(single.payloads())


def test_bad_env_shard_count_is_a_configuration_error(monkeypatch):
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "zero")
    with pytest.raises(ConfigurationError, match="REPRO_FLEET_SHARDS"):
        config.FLEET_SHARDS.get()


def test_cli_shards_flag_is_scoped_and_payload_identical(tmp_path, monkeypatch):
    """``--shards 2`` produces the same payloads as ``--shards 1`` and
    restores the environment afterwards (no leak between invocations)."""
    import os

    from repro.scenarios.cli import main

    monkeypatch.delenv("REPRO_FLEET_SHARDS", raising=False)
    out_single = tmp_path / "single.json"
    out_sharded = tmp_path / "sharded.json"
    assert main(["run", "multi_region_hetero", "--replicates", "1",
                 "--seed", "5", "--shards", "1",
                 "--json", str(out_single)]) == 0
    assert main(["run", "multi_region_hetero", "--replicates", "1",
                 "--seed", "5", "--shards", "2",
                 "--json", str(out_sharded)]) == 0
    assert "REPRO_FLEET_SHARDS" not in os.environ
    single = json.loads(out_single.read_text())
    sharded = json.loads(out_sharded.read_text())
    assert sharded["fleets"] == single["fleets"]


class _LocalDrawService:
    """An in-process stand-in for the parent's pipe: answers each draw
    request from a local RevocationModel, in request order.  Lets tests
    drive ShardFleetRun (normally child-process code) on this side of the
    fork, where assertions and coverage can see it."""

    def __init__(self, streams):
        from repro.cloud.revocation import RevocationModel

        self._model = RevocationModel(rng=streams.get("revocation"))
        self._replies = []
        self._rank = 0
        self.progress_reports = 0

    def send(self, message):
        kind = message[0]
        if kind == "progress":
            self.progress_reports += 1
            return
        assert kind == "draw"
        _, _time, _rank, calls = message
        outcomes = []
        for call_kind, gpu, region, count, launch_hour in calls:
            if call_kind == "batch":
                outcomes.extend(self._model.sample_batch(
                    gpu, region, count, launch_hour_local=launch_hour,
                    stressed=True))
            else:
                outcomes.append(self._model.sample(
                    gpu, region, launch_hour_local=launch_hour,
                    stressed=True))
        self._replies.append(("grant", (outcomes, self._rank)))
        self._rank += len(outcomes)

    def recv(self):
        return self._replies.pop(0)


def test_one_shard_run_reproduces_the_whole_fleet(catalog):
    """A ShardFleetRun holding *every* job, fed by an in-process draw
    service, is the single-process fleet: same draw order, same payload,
    and its revocation records carry the global draw ranks in order."""
    from repro.scenarios.shard import ShardFleetRun

    scenario = four_region_storm()
    single = run_fleet(scenario, RandomStreams(seed=3), catalog=catalog)

    streams = RandomStreams(seed=3)
    service = _LocalDrawService(streams)
    epoch = scenario.epoch_hour_utc
    sub = scenario.shard_subset(tuple(range(len(scenario.jobs))),
                                tuple(sorted(scenario.pool_capacity)),
                                epoch_hour_utc=epoch)
    run = ShardFleetRun(sub, RandomStreams(seed=3), conn=service,
                        job_ranks=range(len(scenario.jobs)),
                        catalog=catalog)
    payload = run.run()
    assert normalized(payload) == normalized(single)
    ranks = [rank for _time, rank, _hour in run.revocation_records]
    assert len(ranks) == single["revocations"]
    assert [record[2] for record in sorted(
        run.revocation_records, key=lambda r: (r[0], r[1]))] == \
        single["revocation_hours_local"]
    assert service.progress_reports > 0
