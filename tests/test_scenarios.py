"""Tests for the fleet-scale scenario subsystem (repro.scenarios)."""

import dataclasses
import json

import pytest

from repro.errors import CapacityError, ConfigurationError
from repro.scenarios import (
    JobSpec,
    ScenarioSpec,
    TransientPool,
    apply_fleet_axes,
    build_fleet_spec,
    fleet_frontier_table,
    fleet_hour_histogram,
    fleet_summary_table,
    frontier_rows,
    get_scenario,
    list_scenarios,
    run_fleet,
    run_scenario,
)
from repro.scenarios.cli import build_parser, main
from repro.scenarios.fleet import FleetRun
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams
from repro.sweeps import get_sweep
from repro.sweeps.result import CellResult, SweepResult


def tiny_scenario(**overrides):
    """A two-job fleet small enough for unit tests."""
    defaults = dict(
        name="tiny",
        description="two tiny jobs",
        jobs=(
            JobSpec(name="a", model_name="resnet_15", total_steps=600,
                    workers=(("k80", "us-west1"),) * 2,
                    checkpoint_interval_steps=500),
            JobSpec(name="b", model_name="resnet_15", total_steps=600,
                    workers=(("k80", "us-west1"),) * 2,
                    checkpoint_interval_steps=500),
        ),
        pool_capacity={("k80", "us-west1"): 5},
        reclaim_seconds=600.0,
        epoch_hour_utc=9.0,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


# ---------------------------------------------------------------------------
# Specs.
# ---------------------------------------------------------------------------
def test_scenario_spec_round_trips_through_json():
    scenario = get_scenario("multi_region_hetero")
    params = scenario.to_params()
    encoded = json.dumps(params, sort_keys=True)
    rebuilt = ScenarioSpec.from_params(json.loads(encoded))
    assert rebuilt == scenario
    assert rebuilt.to_params() == params


def test_scenario_spec_validation():
    job = JobSpec(name="a", model_name="resnet_15", total_steps=100,
                  workers=(("k80", "us-west1"),))
    with pytest.raises(ConfigurationError):  # pool smaller than the fleet
        ScenarioSpec(name="bad", description="", jobs=(job,),
                     pool_capacity={("k80", "us-west1"): 0})
    with pytest.raises(ConfigurationError):  # missing pool cell
        ScenarioSpec(name="bad", description="", jobs=(job,), pool_capacity={})
    with pytest.raises(ConfigurationError):  # duplicate job names
        ScenarioSpec(name="bad", description="", jobs=(job, job),
                     pool_capacity={("k80", "us-west1"): 4})
    with pytest.raises(ConfigurationError):  # region does not offer the GPU
        JobSpec(name="x", model_name="resnet_15", total_steps=100,
                workers=(("v100", "europe-west1"),))
    # Epoch hours normalize into [0, 24).
    spec = tiny_scenario(epoch_hour_utc=-5.0)
    assert spec.epoch_hour_utc == pytest.approx(19.0)
    with pytest.raises(ConfigurationError):
        tiny_scenario(warm_seconds=-1.0)
    with pytest.raises(ConfigurationError):
        tiny_scenario(warm_capacity=-1)
    with pytest.raises(ConfigurationError):
        tiny_scenario(placement="no-such-mode")


def _job_with_integer_workers():
    params = tiny_scenario().to_params()
    params["jobs"][0]["workers"] = 3
    return params


@pytest.mark.parametrize("document, field", [
    ([], "object"),
    ({"name": "x", "jobs": "notalist"}, "'jobs'"),
    (_job_with_integer_workers(), "'workers'"),
    (dict(tiny_scenario().to_params(), pool_capacity="x"), "'pool_capacity'"),
], ids=["not-an-object", "jobs-not-a-list", "workers-an-integer",
        "pool-capacity-a-string"])
def test_scenario_from_params_raises_typed_errors(document, field):
    with pytest.raises(ConfigurationError, match=field):
        ScenarioSpec.from_params(document)


def test_default_scenario_params_emit_no_new_keys():
    """The cold/static defaults must serialize exactly as before the warm
    pool and placement landed: the canonical JSON keys derived cell seeds
    and caches, so new keys would silently reshuffle every fleet payload."""
    params = tiny_scenario().to_params()
    assert set(params) == {
        "name", "description", "jobs", "pool_capacity", "reclaim_seconds",
        "epoch_hour_utc", "poll_interval_seconds"}
    # Non-default knobs do serialize, and round-trip through JSON.
    warm = tiny_scenario(warm_seconds=600.0, warm_capacity=2,
                         placement="adaptive")
    params = warm.to_params()
    assert params["warm_seconds"] == 600.0
    assert params["warm_capacity"] == 2
    assert params["placement"] == "adaptive"
    rebuilt = ScenarioSpec.from_params(json.loads(json.dumps(params)))
    assert rebuilt == warm
    assert rebuilt.to_params() == params
    for name in ("warm_reuse", "adaptive_placement"):
        scenario = get_scenario(name)
        rebuilt = ScenarioSpec.from_params(
            json.loads(json.dumps(scenario.to_params())))
        assert rebuilt == scenario


def test_adaptive_validation_aggregates_demand_per_gpu():
    """Adaptive placement may spread workers across regions, so demand is
    validated per GPU type; static keeps the strict per-cell check."""
    job = JobSpec(name="a", model_name="resnet_15", total_steps=100,
                  workers=(("k80", "europe-west1"),) * 3)
    # 3 workers declared in europe-west1, but only 2 + 2 slots split across
    # regions: fine for adaptive, rejected for static.
    capacity = {("k80", "europe-west1"): 2, ("k80", "us-west1"): 2}
    adaptive = ScenarioSpec(name="ok", description="", jobs=(job,),
                            pool_capacity=capacity, placement="adaptive")
    assert adaptive.placement == "adaptive"
    with pytest.raises(ConfigurationError):
        ScenarioSpec(name="bad", description="", jobs=(job,),
                     pool_capacity=capacity, placement="static")
    with pytest.raises(ConfigurationError):  # not enough k80 anywhere
        ScenarioSpec(name="bad", description="", jobs=(job,),
                     pool_capacity={("k80", "europe-west1"): 2},
                     placement="adaptive")


def test_named_scenarios_build_and_register():
    scenarios = list_scenarios()
    assert [s.name for s in scenarios] == [
        "single_region_k80", "multi_region_hetero", "revocation_storm",
        "capacity_crunch", "warm_reuse", "adaptive_placement"]
    with pytest.raises(ConfigurationError):
        get_scenario("no-such-scenario")
    # Every named scenario is also a registered fleet_<name> sweep.
    for scenario in scenarios:
        definition = get_sweep(f"fleet_{scenario.name}")
        assert len(definition.build_spec()) >= 2


# ---------------------------------------------------------------------------
# The shared pool.
# ---------------------------------------------------------------------------
def test_pool_denies_when_exhausted_and_reclaims_capacity():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 2}, reclaim_seconds=100.0)
    pool.acquire("k80", "us-west1")
    pool.acquire("k80", "us-west1")
    with pytest.raises(CapacityError):
        pool.acquire("k80", "us-west1")

    granted = []
    pool.revoke("k80", "us-west1")  # slot reclaimed for 100 s
    ticket = pool.request_replacement("k80", "us-west1",
                                      lambda warm: granted.append("now"))
    assert ticket.outcome == "denied" and granted == []
    assert pool.replacement_denial_rate == 1.0

    # A queued request is served FIFO when the reclaimed capacity returns.
    ticket = pool.request_replacement("k80", "us-west1",
                                      lambda warm: granted.append("first"),
                                      queue=True)
    assert ticket.outcome == "queued"
    ticket = pool.request_replacement("k80", "us-west1",
                                      lambda warm: granted.append("second"),
                                      queue=True)
    assert ticket.outcome == "queued"
    sim.run(until=99.0)
    assert granted == []
    sim.run(until=101.0)
    assert granted == ["first"]  # one slot back, one waiter served
    assert pool.pending_waiters("k80", "us-west1") == 1
    # A normal release (job completed) serves the remaining waiter.
    pool.release("k80", "us-west1")
    assert granted == ["first", "second"]
    stats = pool.stats()
    assert stats["replacements_denied"] == 1
    assert stats["replacements_granted"] == 2
    assert stats["cells"]["k80/us-west1"]["peak_in_use"] == 2


def test_pool_rejects_unknown_cells_and_misuse():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 1})
    with pytest.raises(CapacityError):
        pool.acquire("v100", "us-west1")
    with pytest.raises(CapacityError):
        pool.release("k80", "us-west1")
    with pytest.raises(ConfigurationError):
        TransientPool(sim, {})
    with pytest.raises(ConfigurationError):
        TransientPool(sim, {("k80", "us-west1"): 0})
    with pytest.raises(ConfigurationError):
        TransientPool(sim, {("k80", "us-west1"): 1}, warm_seconds=-1.0)
    with pytest.raises(ConfigurationError):
        TransientPool(sim, {("k80", "us-west1"): 1}, warm_capacity=-1)


def test_pool_stats_are_clean_for_zero_request_fleets():
    """No replacement traffic: rates are exactly 0.0, never NaN/raise."""
    pool = TransientPool(Simulator(), {("k80", "us-west1"): 2})
    assert pool.replacement_denial_rate == 0.0
    assert pool.warm_reuse_rate == 0.0
    stats = pool.stats()
    assert stats["replacement_requests"] == 0
    assert stats["replacement_denial_rate"] == 0.0
    assert stats["replacement_denial_rate"] == stats["replacement_denial_rate"]
    # Optional counters stay out of the zero case (payload-identity rule).
    assert "replacements_cancelled" not in stats
    assert "replacements_warm" not in stats
    assert "warm" not in stats["cells"]["k80/us-west1"]
    assert json.dumps(stats)  # JSON-encodable without special handling


# ---------------------------------------------------------------------------
# Versioned snapshots.
# ---------------------------------------------------------------------------
def test_pool_version_bumps_on_every_observable_transition():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 2}, reclaim_seconds=50.0,
                         warm_seconds=30.0, warm_capacity=1)

    def bumped(action):
        before = pool.version
        action()
        assert pool.version > before, action

    bumped(lambda: pool.acquire("k80", "us-west1"))
    bumped(lambda: pool.acquire("k80", "us-west1"))
    bumped(lambda: pool.release("k80", "us-west1"))
    bumped(lambda: pool.acquire("k80", "us-west1"))
    bumped(lambda: pool.revoke("k80", "us-west1"))
    # The cell is now exhausted (1 in use, 1 reclaimed, 0 free).
    # Queueing a waiter is observable (pending_waiters changes)...
    ticket = pool.request_replacement("k80", "us-west1", lambda warm: None,
                                      queue=True)
    assert ticket.outcome == "queued"
    # ...and so are cancelling it, the reclaim return (which parks the slot
    # warm), and the warm cooldown.
    bumped(ticket.cancel)
    bumped(lambda: sim.run(until=51.0))   # reclaim return -> warm park
    assert pool.warm_count("k80", "us-west1") == 1
    bumped(lambda: sim.run(until=81.0))   # cooldown -> cold capacity
    assert pool.warm_count("k80", "us-west1") == 0
    # Taking the cold slot back (replacement grant) bumps too.
    bumped(lambda: pool.request_replacement("k80", "us-west1",
                                            lambda warm: None))


def test_snapshot_is_cached_per_version_and_frozen():
    pool = TransientPool(Simulator(), {("k80", "us-west1"): 3})
    first = pool.snapshot()
    assert pool.snapshot() is first  # no transition: the same object
    assert first.version == pool.version

    pool.acquire("k80", "us-west1")
    second = pool.snapshot()
    assert second is not first
    assert second.version == pool.version > first.version
    # The old snapshot still describes its own epoch, untouched.
    assert first.available("k80", "us-west1") == 3
    assert second.available("k80", "us-west1") == 2
    with pytest.raises(dataclasses.FrozenInstanceError):
        second.version = 0


def test_snapshot_reads_match_the_live_pool():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 3,
                               ("v100", "europe-west1"): 2},
                         reclaim_seconds=100.0)
    pool.acquire("k80", "us-west1")
    pool.acquire("k80", "us-west1")
    pool.revoke("k80", "us-west1")
    pool.request_replacement("v100", "europe-west1", lambda warm: None)
    snapshot = pool.snapshot()
    assert snapshot.cells() == pool.cells()
    for gpu, region in pool.cells():
        for reader in ("capacity", "available", "warm_count", "acquirable",
                       "in_use", "pending_waiters"):
            assert getattr(snapshot, reader)(gpu, region) == \
                getattr(pool, reader)(gpu, region), (reader, gpu, region)
    # Unknown cells fail identically on both sides.
    with pytest.raises(CapacityError, match="no 'p100' capacity"):
        pool.available("p100", "us-west1")
    with pytest.raises(CapacityError, match="no 'p100' capacity"):
        snapshot.available("p100", "us-west1")


# ---------------------------------------------------------------------------
# Warm pool (Fig. 10 warm path at pool level).
# ---------------------------------------------------------------------------
def test_warm_pool_serves_reclaimed_capacity_warm_then_cools_down():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 2}, reclaim_seconds=100.0,
                         warm_seconds=50.0, warm_capacity=2)
    assert pool.warm_enabled
    pool.acquire("k80", "us-west1")
    pool.acquire("k80", "us-west1")
    pool.revoke("k80", "us-west1")
    # The reclaimed slot returns at t=100 as a *warm* server.
    sim.run(until=101.0)
    assert pool.warm_count("k80", "us-west1") == 1
    assert pool.available("k80", "us-west1") == 0
    assert pool.acquirable("k80", "us-west1") == 1
    # A replacement granted from it is flagged warm.
    grants = []
    ticket = pool.request_replacement("k80", "us-west1",
                                      lambda warm: grants.append(warm))
    assert ticket.outcome == "granted" and ticket.warm
    assert grants == [True]
    assert pool.replacements_warm == 1
    assert pool.warm_reuse_rate == 1.0
    stats = pool.stats()
    assert stats["replacements_warm"] == 1
    assert stats["cells"]["k80/us-west1"]["peak_warm"] == 1

    # A warm server nobody takes cools down into plain cold capacity.
    pool.revoke("k80", "us-west1")
    sim.run(until=202.0)  # reclaim returns at 201 -> warm until 251
    assert pool.warm_count("k80", "us-west1") == 1
    sim.run(until=252.0)
    assert pool.warm_count("k80", "us-west1") == 0
    assert pool.available("k80", "us-west1") == 1
    ticket = pool.request_replacement("k80", "us-west1",
                                      lambda warm: grants.append(warm))
    assert ticket.outcome == "granted" and not ticket.warm
    assert grants == [True, False]


def test_warm_pool_never_returns_a_slot_twice():
    """A warm server taken before its cooldown must not resurrect."""
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 1}, reclaim_seconds=10.0,
                         warm_seconds=1000.0, warm_capacity=1)
    pool.acquire("k80", "us-west1")
    pool.revoke("k80", "us-west1")
    sim.run(until=11.0)
    assert pool.warm_count("k80", "us-west1") == 1
    assert pool.request_replacement("k80", "us-west1",
                                    lambda warm: None).warm
    # Drain the pending cooldown event: capacity must not reappear.
    sim.run()
    state = pool._states[("k80", "us-west1")]
    assert state.in_use == 1 and state.warm == 0 and state.reclaimed == 0
    assert state.available == 0
    assert state.in_use + state.available + state.warm + state.reclaimed \
        == state.capacity


def test_warm_capacity_zero_is_cold_only():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 1}, reclaim_seconds=10.0,
                         warm_seconds=1000.0, warm_capacity=0)
    assert not pool.warm_enabled
    pool.acquire("k80", "us-west1")
    pool.revoke("k80", "us-west1")
    sim.run()
    assert pool.warm_count("k80", "us-west1") == 0
    assert pool.available("k80", "us-west1") == 1
    ticket = pool.request_replacement("k80", "us-west1", lambda warm: None)
    assert ticket.outcome == "granted" and not ticket.warm


def test_warm_capacity_caps_the_warm_set():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 3}, reclaim_seconds=10.0,
                         warm_seconds=1000.0, warm_capacity=1)
    for _ in range(3):
        pool.acquire("k80", "us-west1")
    for _ in range(3):
        pool.revoke("k80", "us-west1")
    sim.run(until=11.0)
    # Only one of the three returning slots may park warm; the others
    # return cold immediately.
    assert pool.warm_count("k80", "us-west1") == 1
    assert pool.available("k80", "us-west1") == 2
    assert pool.acquirable("k80", "us-west1") == 3


# ---------------------------------------------------------------------------
# Queued-request cancellation.
# ---------------------------------------------------------------------------
def test_replacement_ticket_cancel_withdraws_a_queued_request():
    sim = Simulator()
    pool = TransientPool(sim, {("k80", "us-west1"): 1}, reclaim_seconds=50.0)
    pool.acquire("k80", "us-west1")
    pool.revoke("k80", "us-west1")
    grants = []
    dead = pool.request_replacement("k80", "us-west1",
                                    lambda warm: grants.append("dead"),
                                    queue=True)
    live = pool.request_replacement("k80", "us-west1",
                                    lambda warm: grants.append("live"),
                                    queue=True)
    assert dead.outcome == "queued" and live.outcome == "queued"
    assert pool.pending_waiters("k80", "us-west1") == 2
    assert dead.cancel()
    assert dead.cancelled
    assert not dead.cancel()  # idempotent: a second cancel is a no-op
    assert pool.pending_waiters("k80", "us-west1") == 1
    assert pool.replacements_cancelled == 1
    # The returning slot goes straight to the surviving waiter.
    sim.run(until=51.0)
    assert grants == ["live"]
    assert pool.stats()["replacements_cancelled"] == 1
    # Granted/denied tickets have nothing to cancel.
    pool2 = TransientPool(Simulator(), {("k80", "us-west1"): 1})
    granted = pool2.request_replacement("k80", "us-west1", lambda warm: None)
    assert granted.outcome == "granted" and not granted.cancel()
    denied = pool2.request_replacement("k80", "us-west1", lambda warm: None)
    assert denied.outcome == "denied" and not denied.cancel()


def test_fleet_job_cancels_queued_requests_when_it_finishes(catalog):
    """A session that finishes while its replacement is still queued must
    withdraw the request instead of leaving a dead waiter behind."""
    scenario = tiny_scenario(
        name="finish-while-queued",
        jobs=(JobSpec(name="short", model_name="resnet_15", total_steps=600,
                      workers=(("k80", "us-west1"),) * 2,
                      checkpoint_interval_steps=500,
                      queue_replacements=True),),
        pool_capacity={("k80", "us-west1"): 2},
        reclaim_seconds=86_400.0)
    run = FleetRun(scenario, RandomStreams(seed=0), catalog=catalog)
    fleet_job = run.jobs[0]
    run.simulator.run(until=1.0)  # fire the job-start event (t=0) only
    session, controller = fleet_job.session, fleet_job.controller
    worker = next(iter(session.workers.values()))
    assert run.pool.in_use("k80", "us-west1") == 2
    # Revoke one worker with the pool exhausted: the request queues.
    run.pool.revoke("k80", "us-west1")
    session.handle_revocation(worker.worker_id)
    assert controller.replacements_pending == 1
    assert run.pool.pending_waiters("k80", "us-west1") == 1
    # The remaining worker finishes the job; the queued request dies with it.
    run.run()
    assert session.finished
    assert controller.replacements_pending == 0
    assert controller.replacements_cancelled == 1
    assert run.pool.pending_waiters("k80", "us-west1") == 0
    assert run.pool.replacements_cancelled == 1
    # Nothing left in the heap may revive or re-grant anything.
    run.simulator.run()
    assert run.pool.replacements_granted == 0


# ---------------------------------------------------------------------------
# Fleet runs.
# ---------------------------------------------------------------------------
def test_run_fleet_completes_all_jobs(catalog):
    payload = run_fleet(tiny_scenario(), RandomStreams(seed=3), catalog=catalog)
    assert payload["jobs_total"] == 2
    assert payload["jobs_completed"] == 2
    assert payload["jobs_stalled"] == 0
    assert payload["makespan_seconds"] > 0
    assert payload["total_cost_usd"] > 0
    assert payload["epoch_hour_utc"] == pytest.approx(9.0)
    for job in payload["jobs"]:
        assert job["completed"] and job["steps_done"] >= 600
    # Pool bookkeeping balances: everything acquired was returned.
    cell = payload["pool"]["cells"]["k80/us-west1"]
    assert cell["in_use"] == 0 and cell["peak_in_use"] == 4


def test_fleet_scenario_serial_vs_parallel_bit_identity(catalog):
    """The sweeps contract extends to whole fleets: workers=2 == serial."""
    scenario = get_scenario("single_region_k80")
    serial = run_scenario(scenario, replicates=3, seed=11, workers=1,
                          catalog=catalog)
    parallel = run_scenario(scenario, replicates=3, seed=11, workers=2,
                            catalog=catalog)
    assert serial.payloads() == parallel.payloads()
    assert [r.seed for r in serial] == [r.seed for r in parallel]


def test_fleet_fast_forward_matches_chunked_path(catalog, monkeypatch):
    """The PR 2 core contract extends to fleets: both paths, same floats."""
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "1")
    fast = run_fleet(tiny_scenario(), RandomStreams(seed=7), catalog=catalog)
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "0")
    chunked = run_fleet(tiny_scenario(), RandomStreams(seed=7), catalog=catalog)
    assert fast == chunked


def test_fleet_run_forwards_core_path_override(catalog):
    """The fast_forward argument must reach every session, not just the env."""
    chunked_run = FleetRun(tiny_scenario(), RandomStreams(seed=2),
                           catalog=catalog, fast_forward=False)
    assert all(not job.session.fast_forward_enabled for job in chunked_run.jobs)
    chunked = chunked_run.run()
    assert all(job.session.fast_forward_chunks == 0 for job in chunked_run.jobs)
    fast_run = FleetRun(tiny_scenario(), RandomStreams(seed=2),
                        catalog=catalog, fast_forward=True)
    assert all(job.session.fast_forward_enabled for job in fast_run.jobs)
    assert fast_run.run() == chunked


def test_mitigation_parameter_servers_are_billed(catalog):
    """A PS added by bottleneck mitigation accrues cost from its add time."""
    run = FleetRun(get_scenario("multi_region_hetero"), RandomStreams(seed=0),
                   catalog=catalog)
    run.run()
    job = next(fj for fj in run.jobs
               if any(a.kind == "mitigation" for a in fj.controller.actions))
    end = job.end_time(run.simulator.now)
    with_mitigation = run._job_cost(job, end)
    job.controller.actions = [a for a in job.controller.actions
                              if a.kind != "mitigation"]
    assert run._job_cost(job, end) < with_mitigation


def test_fleet_cache_resume(tmp_path, catalog):
    scenario = tiny_scenario()
    cold = run_scenario(scenario, replicates=2, seed=5, cache_dir=tmp_path,
                        catalog=catalog)
    assert cold.cache_misses == 2
    warm = run_scenario(scenario, replicates=2, seed=5, cache_dir=tmp_path,
                        catalog=catalog)
    assert warm.cache_hits == 2 and warm.cache_misses == 0
    assert warm.payloads() == cold.payloads()


def test_capacity_crunch_reports_replacement_denials(catalog):
    """The acceptance scenario: a crunched pool denies replacements."""
    result = run_scenario(get_scenario("capacity_crunch"), replicates=2,
                          seed=0, catalog=catalog)
    payloads = result.payloads()
    assert sum(p["replacements_denied"] for p in payloads) > 0
    assert max(p["replacement_denial_rate"] for p in payloads) > 0.0
    # Denied replacements are never admitted: the pool never grows back.
    for payload in payloads:
        assert payload["replacements_admitted"] == 0
        assert payload["revocations"] == payload["replacements_denied"]
        assert payload["jobs_completed"] + payload["jobs_stalled"] \
            == payload["jobs_total"]


def test_stalled_fleet_stops_at_the_stall_not_the_reclaim_horizon(catalog):
    """A stalled job must not drag makespan/cost to the 24h reclaim events.

    capacity_crunch at seed 1 stalls one job; the fleet clock has to stop
    at the last meaningful moment (~1.4h), not drain pool-reclaim events
    scheduled a day out and bill idle parameter servers the whole time.
    """
    payload = run_fleet(get_scenario("capacity_crunch"),
                        RandomStreams(seed=1), catalog=catalog)
    assert payload["jobs_stalled"] >= 1
    assert payload["makespan_seconds"] < 6 * 3600.0
    ends = [job["end_time_seconds"] for job in payload["jobs"]]
    assert payload["makespan_seconds"] == pytest.approx(max(ends))
    completed_costs = [j["cost_usd"] for j in payload["jobs"] if j["completed"]]
    stalled_costs = [j["cost_usd"] for j in payload["jobs"] if j["stalled"]]
    # A stalled job stops billing at its stall: same order of magnitude as
    # the jobs that ran to completion, not a day of idle parameter servers.
    assert max(stalled_costs) < 2 * max(completed_costs)


def test_pending_count_survives_cross_cell_synchronous_grant(catalog):
    """A grant in one (gpu, region) cell must not eat another cell's
    queued-request count, or the job would be falsely marked stalled."""
    scenario = ScenarioSpec(
        name="mixed", description="two cells, one queued waiter",
        jobs=(JobSpec(name="m", model_name="resnet_15", total_steps=50_000,
                      workers=(("k80", "europe-west1"),
                               ("p100", "europe-west1")),
                      queue_replacements=True),),
        pool_capacity={("k80", "europe-west1"): 1,
                       ("p100", "europe-west1"): 2},
        reclaim_seconds=86_400.0, epoch_hour_utc=9.0)
    run = FleetRun(scenario, RandomStreams(seed=0), catalog=catalog)
    fleet_job = run.jobs[0]
    run.simulator.run(until=100.0)  # fire the job-start event
    session, controller = fleet_job.session, fleet_job.controller
    k80, p100 = list(session.workers.values())[:2]
    # Exhausted k80 cell: the replacement request queues.
    run.pool.revoke("k80", "europe-west1")
    session.handle_revocation(k80.worker_id)
    assert controller.replacements_pending == 1
    # The p100 cell still has a free slot: synchronous grant — which must
    # leave the k80 cell's queued request pending.
    run.pool.revoke("p100", "europe-west1")
    session.handle_revocation(p100.worker_id)
    assert controller.replacements_pending == 1
    assert run.pool.pending_waiters("k80", "europe-west1") == 1
    assert not fleet_job.stalled  # the queued waiter can still revive it


def test_exhausted_pool_queues_and_revives_jobs(catalog):
    """A queued replacement is granted once another job releases capacity."""
    scenario = tiny_scenario(
        name="tight",
        jobs=(
            JobSpec(name="a", model_name="resnet_15", total_steps=400,
                    workers=(("k80", "europe-west1"),) * 2,
                    checkpoint_interval_steps=500),
            JobSpec(name="b", model_name="resnet_15", total_steps=30_000,
                    workers=(("k80", "europe-west1"),) * 2,
                    checkpoint_interval_steps=4000,
                    queue_replacements=True),
        ),
        pool_capacity={("k80", "europe-west1"): 4},
        reclaim_seconds=86_400.0,  # reclaimed capacity never returns
        epoch_hour_utc=8.5,
    )
    # Find a seed where the long job is revoked while the pool is full and
    # later revived by the short job's released slots.
    for seed in range(30):
        payload = run_fleet(scenario, RandomStreams(seed=seed),
                            catalog=catalog)
        pool = payload["pool"]
        if pool["replacements_queued"] > 0 and pool["replacements_granted"] > 0:
            assert payload["jobs"][1]["replacements_admitted"] > 0
            break
    else:
        pytest.fail("no seed exercised the queued-replacement revival path")


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------
def test_fleet_summary_table_golden():
    """Golden rendering of the fleet table from synthetic payloads."""
    spec = build_fleet_spec(tiny_scenario(), replicates=2)
    payloads = [
        {"jobs_completed": 2, "jobs_total": 2, "jobs_stalled": 0,
         "makespan_seconds": 7200.0, "total_cost_usd": 1.25, "revocations": 3,
         "replacements_admitted": 2, "replacements_denied": 1,
         "replacement_denial_rate": 1 / 3, "ps_mitigations": 1},
        {"jobs_completed": 1, "jobs_total": 2, "jobs_stalled": 1,
         "makespan_seconds": 3600.0, "total_cost_usd": 0.5, "revocations": 4,
         "replacements_admitted": 0, "replacements_denied": 4,
         "replacement_denial_rate": 1.0, "ps_mitigations": 0},
    ]
    result = SweepResult(spec=spec, results=[
        CellResult(cell=cell, payload=payload, seed=0, cached=False,
                   duration_seconds=0.0)
        for cell, payload in zip(spec.cells(), payloads)])
    golden = "\n".join([
        "fleet scenario 'tiny'",
        "replicate | jobs done | stalled | makespan (h) | cost (USD) | "
        "revocations | absorbed | denied | denial rate | PS mitigations",
        "----------+-----------+---------+--------------+------------+-"
        "------------+----------+--------+-------------+---------------",
        "0         | 2/2       | 0       | 2.000        | 1.250      | "
        "3           | 2        | 1      | 0.333       | 1             ",
        "1         | 1/2       | 1       | 1.000        | 0.500      | "
        "4           | 0        | 4      | 1.000       | 0             ",
    ])
    assert fleet_summary_table(result) == golden


def test_fleet_hour_histogram_bins_revocation_hours():
    payloads = [{"revocation_hours_local": [0.5, 9.9, 23.99]},
                {"revocation_hours_local": [9.2]}]
    histogram = fleet_hour_histogram(payloads)
    assert histogram.sum() == 4
    assert histogram[0] == 1 and histogram[9] == 2 and histogram[23] == 1


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------
def test_cli_list_run_resume(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "capacity_crunch" in out and "single_region_k80" in out

    json_path = tmp_path / "fleets.json"
    code = main(["run", "single_region_k80", "--workers", "2",
                 "--cache-dir", str(tmp_path / "cache"), "--seed", "2",
                 "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 computed" in out and "fleet scenario" in out
    data = json.loads(json_path.read_text())
    assert data["scenario"] == "single_region_k80"
    assert len(data["fleets"]) == 2

    assert main(["resume", "single_region_k80", "--seed", "2"]) == 2
    code = main(["resume", "single_region_k80", "--seed", "2",
                 "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    assert "2 cached, 0 computed" in capsys.readouterr().out

    assert main(["run", "no-such-scenario"]) == 1
    assert "unknown scenario" in capsys.readouterr().err


def test_cli_warm_and_placement_flags_round_trip(tmp_path, capsys):
    """--warm-seconds / --placement parse, round-trip, and reach the run."""
    parser = build_parser()
    args = parser.parse_args(["run", "warm_reuse", "--warm-seconds", "120.5",
                              "--placement", "adaptive"])
    assert args.warm_seconds == 120.5 and args.placement == "adaptive"
    args = parser.parse_args(["resume", "warm_reuse"])
    assert args.warm_seconds is None and args.placement is None
    with pytest.raises(SystemExit):  # argparse rejects unknown placements
        parser.parse_args(["run", "warm_reuse", "--placement", "bogus"])

    json_path = tmp_path / "fleets.json"
    code = main(["run", "single_region_k80", "--warm-seconds", "900",
                 "--placement", "adaptive", "--seed", "3",
                 "--json", str(json_path)])
    assert code == 0
    capsys.readouterr()
    for payload in json.loads(json_path.read_text())["fleets"]:
        assert payload["placement"] == "adaptive"
        assert "replacements_warm" in payload
        assert "warm" in payload["pool"]["cells"]["k80/us-west1"]

    # --warm-seconds 0 forces cold-only: no warm keys in the payload.
    code = main(["run", "single_region_k80", "--warm-seconds", "0",
                 "--seed", "3", "--json", str(json_path)])
    assert code == 0
    capsys.readouterr()
    for payload in json.loads(json_path.read_text())["fleets"]:
        assert "replacements_warm" not in payload

    # Invalid values surface as the CLI's usual error line, not a crash.
    assert main(["run", "single_region_k80", "--warm-seconds", "-5"]) == 1
    assert "warm_seconds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Warm-reuse fleets (Fig. 10 warm path under contention).
# ---------------------------------------------------------------------------
def test_warm_reuse_scenario_grants_warm_replacements(catalog):
    payload = run_fleet(get_scenario("warm_reuse"), RandomStreams(seed=0),
                        catalog=catalog)
    assert payload["replacements_warm"] >= 1
    assert 0.0 < payload["warm_reuse_rate"] <= 1.0
    assert payload["pool"]["replacements_warm"] == payload["replacements_warm"]
    assert sum(job["replacements_warm"] for job in payload["jobs"]) \
        == payload["replacements_warm"]
    cell = payload["pool"]["cells"]["k80/europe-west1"]
    assert cell["peak_warm"] >= 1
    # Conservation still holds at the end of the run.
    assert cell["in_use"] + cell["reclaimed"] + cell["warm"] <= cell["capacity"]


def test_warm_reuse_overhead_is_cheaper_than_cold(catalog):
    """The warm path a warm grant pays must undercut the cold path."""
    from repro.perf.replacement import ReplacementOverheadModel

    profile = catalog.profile("resnet_15")
    model = ReplacementOverheadModel()
    cold_mean = model.mean_total(profile, cold=True)
    warm = model.sample_warm_reuse(profile, gpu_name="k80")
    assert warm.server_startup > 0.0  # the re-acquire handshake
    assert warm.dataset_download == 0.0  # the shard is already on disk
    assert warm.total < cold_mean / 2


# The scheduler x core-path identity contract for warm and adaptive
# fleets is covered by the golden matrix in tests/test_fleet_scheduler.py,
# whose SCENARIOS tuple includes warm_reuse and adaptive_placement.


# ---------------------------------------------------------------------------
# Adaptive placement.
# ---------------------------------------------------------------------------
def test_adaptive_placement_lowers_denial_rate_on_the_crunch(catalog):
    """The acceptance contract: pool-aware placement beats static pinning
    under the capacity-crunch regime (same jobs, same pool, same seeds)."""
    adaptive = get_scenario("adaptive_placement")
    static = dataclasses.replace(adaptive, placement="static")
    for seed in (0, 1):
        adaptive_payload = run_fleet(adaptive, RandomStreams(seed=seed),
                                     catalog=catalog)
        static_payload = run_fleet(static, RandomStreams(seed=seed),
                                   catalog=catalog)
        assert static_payload["replacement_denial_rate"] > 0.0
        assert adaptive_payload["replacement_denial_rate"] \
            < static_payload["replacement_denial_rate"]
        # Static never touches the spare region; adaptive does.
        spare = static_payload["pool"]["cells"]["k80/us-west1"]
        assert spare["peak_in_use"] == 0
        assert adaptive_payload["pool"]["cells"]["k80/us-west1"]["peak_in_use"] > 0
        assert adaptive_payload["placement"] == "adaptive"
        assert "placements_redirected" in adaptive_payload
        assert "placement" not in static_payload


def test_adaptive_launch_spreads_workers_by_live_availability(catalog):
    """At launch the advisor fills the safer region first, then overflows."""
    run = FleetRun(get_scenario("adaptive_placement"), RandomStreams(seed=0),
                   catalog=catalog)
    placements = [key for job in run.jobs for key in job.spec.workers]
    in_spare = sum(1 for _gpu, region in placements if region == "us-west1")
    # us-west1 scores safer than storm-hour europe-west1, so its 6 slots
    # fill first; the remaining 3 workers overflow to europe-west1.
    assert in_spare == 6
    assert sum(1 for _gpu, region in placements
               if region == "europe-west1") == 3
    assert run.pool.in_use("k80", "us-west1") == 6
    assert run.pool.in_use("k80", "europe-west1") == 3


def test_denied_replacement_redirects_to_feasible_cell(catalog):
    """When the preferred cell is exhausted, the controller redirects the
    replacement to the advisor's next-best feasible cell."""
    scenario = ScenarioSpec(
        name="redirect", description="one job, spare second region",
        jobs=(JobSpec(name="r", model_name="resnet_15", total_steps=50_000,
                      workers=(("k80", "us-west1"),) * 3,
                      queue_replacements=False),),
        pool_capacity={("k80", "us-west1"): 3, ("k80", "europe-west1"): 2},
        reclaim_seconds=86_400.0, epoch_hour_utc=9.0, placement="adaptive")
    run = FleetRun(scenario, RandomStreams(seed=0), catalog=catalog)
    fleet_job = run.jobs[0]
    # The advisor placed all three workers in the safer us-west1 cell.
    assert fleet_job.spec.workers == (("k80", "us-west1"),) * 3
    run.simulator.run(until=1.0)  # fire the job-start event
    session, controller = fleet_job.session, fleet_job.controller
    worker = next(iter(session.workers.values()))
    # Revoke one worker: us-west1 is now exhausted (2 in use + 1 reclaimed)
    # but europe-west1 still has capacity, so the request redirects there.
    run.pool.revoke("k80", "us-west1")
    session.handle_revocation(worker.worker_id)
    assert controller.placements_redirected == 1
    assert controller.replacements_admitted == 1
    assert controller.replacements_denied == 0
    assert run.pool.in_use("k80", "europe-west1") == 1
    replacement = list(session.workers.values())[-1]
    assert replacement.spec.region_name == "europe-west1"
    actions = [a.kind for a in controller.actions]
    assert "replacement-redirected" in actions


# ---------------------------------------------------------------------------
# Multi-axis fleet sweeps and the frontier table.
# ---------------------------------------------------------------------------
def test_apply_fleet_axes_derives_scenarios():
    tiny = tiny_scenario()
    assert apply_fleet_axes(tiny, {"replicate": 0}) is tiny  # no-op

    scaled = apply_fleet_axes(tiny, {"pool_size": 2.0})
    assert scaled.pool_capacity[("k80", "us-west1")] == 10
    # Scaling down floors at the initial demand so the fleet stays
    # launchable (tiny needs 4 workers up front).
    floored = apply_fleet_axes(tiny, {"pool_size": 0.25})
    assert floored.pool_capacity[("k80", "us-west1")] == 4

    queued = apply_fleet_axes(tiny, {"queue_policy": "queue"})
    assert all(job.queue_replacements for job in queued.jobs)
    denied = apply_fleet_axes(queued, {"queue_policy": "deny"})
    assert not any(job.queue_replacements for job in denied.jobs)

    warm = apply_fleet_axes(tiny, {"warm_seconds": 900.0})
    assert warm.warm_seconds == 900.0
    assert warm.warm_capacity == 5  # defaults to the largest cell capacity
    cold = apply_fleet_axes(tiny, {"warm_seconds": 0.0})
    assert cold.warm_capacity == 0 and cold.warm_seconds == 0.0

    moved = apply_fleet_axes(tiny, {"launch_hour": 25.0})
    assert moved.epoch_hour_utc == pytest.approx(1.0)

    adaptive = apply_fleet_axes(tiny, {"placement": "adaptive"})
    assert adaptive.placement == "adaptive"

    with pytest.raises(ConfigurationError):
        apply_fleet_axes(tiny, {"pool_size": 0.0})
    with pytest.raises(ConfigurationError):
        apply_fleet_axes(tiny, {"queue_policy": "maybe"})
    with pytest.raises(ConfigurationError):
        apply_fleet_axes(tiny, {"placement": "bogus"})


def test_build_fleet_spec_axes_and_validation():
    tiny = tiny_scenario()
    classic = build_fleet_spec(tiny, replicates=3)
    assert classic.axis_names == ("replicate",)
    assert len(classic) == 3
    # Replicate-only cells carry exactly the pre-multi-axis parameters.
    assert set(classic.cells()[0].params) == {"replicate", "scenario"}

    grid = build_fleet_spec(tiny, replicates=2, pool_sizes=(1.0, 2.0),
                            queue_policies=("deny", "queue"),
                            warm_seconds=(0.0, 900.0),
                            launch_hours=(4.0,),
                            placements=("static",))
    assert grid.axis_names == ("pool_size", "queue_policy", "warm_seconds",
                               "launch_hour", "placement", "replicate")
    assert len(grid) == 2 * 2 * 2 * 1 * 1 * 2
    with pytest.raises(ConfigurationError):  # bad axis values fail eagerly
        build_fleet_spec(tiny, replicates=2, queue_policies=("maybe",))
    with pytest.raises(ConfigurationError):
        build_fleet_spec(tiny, replicates=2, pool_sizes=(0.0,))


def test_multi_axis_sweep_serial_parallel_and_cache_identity(tmp_path, catalog):
    """The sweeps contracts extend to multi-axis fleet grids: workers=2,
    serial, and warm-cache resume are all bit-identical."""
    tiny = tiny_scenario()
    axes = dict(pool_sizes=(1.0, 2.0), warm_seconds=(0.0, 900.0))
    serial = run_scenario(tiny, replicates=2, seed=11, workers=1,
                          catalog=catalog, cache_dir=tmp_path, **axes)
    assert serial.cache_misses == 8
    parallel = run_scenario(tiny, replicates=2, seed=11, workers=2,
                            catalog=catalog, **axes)
    assert serial.payloads() == parallel.payloads()
    assert [r.seed for r in serial] == [r.seed for r in parallel]
    resumed = run_scenario(tiny, replicates=2, seed=11, workers=1,
                           catalog=catalog, cache_dir=tmp_path, **axes)
    assert resumed.cache_hits == 8 and resumed.cache_misses == 0
    assert resumed.payloads() == serial.payloads()
    # The warm cells actually enabled the warm pool; the cold cells did not.
    by_warm = {}
    for cell_result in serial:
        by_warm.setdefault(cell_result.cell.params["warm_seconds"],
                           []).append(cell_result.payload)
    assert all("replacements_warm" in p for p in by_warm[900.0])
    assert all("replacements_warm" not in p for p in by_warm[0.0])


def test_frontier_table_aggregates_and_flags_pareto_rows():
    tiny = tiny_scenario()
    spec = build_fleet_spec(tiny, replicates=1, pool_sizes=(1.0, 2.0),
                            queue_policies=("deny", "queue"))

    def payload(makespan_h, cost, requests=0, denied=0, granted=0, warm=0):
        return {
            "makespan_seconds": makespan_h * 3600.0, "total_cost_usd": cost,
            "jobs_completed": 2, "jobs_total": 2,
            "replacements_denied": denied, "replacements_warm": warm,
            "pool": {"replacement_requests": requests,
                     "replacements_granted": granted},
        }

    # (pool_size, queue_policy) combos in row-major cell order:
    # (1, deny) dominated by (1, queue); (2, deny) and (2, queue) trade off.
    payloads = [payload(2.0, 1.0, requests=4, denied=2),
                payload(1.0, 1.0, requests=4, granted=4, warm=1),
                payload(0.5, 3.0),
                payload(3.0, 0.5)]
    result = SweepResult(spec=spec, results=[
        CellResult(cell=cell, payload=p, seed=0, cached=False,
                   duration_seconds=0.0)
        for cell, p in zip(spec.cells(), payloads)])
    headers, rows = frontier_rows(result)
    assert headers[:2] == ["pool_size", "queue_policy"]
    assert headers[-1] == "frontier"
    by_combo = {(row[0], row[1]): row for row in rows}
    assert by_combo[(1.0, "deny")][-1] == ""  # dominated
    assert by_combo[(1.0, "queue")][-1] == "*"
    assert by_combo[(2.0, "deny")][-1] == "*"
    assert by_combo[(2.0, "queue")][-1] == "*"
    # Pooled rates: denial 2/4 for (1, deny), warm 1/4 for (1, queue), and
    # exactly 0.0 (not NaN) for the request-free combos.
    assert by_combo[(1.0, "deny")][-3] == pytest.approx(0.5)
    assert by_combo[(1.0, "queue")][-2] == pytest.approx(0.25)
    assert by_combo[(2.0, "deny")][-3] == 0.0
    assert by_combo[(2.0, "deny")][-2] == 0.0
    table = fleet_frontier_table(result)
    assert table.splitlines()[0] == "fleet frontier 'tiny'"
    assert "frontier" in table.splitlines()[1]


def test_frontier_table_on_a_replicate_only_sweep(catalog):
    """With no extra axes the frontier collapses to one aggregate row."""
    result = run_scenario(tiny_scenario(), replicates=2, seed=5,
                          catalog=catalog)
    headers, rows = frontier_rows(result)
    assert headers[0] == "fleets"
    assert len(rows) == 1
    assert rows[0][0] == 2  # both replicates aggregated
    assert rows[0][-1] == "*"  # a single row is trivially on the frontier
    assert "fleet frontier" in fleet_frontier_table(result)
