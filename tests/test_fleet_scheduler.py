"""Golden-payload and stress tests for the fleet wake-set scheduler.

The wake-set scheduler must reproduce the payloads of the round-robin loop
it replaced (a test-only oracle in ``tests/oracles.py``) bit for bit,
across every named scenario, both simulation core paths, and any sweep
worker count; a 100-job fleet must respect the ``MAX_EVENTS_PER_JOB``
guard and leave a drainable heap behind.
"""

import pytest

from oracles import use_reference
from repro.errors import ConfigurationError, SimulationError
from repro.scenarios import get_scenario, run_fleet, run_scenario
from repro.scenarios import fleet as fleet_module
from repro.scenarios.fleet import FleetRun
from repro.scenarios.spec import JobSpec, ScenarioSpec
from repro.simulation.rng import RandomStreams

SCENARIOS = ("single_region_k80", "multi_region_hetero", "revocation_storm",
             "capacity_crunch", "warm_reuse", "adaptive_placement")


def scaled_storm(jobs, total_steps=1500):
    """revocation_storm scaled to ``jobs`` jobs (small steps for tests)."""
    specs = tuple(
        JobSpec(name=f"storm-{index}", model_name="resnet_15",
                total_steps=total_steps,
                workers=(("k80", "europe-west1"),) * 3,
                checkpoint_interval_steps=4000, queue_replacements=True)
        for index in range(jobs))
    return ScenarioSpec(name=f"storm_x{jobs}",
                        description=f"storm scaled to {jobs} jobs",
                        jobs=specs,
                        pool_capacity={("k80", "europe-west1"): 4 * jobs},
                        reclaim_seconds=1200.0, epoch_hour_utc=8.5)


# ---------------------------------------------------------------------------
# Golden payload matrix: scheduler x core path (x trace level).
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_payloads_across_scheduler_and_core_path(name, catalog,
                                                        monkeypatch):
    scenario = get_scenario(name)

    def fleet(**kwargs):
        return run_fleet(scenario, RandomStreams(seed=5), catalog=catalog,
                         **kwargs)

    reference = fleet()
    assert fleet(fast_forward=False) == reference
    assert fleet(trace_level="summary") == reference
    use_reference(monkeypatch, scheduler="roundrobin")
    assert fleet() == reference
    assert fleet(fast_forward=False) == reference


# ---------------------------------------------------------------------------
# Golden payload matrix: scheduler x sweep worker count.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name", SCENARIOS)
def test_golden_payloads_across_sweep_workers(name, catalog, monkeypatch):
    scenario = get_scenario(name)
    serial = run_scenario(scenario, replicates=2, seed=9, workers=1,
                          catalog=catalog)
    # Pool workers fork from this process, so they run the round-robin loop.
    use_reference(monkeypatch, scheduler="roundrobin")
    parallel = run_scenario(scenario, replicates=2, seed=9, workers=4,
                            catalog=catalog)
    assert parallel.payloads() == serial.payloads()


# ---------------------------------------------------------------------------
# 100-job stress: guard trips, heap drains.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("scheduler", ("wakeset", "roundrobin"))
def test_max_events_guard_trips(scheduler, catalog, monkeypatch):
    monkeypatch.setattr(fleet_module, "MAX_EVENTS_PER_JOB", 3)
    use_reference(monkeypatch, scheduler=scheduler)
    run = FleetRun(scaled_storm(4, total_steps=2000), RandomStreams(seed=0),
                   catalog=catalog)
    with pytest.raises(SimulationError, match="exceeded"):
        run.run()


def test_100_job_fleet_completes_and_heap_drains(catalog):
    run = FleetRun(scaled_storm(100, total_steps=1200), RandomStreams(seed=0),
                   catalog=catalog)
    payload = run.run()
    assert payload["jobs_total"] == 100
    assert payload["jobs_completed"] + payload["jobs_stalled"] == 100
    assert run.events_processed > 0
    snapshot = [(job["completed"], job["stalled"], job["steps_done"])
                for job in payload["jobs"]]
    # Events left behind at the stop point (stale revocation draws, pool
    # reclaim returns, 24h horizons) must all be inert: draining the heap
    # terminates, empties it completely, and revives nothing.
    run.simulator.run()
    assert run.simulator.pending_events() == 0
    after = run._payload()
    assert [(job["completed"], job["stalled"], job["steps_done"])
            for job in after["jobs"]] == snapshot


def test_trace_level_summary_bounds_fleet_trace_memory(catalog):
    full = FleetRun(scaled_storm(4, total_steps=1500), RandomStreams(seed=2),
                    catalog=catalog, trace_level="full")
    payload_full = full.run()
    summary = FleetRun(scaled_storm(4, total_steps=1500), RandomStreams(seed=2),
                       catalog=catalog, trace_level="summary")
    payload_summary = summary.run()
    assert payload_summary == payload_full
    full_bytes = sum(job.session.trace.step_records.nbytes
                     for job in full.jobs)
    summary_bytes = sum(job.session.trace.step_records.nbytes
                        for job in summary.jobs)
    assert summary_bytes < full_bytes / 10
    # Aggregates survive even though the rows were dropped.
    for job in summary.jobs:
        records = job.session.trace.step_records
        assert len(records) > 0
        assert records.steps_total >= job.spec.total_steps
    with pytest.raises(ConfigurationError):
        FleetRun(scaled_storm(2, total_steps=400), RandomStreams(seed=0),
                 catalog=catalog, trace_level="no-such-level")
