"""Deterministic chaos injection and the recovery contracts it pins.

The harness (:mod:`repro.chaos`) is only as good as the oracles it
drives, and the repo's oracles are bit-identity fixtures: a fleet run
that loses shard processes mid-run must still produce the byte-exact
golden payload, a sweep whose workers are killed must aggregate the
byte-exact clean payloads, and a telemetry export killed mid-write must
leave the artifact path untouched.  Every test here injects faults
through ``REPRO_CHAOS`` and asserts *exact* recovery, not approximate
health.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro import chaos, config
from repro.chaos import ChaosMonitor, Fault, FaultPlan
from repro.errors import ConfigurationError, DataError
from repro.scenarios import get_scenario, run_fleet
from repro.scenarios.shard import ShardedFleetRun
from repro.simulation.rng import RandomStreams
from repro.sweeps import SweepExecutionError, SweepRunner, SweepSpec
from repro.telemetry.writer import TelemetryConfig, TelemetrySpool, write_npz

from test_shard import four_region_storm, normalized

DATA = pathlib.Path(__file__).parent / "data"
FIXTURE = DATA / "fleet_golden_multi_region_hetero_seed5.json"


# ---------------------------------------------------------------------------
# FaultPlan: spec grammar, matching, monitors.
# ---------------------------------------------------------------------------
def test_spec_round_trips():
    spec = ("shard_crash:shard=0,at=2;drop_grant:shard=1;"
            "serve_hang:at=3,seconds=1.5;sweep_kill:cell=4,incarnation=1;"
            "seed=9")
    plan = FaultPlan.from_spec(spec)
    assert plan.seed == 9
    assert len(plan.faults) == 4
    assert FaultPlan.from_spec(plan.to_spec()).to_spec() == plan.to_spec()
    first = plan.faults[0]
    assert (first.kind, first.shard, first.at) == ("shard_crash", 0, 2)
    assert plan.faults[2].seconds == 1.5
    # Floats are written with repr, so no digit is lost on the way back.
    long_hang = FaultPlan.from_spec("serve_hang:seconds=1234567.5")
    assert long_hang.to_spec() == "serve_hang:seconds=1234567.5"
    assert FaultPlan.from_spec(long_hang.to_spec()).faults[0].seconds == \
        1234567.5


@pytest.mark.parametrize("bad", [
    "", "seed=5", "unknown_kind:at=1", "shard_crash:at=0",
    "shard_crash:shard=-1", "shard_crash:at", "shard_crash:nope=1",
    "shard_crash:at=soon", "seed=pi;shard_crash",
    "serve_hang:seconds=nan", "serve_hang:seconds=-5", "serve_hang:seconds=0",
    "shard_crash:at=2.0", "shard_crash:kind=drop_grant", "SHARD_CRASH",
])
def test_malformed_specs_are_configuration_errors(bad):
    with pytest.raises(ConfigurationError):
        FaultPlan.from_spec(bad)


def test_spec_parameters_are_read_with_the_fault_field_kinds():
    with pytest.raises(ConfigurationError,
                       match=r"fault parameter 'at' in 'shard_crash:at=soon' "
                             r"must be an integer >= 1, got 'soon'"):
        FaultPlan.from_spec("shard_crash:at=soon")
    with pytest.raises(ConfigurationError,
                       match="chaos seed must be an integer, got 'pi'"):
        FaultPlan.from_spec("seed=pi;shard_crash")
    plan = FaultPlan.from_spec("serve_hang: at = +3 , seconds = 1e3 ;seed=-2")
    assert plan.faults == (Fault("serve_hang", at=3, seconds=1000.0),)
    assert plan.seed == -2


def test_fault_matching_semantics():
    targeted = Fault("shard_crash", shard=1, incarnation=1)
    assert targeted.matches(shard=1, incarnation=1)
    assert not targeted.matches(shard=0, incarnation=1)
    assert not targeted.matches(shard=1, incarnation=0)
    untargeted = Fault("shard_crash")
    assert untargeted.matches(shard=0) and untargeted.matches(shard=7)
    assert not untargeted.matches(shard=0, incarnation=2)


def test_monitor_fires_each_fault_exactly_once():
    plan = FaultPlan.from_spec("shard_crash:shard=0,at=2;shard_crash:shard=0,at=4")
    monitor = plan.monitor("shard_crash", shard=0)
    fired = [monitor.tick() for _ in range(6)]
    assert [fault.at if fault else None for fault in fired] == \
        [None, 2, None, 4, None, None]
    assert not monitor
    assert not ChaosMonitor(()), "an empty monitor is falsy (fast path)"


def test_active_plan_reads_and_caches_the_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    assert chaos.active_plan() is None
    monkeypatch.setenv("REPRO_CHAOS", "shard_crash:shard=0;seed=3")
    plan = chaos.active_plan()
    assert plan.seed == 3
    assert chaos.active_plan() is plan, "parsed plans are cached by spec"


def test_worker_incarnation_env(monkeypatch):
    monkeypatch.delenv("REPRO_CHAOS_INCARNATION", raising=False)
    assert chaos.worker_incarnation() == 0
    monkeypatch.setenv("REPRO_CHAOS_INCARNATION", "2")
    assert chaos.worker_incarnation() == 2
    monkeypatch.setenv("REPRO_CHAOS_INCARNATION", "garbage")
    assert chaos.worker_incarnation() == 0


def test_log_event_appends_json_lines(tmp_path, monkeypatch):
    log = tmp_path / "chaos.jsonl"
    monkeypatch.setenv("REPRO_CHAOS_LOG", str(log))
    chaos.log_event("unit_test", detail=7)
    chaos.log_event("unit_test_two")
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert [r["event"] for r in records] == ["unit_test", "unit_test_two"]
    assert records[0]["detail"] == 7 and records[0]["pid"] == os.getpid()
    monkeypatch.delenv("REPRO_CHAOS_LOG")
    chaos.log_event("not_written")  # silently skipped without the env


# ---------------------------------------------------------------------------
# Shard supervision: restart-replay bit-identity (the tentpole oracle).
# ---------------------------------------------------------------------------
def test_two_injected_shard_crashes_reproduce_the_golden_payload(
        catalog, monkeypatch, tmp_path):
    """Kill BOTH shard processes of the 2-shard golden run mid-stream; the
    supervisor restart-replays each one and the merged payload is
    byte-identical to the crash-free single-process golden fixture."""
    log = tmp_path / "chaos.jsonl"
    monkeypatch.setenv("REPRO_CHAOS",
                       "shard_crash:shard=0,at=2;shard_crash:shard=1,at=1")
    monkeypatch.setenv("REPRO_CHAOS_LOG", str(log))
    scenario = get_scenario("multi_region_hetero")
    run = ShardedFleetRun(scenario, RandomStreams(seed=5), catalog=catalog,
                          shards=2)
    payload = run.run()
    assert normalized(payload) == json.loads(FIXTURE.read_text())
    assert len(run.restarts) == 2
    assert sorted(record["shard"] for record in run.restarts) == [0, 1]
    assert all(record["exitcode"] == 37 for record in run.restarts), \
        "chaos kills die with the distinctive exit code"
    events = [json.loads(line)["event"] for line in log.read_text().splitlines()]
    assert events.count("injected_shard_crash") == 2
    assert events.count("shard_restart") == 2


def test_late_crash_replays_the_grant_log_mid_stream(catalog, monkeypatch):
    """A shard killed at its *third* draw request has two grants in its
    log: the respawn replays both before drawing live, and the storm
    payload matches the single-process run exactly."""
    monkeypatch.setenv("REPRO_CHAOS", "shard_crash:shard=0,at=3")
    scenario = four_region_storm()
    single = run_fleet(scenario, RandomStreams(seed=3), catalog=catalog)
    run = ShardedFleetRun(scenario, RandomStreams(seed=3), catalog=catalog,
                          shards=2)
    payload = run.run()
    assert normalized(payload) == normalized(single)
    assert len(run.restarts) == 1
    assert run.restarts[0]["grants_logged"] >= 2


def test_dropped_grant_wedges_then_heartbeat_restart_recovers(
        catalog, monkeypatch):
    """The parent consumes the revocation stream for a grant but never
    sends the reply; the shard wedges silently, the heartbeat supervisor
    terminates and restarts it, and the replay re-delivers the very grant
    that was dropped — payload identical to the clean run."""
    monkeypatch.setenv("REPRO_CHAOS", "drop_grant:shard=0,at=1")
    scenario = four_region_storm()
    single = run_fleet(scenario, RandomStreams(seed=3), catalog=catalog)
    run = ShardedFleetRun(scenario, RandomStreams(seed=3), catalog=catalog,
                          shards=2, heartbeat_seconds=0.5)
    payload = run.run()
    assert normalized(payload) == normalized(single)
    assert len(run.restarts) == 1
    assert "heartbeat deadline" in run.restarts[0]["reason"]
    assert run.restarts[0]["grants_logged"] >= 1


def test_chaos_cli_flag_is_scoped_and_validates(tmp_path, monkeypatch):
    from repro.scenarios.cli import main

    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clean_out = tmp_path / "clean.json"
    chaos_out = tmp_path / "chaos.json"
    assert main(["run", "multi_region_hetero", "--replicates", "1",
                 "--seed", "5", "--shards", "1",
                 "--json", str(clean_out)]) == 0
    assert main(["run", "multi_region_hetero", "--replicates", "1",
                 "--seed", "5", "--shards", "2",
                 "--chaos", "shard_crash:shard=1,at=1",
                 "--json", str(chaos_out)]) == 0
    assert "REPRO_CHAOS" not in os.environ, "--chaos must not leak"
    assert json.loads(chaos_out.read_text())["fleets"] == \
        json.loads(clean_out.read_text())["fleets"]
    assert main(["run", "multi_region_hetero", "--chaos", "bogus"]) == 1


# ---------------------------------------------------------------------------
# Sweep-cell retry under worker kills.
# ---------------------------------------------------------------------------
def _chaos_probe_cell(cell, streams, context):
    """Cheap deterministic cell (module-level so the pool can pickle it)."""
    return {"value": cell.params["x"] * 2,
            "noise": float(streams.get("noise").normal())}


def test_killed_sweep_workers_retry_to_identical_payloads(monkeypatch):
    spec = SweepSpec("chaos_probe", axes={"x": [1, 2, 3, 4]})
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    clean = SweepRunner(workers=2, seed=5).run(spec, _chaos_probe_cell)
    monkeypatch.setenv("REPRO_CHAOS", "sweep_kill:cell=1;sweep_kill:cell=3")
    retried = SweepRunner(workers=2, seed=5).run(spec, _chaos_probe_cell)
    assert [r.payload for r in retried.results] == \
        [r.payload for r in clean.results]
    assert "REPRO_CHAOS_INCARNATION" not in os.environ


def test_sweep_retry_budget_exhaustion_names_a_cell(monkeypatch):
    spec = SweepSpec("chaos_probe", axes={"x": [1, 2]})
    monkeypatch.setenv("REPRO_CHAOS", ";".join(
        f"sweep_kill:cell=0,incarnation={i}" for i in range(4)))
    runner = SweepRunner(workers=2, seed=5, max_retries=1)
    with pytest.raises(SweepExecutionError, match="cell #0"):
        runner.run(spec, _chaos_probe_cell)


def test_sweep_retry_env_knob_and_validation(monkeypatch):
    monkeypatch.setenv("REPRO_SWEEP_RETRIES", "5")
    assert config.SWEEP_RETRIES.get() == 5
    assert SweepRunner(workers=2).max_retries == 5
    monkeypatch.setenv("REPRO_SWEEP_RETRIES", "-2")
    with pytest.raises(ConfigurationError, match="REPRO_SWEEP_RETRIES"):
        SweepRunner(workers=2)
    monkeypatch.setenv("REPRO_SWEEP_RETRIES", "many")
    with pytest.raises(ConfigurationError):
        config.SWEEP_RETRIES.get()
    monkeypatch.delenv("REPRO_SWEEP_RETRIES")
    with pytest.raises(ConfigurationError):
        SweepRunner(workers=2, max_retries=-1)


# ---------------------------------------------------------------------------
# Atomic telemetry export.
# ---------------------------------------------------------------------------
def _fill_spool(spool_dir):
    os.makedirs(spool_dir, exist_ok=True)
    with TelemetrySpool(TelemetryConfig(spool_dir=str(spool_dir),
                                        chunk_rows=2)) as spool:
        job = spool.job(0, "job-a", "resnet_15", 0.589)
        job.register_worker("worker-0", "k80", "us-east1")
        sink = job.step_sink()
        for index in range(6):
            sink.append_row("worker-0", float(index), index + 0.5,
                            10, 10 * (index + 1), 10 * (index + 1))


def test_truncated_export_never_touches_the_artifact_path(
        tmp_path, monkeypatch):
    spool_dir = tmp_path / "spool"
    out_path = tmp_path / "telemetry.npz"
    _fill_spool(spool_dir)
    # Seed a previous good artifact, then fail the re-export mid-pack.
    write_npz(str(spool_dir), str(out_path), {"scenario": "unit"})
    good_bytes = out_path.read_bytes()
    monkeypatch.setenv("REPRO_CHAOS", "npz_truncate:at=2")
    with pytest.raises(DataError, match="truncated"):
        write_npz(str(spool_dir), str(out_path), {"scenario": "unit"})
    assert out_path.read_bytes() == good_bytes, \
        "a failed export must leave the previous artifact intact"
    assert not list(tmp_path.glob("*.tmp")), "tmp siblings are cleaned up"
    monkeypatch.delenv("REPRO_CHAOS")
    write_npz(str(spool_dir), str(out_path), {"scenario": "unit"})
    assert out_path.read_bytes() == good_bytes, "exports are deterministic"


def test_export_killed_mid_write_leaves_no_truncated_npz(tmp_path):
    """Hard-kill (os._exit inside the zip loop) a real export subprocess;
    the artifact path must not exist afterwards — the crash died inside
    the .tmp sibling."""
    spool_dir = tmp_path / "spool"
    out_path = tmp_path / "telemetry.npz"
    _fill_spool(spool_dir)
    script = f"""
import os, sys
sys.path.insert(0, {repr(str(pathlib.Path(__file__).parent))})
from repro.telemetry import writer

original = writer._add_member
members = []

def dying_add_member(archive, arcname, payload):
    original(archive, arcname, payload)
    members.append(arcname)
    if len(members) == 2:
        os._exit(9)  # SIGKILL-grade death mid-archive

writer._add_member = dying_add_member
writer.write_npz({repr(str(spool_dir))}, {repr(str(out_path))}, {{}})
"""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(sys.path[:1] + [
                   str(pathlib.Path(__file__).parents[1] / "src")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, timeout=120)
    assert result.returncode == 9, result.stderr.decode()
    assert not out_path.exists(), \
        "a killed export must never leave bytes at the artifact path"
    # The interrupted .tmp sibling (if any) is ignorable debris, never
    # the artifact; a later clean export fully replaces it.
    write_npz(str(spool_dir), str(out_path), {})
    from repro.telemetry.reader import TelemetryReader
    with TelemetryReader(str(out_path)) as reader:
        assert reader.ranks == [0]
