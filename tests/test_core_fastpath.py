"""Golden-trace tests for the vectorized simulation fast-forward path.

The hard contract of the fast path: running a session with
``fast_forward=True`` is **bit-identical** to the chunked event-by-event
path — the same RNG streams are consumed in the same order, every trace
row carries the same floats, and the generators end in the same state.
These tests pin that down across the disturbance scenarios (checkpoints,
revocations, replacements, the legacy chief-IP restart) and across the
sweep runner's serial/parallel execution modes.
"""

import numpy as np
import pytest

from repro.measurement.speed_campaign import run_speed_campaign
from repro.perf.checkpoint_time import CheckpointTimeModel
from repro.perf.step_time import StepTimeModel
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams
from repro.training.cluster import ClusterSpec, WorkerSpec
from repro.training.faults import FaultInjector
from repro.training.job import TrainingJob
from repro.training.session import TrainingSession


def _run_session(profile, fast_forward, cluster=None, steps=2000, interval=500,
                 seed=7, steps_per_event=10, inject=None,
                 shared_generator=False):
    cluster = cluster if cluster is not None else ClusterSpec.single("k80")
    job = TrainingJob(profile=profile, total_steps=steps,
                      checkpoint_interval_steps=interval)
    streams = RandomStreams(seed)
    models = {}
    if shared_generator:
        # Step and checkpoint durations interleave on one stream.
        rng = streams.get("step_time")
        models = dict(step_time_model=StepTimeModel(rng=rng),
                      checkpoint_time_model=CheckpointTimeModel(rng=rng))
    session = TrainingSession(Simulator(), cluster, job, streams=streams,
                              steps_per_event=steps_per_event,
                              fast_forward=fast_forward, **models)
    if inject is not None:
        inject(session)
    trace = session.run_to_completion()
    return session, trace, streams


def _assert_bit_identical(profile, **kwargs):
    chunked_session, chunked, chunked_streams = _run_session(
        profile, fast_forward=False, **kwargs)
    fast_session, fast, fast_streams = _run_session(
        profile, fast_forward=True, **kwargs)
    # Every step-record column, exactly.
    a, b = chunked.step_records, fast.step_records
    assert len(a) == len(b)
    assert a.worker_names == b.worker_names
    assert np.array_equal(a.start_times, b.start_times)
    assert np.array_equal(a.end_times, b.end_times)
    assert np.array_equal(a.step_counts, b.step_counts)
    assert np.array_equal(a.cluster_step_counts, b.cluster_step_counts)
    assert np.array_equal(a.worker_step_counts, b.worker_step_counts)
    # Low-volume record lists and session outcome, exactly.
    assert chunked.checkpoint_records == fast.checkpoint_records
    assert chunked.revocation_records == fast.revocation_records
    assert chunked.replacement_records == fast.replacement_records
    assert chunked.end_time == fast.end_time
    assert chunked_session.ps_group.updates_applied == fast_session.ps_group.updates_applied
    # Identical RNG stream consumption (same draws, same order).
    for name in ("step_time", "checkpoint"):
        assert (chunked_streams.get(name).bit_generator.state
                == fast_streams.get(name).bit_generator.state)
    # The fast path actually fast-forwarded something.
    assert fast_session.fast_forward_chunks > 0
    assert chunked_session.fast_forward_chunks == 0
    return fast_session


def test_single_worker_with_checkpoints_bit_identical(resnet32_profile):
    _assert_bit_identical(resnet32_profile, steps=3000, interval=800)


def test_homogeneous_cluster_block_mode_bit_identical(resnet15_profile):
    session = _assert_bit_identical(
        resnet15_profile, cluster=ClusterSpec.from_counts(k80=8), steps=8000)
    # Nothing else is pending: one window replays the warm-up and then the
    # rest of the workload from vectorized segments.
    assert session.fast_forward_spans == 1


def test_shared_step_and_checkpoint_generator_bit_identical(resnet15_profile):
    """Checkpoint draws interleave with step draws on one generator, so
    step durations must not be drawn ahead of a checkpoint."""
    _assert_bit_identical(
        resnet15_profile, cluster=ClusterSpec.from_counts(k80=4), steps=8000,
        interval=500, shared_generator=True)


def test_heterogeneous_cluster_bit_identical(resnet32_profile):
    _assert_bit_identical(
        resnet32_profile, cluster=ClusterSpec.from_counts(k80=2, p100=2),
        steps=3000)


@pytest.mark.parametrize("steps_per_event", [1, 7, 25])
def test_chunk_sizes_bit_identical(resnet32_profile, steps_per_event):
    _assert_bit_identical(resnet32_profile, steps=1000, interval=300,
                          steps_per_event=steps_per_event)


def test_revocation_and_checkpoint_mid_run_bit_identical(resnet15_profile):
    def inject(session):
        injector = FaultInjector(session)
        injector.revoke_at_step("worker-1", 800)
        injector.replace_at_step(WorkerSpec(gpu_name="k80"), 1500,
                                 overhead_seconds=20.0)

    _assert_bit_identical(resnet15_profile,
                          cluster=ClusterSpec.from_counts(k80=3),
                          steps=4000, interval=1000, inject=inject)


def test_legacy_chief_ip_restart_bit_identical(resnet15_profile):
    """Covers the restart window and the negative session-restart record."""
    def inject(session):
        injector = FaultInjector(session)
        injector.revoke_at_step("worker-0", 1200)
        injector.replace_at_step(WorkerSpec(gpu_name="k80"), 1600,
                                 overhead_seconds=5.0, reuse_chief_ip=True)

    _assert_bit_identical(resnet15_profile,
                          cluster=ClusterSpec.from_counts(k80=2),
                          steps=3000, interval=500, inject=inject)


def test_max_events_truncation_bit_identical(resnet15_profile):
    """run_to_completion(max_events=N) must truncate identically on both
    paths: fast-forwarded chunk completions count like processed events."""
    from repro.errors import TrainingError

    def truncated(fast_forward):
        cluster = ClusterSpec.from_counts(k80=2)
        job = TrainingJob(profile=resnet15_profile, total_steps=100_000,
                          checkpoint_interval_steps=2_000)
        streams = RandomStreams(5)
        session = TrainingSession(Simulator(), cluster, job, streams=streams,
                                  fast_forward=fast_forward)
        with pytest.raises(TrainingError):
            session.run_to_completion(max_events=137)
        return session, streams

    chunked_session, chunked_streams = truncated(False)
    fast_session, fast_streams = truncated(True)
    assert chunked_session.cluster_steps == fast_session.cluster_steps
    assert chunked_session.trace.step_records == fast_session.trace.step_records
    assert (chunked_streams.get("step_time").bit_generator.state
            == fast_streams.get("step_time").bit_generator.state)
    assert fast_session.fast_forward_chunks > 0


def test_fast_forward_env_switch(resnet32_profile, monkeypatch):
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "0")
    session, _, _ = _run_session(resnet32_profile, fast_forward=None, steps=400)
    assert not session.fast_forward_enabled
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "1")
    session, _, _ = _run_session(resnet32_profile, fast_forward=None, steps=400)
    assert session.fast_forward_enabled
    assert session.fast_forward_chunks > 0


def test_derived_statistics_identical(resnet32_profile):
    _, chunked, _ = _run_session(resnet32_profile, fast_forward=False, steps=3000)
    _, fast, _ = _run_session(resnet32_profile, fast_forward=True, steps=3000)
    assert chunked.cluster_speed() == fast.cluster_speed()
    assert chunked.speed_series() == fast.speed_series()
    assert chunked.summary() == fast.summary()
    for worker_id in chunked.worker_ids():
        assert np.array_equal(chunked.worker_step_times(worker_id),
                              fast.worker_step_times(worker_id))


# ---------------------------------------------------------------------------
# StepTimeModel.sample_steps: the vector draw underpinning the fast path.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("start,count,utilization,slowdown", [
    (0, 250, 0.0, 1.0),      # spans the whole warm-up transient
    (37, 80, 0.3, 1.7),      # starts mid-warm-up, contended, slowed
    (95, 5, 0.0, 2.5),       # entirely inside the warm-up tail
    (100, 400, 1.2, 1.0),    # post-warm-up constant-mean block
    (10_000, 1, 0.0, 1.0),   # single-draw degenerate case
])
def test_sample_steps_bit_identical_to_scalar_draws(start, count, utilization,
                                                    slowdown):
    scalar_model = StepTimeModel(rng=np.random.default_rng(99))
    vector_model = StepTimeModel(rng=np.random.default_rng(99))
    scalar = np.array([
        scalar_model.sample_step_time(1.54, "k80", step_index=start + i,
                                      ps_utilization=utilization,
                                      slowdown=slowdown)
        for i in range(count)])
    vector = vector_model.sample_steps(1.54, "k80", count, start_step_index=start,
                                       ps_utilization=utilization,
                                       slowdown=slowdown)
    assert np.array_equal(scalar, vector)
    assert (scalar_model._rng.bit_generator.state
            == vector_model._rng.bit_generator.state)


def test_sample_steps_validation():
    from repro.errors import ConfigurationError

    model = StepTimeModel()
    assert model.sample_steps(1.0, "k80", 0).shape == (0,)
    with pytest.raises(ConfigurationError):
        model.sample_steps(1.0, "k80", -1)
    with pytest.raises(ConfigurationError):
        model.sample_steps(1.0, "k80", 5, start_step_index=-1)


# ---------------------------------------------------------------------------
# Serial == parallel == vectorized across the sweep runner.
# ---------------------------------------------------------------------------
def test_campaign_serial_parallel_and_chunked_identical(catalog, monkeypatch):
    """The PR-1 contract (serial == 2-worker parallel) now also covers the
    fast path: chunked serial, vectorized serial, and vectorized parallel
    campaigns all produce identical payloads."""
    kwargs = dict(model_names=("resnet_15",), gpu_names=("k80",), steps=600,
                  seed=11, catalog=catalog)
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "0")
    chunked = run_speed_campaign(**kwargs)
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "1")
    serial = run_speed_campaign(**kwargs)
    parallel = run_speed_campaign(workers=2, **kwargs)
    assert chunked.cells == serial.cells == parallel.cells
    assert chunked.speed_series == serial.speed_series == parallel.speed_series
    assert ([m.step_time for m in chunked.measurements()]
            == [m.step_time for m in serial.measurements()]
            == [m.step_time for m in parallel.measurements()])
