"""Tests for the performance tracker and the performance profiler."""

import pytest

from repro.cmdare.profiler import (
    CheckpointMeasurement,
    PerformanceProfiler,
    SpeedMeasurement,
)
from repro.cmdare.tracker import PerformanceTracker
from repro.errors import DataError
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams
from repro.training.cluster import ClusterSpec
from repro.training.job import measurement_job
from repro.training.session import TrainingSession


def run_with_tracker(profile, steps=1500, window_seconds=20.0):
    session = TrainingSession(Simulator(), ClusterSpec.single("k80"),
                              measurement_job(profile, steps=steps),
                              streams=RandomStreams(1))
    tracker = PerformanceTracker(session, window_seconds=window_seconds)
    session.start()
    samples = []
    while not session.finished:
        if session.simulator.step() is None:
            break
        sample = tracker.poll()
        if sample is not None:
            samples.append(sample)
    return session, tracker, samples


def test_tracker_emits_windowed_samples(resnet15_profile):
    _session, tracker, samples = run_with_tracker(resnet15_profile)
    assert samples
    assert tracker.samples == samples
    # Post-warm-up windows should measure close to the Table I speed.
    assert samples[-1].speed == pytest.approx(9.46, rel=0.15)
    assert tracker.latest_speed() == samples[-1].speed
    assert tracker.average_speed(last_n_windows=2) > 0


def test_tracker_requires_closed_window(resnet15_profile):
    session = TrainingSession(Simulator(), ClusterSpec.single("k80"),
                              measurement_job(resnet15_profile, steps=200),
                              streams=RandomStreams(0))
    tracker = PerformanceTracker(session)
    with pytest.raises(DataError):
        tracker.latest_speed()
    with pytest.raises(DataError):
        tracker.average_speed()


def test_tracker_window_validation(resnet15_profile):
    session = TrainingSession(Simulator(), ClusterSpec.single("k80"),
                              measurement_job(resnet15_profile, steps=200),
                              streams=RandomStreams(0))
    with pytest.raises(DataError):
        PerformanceTracker(session, window_seconds=0.0)


def test_profiler_records_and_filters():
    profiler = PerformanceProfiler()
    profiler.record_speed(SpeedMeasurement("resnet_15", "k80", 0.59, 4.11, 0.105))
    profiler.record_speed(SpeedMeasurement("resnet_15", "p100", 0.59, 9.53, 0.047))
    profiler.record_speed(SpeedMeasurement("resnet_32", "k80", 1.54, 4.11, 0.219))
    assert profiler.gpus() == ["k80", "p100"]
    assert profiler.models() == ["resnet_15", "resnet_32"]
    assert len(profiler.speed_for(gpu_name="k80")) == 2
    assert len(profiler.speed_for(model_name="resnet_15")) == 2
    mean, std = profiler.mean_step_time("resnet_15", "k80")
    assert mean == pytest.approx(0.105)
    assert std == 0.0


def test_profiler_checkpoint_handling():
    profiler = PerformanceProfiler()
    profiler.record_checkpoint(CheckpointMeasurement("resnet_32", 40 * 2 ** 20,
                                                     5 * 2 ** 10, 300 * 2 ** 10, 3.8))
    profiler.record_checkpoint(CheckpointMeasurement("resnet_32", 40 * 2 ** 20,
                                                     5 * 2 ** 10, 300 * 2 ** 10, 3.9))
    mean, std = profiler.mean_checkpoint_time("resnet_32")
    assert mean == pytest.approx(3.85)
    assert std > 0
    with pytest.raises(DataError):
        profiler.mean_checkpoint_time("unknown")


def test_profiler_rejects_invalid_measurements():
    profiler = PerformanceProfiler()
    with pytest.raises(DataError):
        profiler.record_speed(SpeedMeasurement("m", "k80", 1.0, 4.11, 0.0))
    with pytest.raises(DataError):
        profiler.record_checkpoint(CheckpointMeasurement("m", 1, 1, 1, 0.0))


def test_speed_measurement_derived_properties():
    measurement = SpeedMeasurement("resnet_15", "k80", 0.59, 4.11, 0.105)
    assert measurement.speed == pytest.approx(1 / 0.105)
    assert measurement.computation_ratio == pytest.approx(0.59 / 4.11)
