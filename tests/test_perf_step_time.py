"""Tests for the step-time ground truth (Table I calibration)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.perf.calibration import PAPER_MODEL_GFLOPS, PAPER_TABLE1_SPEEDS
from repro.perf.step_time import StepTimeModel


@pytest.fixture()
def model():
    return StepTimeModel(rng=np.random.default_rng(0))


def test_anchor_speeds_match_table1(model):
    for gpu, rows in PAPER_TABLE1_SPEEDS.items():
        for cnn, (speed, _std) in rows.items():
            gflops = PAPER_MODEL_GFLOPS[cnn]
            assert model.mean_speed(gflops, gpu) == pytest.approx(speed, rel=1e-6)


def test_step_time_monotone_in_model_complexity(model):
    for gpu in ("k80", "p100", "v100"):
        times = [model.mean_step_time(g, gpu) for g in (0.3, 0.8, 1.5, 3.0, 10.0, 25.0)]
        assert times == sorted(times)


def test_faster_gpus_are_faster(model):
    for gflops in (0.6, 1.5, 5.0, 21.0):
        k80 = model.mean_step_time(gflops, "k80")
        p100 = model.mean_step_time(gflops, "p100")
        v100 = model.mean_step_time(gflops, "v100")
        assert k80 > p100 > v100


def test_extrapolation_below_smallest_anchor_is_positive(model):
    assert model.mean_step_time(0.05, "k80") > 0
    assert model.mean_step_time(0.05, "v100") > 0


def test_invalid_gflops_rejected(model):
    with pytest.raises(ConfigurationError):
        model.mean_step_time(0.0, "k80")


def test_computation_ratio(model):
    assert model.computation_ratio(4.11, "k80") == pytest.approx(1.0)
    assert model.computation_ratio(9.53, "p100") == pytest.approx(1.0)


def test_scaling_efficiency_penalizes_saturating_models(model):
    # Shake-Shake Big on P100 exceeds the saturation threshold (Fig. 4).
    big = PAPER_MODEL_GFLOPS["shake_shake_big"]
    assert model.scaling_efficiency(big, "p100") < 0.2
    assert model.scaling_efficiency(big, "v100") > 0.8
    assert model.scaling_efficiency(PAPER_MODEL_GFLOPS["resnet_32"], "p100") > 0.99


def test_sampled_step_times_concentrate_around_mean(model):
    mean = model.mean_step_time(1.54, "k80")
    samples = [model.sample_step_time(1.54, "k80") for _ in range(500)]
    assert np.mean(samples) == pytest.approx(mean, rel=0.02)
    cov = np.std(samples) / np.mean(samples)
    assert cov < 0.03  # The paper observes CoV <= 0.02 for stable training.


def test_warmup_steps_are_slower(model):
    early = np.mean([StepTimeModel(rng=np.random.default_rng(i)).sample_step_time(
        1.54, "k80", step_index=0) for i in range(50)])
    late = np.mean([StepTimeModel(rng=np.random.default_rng(i)).sample_step_time(
        1.54, "k80", step_index=5000) for i in range(50)])
    assert early > late * 1.2


def test_contention_increases_variability(model):
    calm = [model.sample_step_time(1.54, "p100", ps_utilization=0.0) for _ in range(400)]
    contended = [model.sample_step_time(1.54, "p100", ps_utilization=1.0)
                 for _ in range(400)]
    assert np.std(contended) / np.mean(contended) > np.std(calm) / np.mean(calm)


def test_slowdown_scales_mean(model):
    base = model.mean_step_time(1.54, "p100")
    samples = [model.sample_step_time(1.54, "p100", slowdown=2.0) for _ in range(300)]
    assert np.mean(samples) == pytest.approx(2.0 * base, rel=0.05)


def test_negative_step_index_rejected(model):
    with pytest.raises(ConfigurationError):
        model.sample_step_time(1.0, "k80", step_index=-1)


def test_numpy_normal_is_loc_plus_scale_times_standard_normal():
    """Step times are drawn as ``loc + scale * z`` on standard normals,
    while the committed fixtures were drawn with ``Generator.normal(loc,
    scale)``.  The two agree, values and generator state, only while
    numpy's C ``random_normal`` rounds its multiply and add separately."""
    hint = ("numpy's Generator.normal(loc, scale) differs from "
            "loc + scale * standard_normal() on this build (a fused "
            "multiply-add in numpy's C code?): step-time draws, and every "
            "golden fixture drawn from them, assume they are equal")
    pairs = np.random.default_rng(2024)
    loc = pairs.uniform(1e-3, 20.0, 10_000)
    scale = loc * pairs.uniform(0.0, 0.5, loc.size)

    via_normal, via_standard = np.random.default_rng(7), np.random.default_rng(7)
    drawn = via_normal.normal(loc, scale)
    transformed = loc + scale * via_standard.standard_normal(loc.size)
    assert np.array_equal(drawn, transformed), hint
    assert (via_normal.bit_generator.state
            == via_standard.bit_generator.state)

    mismatches = sum(
        via_normal.normal(mean, sigma) != mean + sigma * via_standard.standard_normal()
        for mean, sigma in zip(loc.tolist(), scale.tolist()))
    assert mismatches == 0, hint
    assert (via_normal.bit_generator.state
            == via_standard.bit_generator.state)
