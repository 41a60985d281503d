"""Tests for the extension features: launch advisor and mitigation planner."""

import pytest

from repro.cloud.revocation import RevocationModel
from repro.cmdare.mitigation import MitigationPlanner
from repro.errors import ConfigurationError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.perf.step_time import StepTimeModel
from repro.simulation.engine import Simulator
from repro.simulation.rng import RandomStreams
from repro.training.cluster import ClusterSpec
from repro.training.job import measurement_job
from repro.training.session import TrainingSession


# ---------------------------------------------------------------------------
# Launch advisor (grid-mode queries).
# ---------------------------------------------------------------------------
def grid_query(**overrides):
    params = dict(gpu_name="k80", duration_hours=6.0,
                  region_names=("us-west1", "europe-west1"), launch_hours=(8,))
    params.update(overrides)
    return PlacementQuery(**params)


def test_advisor_prefers_low_revocation_regions():
    advisor = LaunchAdvisor(samples_per_option=200, seed=1)
    options = advisor.answer(grid_query()).options
    assert options[0].region_name == "us-west1"
    assert options[0].revocation_probability < options[-1].revocation_probability


def test_advisor_grid_decision_covers_the_calibrated_regions():
    advisor = LaunchAdvisor(samples_per_option=150, seed=2)
    decision = advisor.answer(grid_query(gpu_name="v100", duration_hours=8.0,
                                         region_names=None, launch_hours=(0, 12)))
    # Poolless queries are always feasible, so best == options[0], and the
    # options are sorted safest first.
    assert decision.best == decision.options[0]
    scores = [option.score for option in decision.options]
    assert scores == sorted(scores)
    # Every option concerns a region that actually offers V100s.
    assert all(option.region_name in ("us-central1", "us-west1", "europe-west4",
                                      "asia-east1") for option in decision.options)


def test_advisor_expected_revocations_scale_with_workers():
    advisor = LaunchAdvisor(samples_per_option=150, seed=3)
    query = grid_query(region_names=("us-east1",), duration_hours=12.0)
    single = advisor.answer(query).options[0]
    quad = advisor.answer(grid_query(region_names=("us-east1",),
                                     duration_hours=12.0,
                                     num_workers=4)).options[0]
    assert quad.expected_revocations == pytest.approx(4 * single.expected_revocations)


def test_advisor_longer_runs_are_riskier():
    advisor = LaunchAdvisor(samples_per_option=400, seed=4)
    short = advisor.answer(grid_query(gpu_name="p100", region_names=("us-central1",),
                                      launch_hours=(10,), duration_hours=2.0))
    long = advisor.answer(grid_query(gpu_name="p100", region_names=("us-central1",),
                                     launch_hours=(10,), duration_hours=20.0))
    assert (long.options[0].revocation_probability
            > short.options[0].revocation_probability)


def test_advisor_accepts_custom_model_and_validates():
    advisor = LaunchAdvisor(revocation_model=RevocationModel(), samples_per_option=50)
    option = advisor.answer(grid_query(region_names=("us-central1",),
                                       launch_hours=(0,),
                                       duration_hours=4.0)).options[0]
    assert 0.0 <= option.revocation_probability <= 1.0
    with pytest.raises(ConfigurationError):
        LaunchAdvisor(samples_per_option=1)
    with pytest.raises(ConfigurationError):
        grid_query(duration_hours=0.0)
    with pytest.raises(ConfigurationError):
        grid_query(num_workers=0)


# ---------------------------------------------------------------------------
# Pool-aware placement.
# ---------------------------------------------------------------------------
def place_pool(capacity):
    """A live TransientPool the live-query mode can score against."""
    from repro.scenarios.pool import TransientPool

    return TransientPool(Simulator(), capacity, reclaim_seconds=600.0)


def live_query(**overrides):
    params = dict(gpu_name="k80", duration_hours=2.0, hour_of_day_utc=9.0)
    params.update(overrides)
    return PlacementQuery(**params)


def test_place_ranks_feasible_options_first():
    pool = place_pool({("k80", "us-west1"): 2, ("k80", "europe-west1"): 2})
    pool.acquire("k80", "us-west1")
    pool.acquire("k80", "us-west1")  # us-west1 exhausted
    advisor = LaunchAdvisor(samples_per_option=100, seed=7)
    decision = advisor.answer(live_query(), pool=pool.snapshot())
    options = decision.options
    assert [option.region_name for option in options if option.feasible] \
        == ["europe-west1"]
    assert options[0].feasible and options[0].region_name == "europe-west1"
    assert not options[-1].feasible and options[-1].region_name == "us-west1"
    assert decision.best.region_name == "europe-west1"
    assert decision.pool_version == pool.version


def test_place_prefers_the_safer_region_when_both_are_free():
    pool = place_pool({("k80", "us-west1"): 2, ("k80", "europe-west1"): 2})
    advisor = LaunchAdvisor(samples_per_option=400, seed=7)
    # us-west1 is the study's most stable K80 region, europe-west1 the
    # storm region (Fig. 8): with equal availability the calibrated score
    # must prefer us-west1 at any hour.
    decision = advisor.answer(live_query(), pool=pool.snapshot())
    assert decision.best.region_name == "us-west1"
    assert decision.best.revocation_probability < max(
        option.revocation_probability for option in decision.options)


def test_place_penalizes_queue_pressure():
    # Waiters can only exist on an exhausted cell (the pool grants while
    # anything is acquirable), so queue pressure orders the infeasible
    # tail: between two exhausted cells, the one with the deeper waiter
    # queue must rank later once the pressure penalty outweighs the
    # revocation-score gap.
    pool = place_pool({("k80", "us-west1"): 2, ("k80", "europe-west1"): 2})
    for region in ("us-west1", "europe-west1"):
        pool.acquire("k80", region)
        pool.acquire("k80", region)
    for index in range(2):
        pool.request_replacement("k80", "us-west1", lambda warm: None,
                                 queue=True, label=f"w{index}")
    advisor = LaunchAdvisor(samples_per_option=400, seed=7)
    snapshot = pool.snapshot()
    unpressured = advisor.answer(live_query(queue_weight=0.0),
                                 pool=snapshot).options
    assert [option.region_name for option in unpressured] \
        == ["us-west1", "europe-west1"]  # safest first, no penalty
    assert all(not option.feasible for option in unpressured)
    assert unpressured[0].queue_depth == 2
    pressured = advisor.answer(live_query(queue_weight=10.0),
                               pool=snapshot).options
    assert [option.region_name for option in pressured] \
        == ["europe-west1", "us-west1"]
    assert advisor.answer(live_query(), pool=snapshot).best is None
    with pytest.raises(ConfigurationError):
        live_query(queue_weight=-1.0)


def test_place_is_deterministic_and_score_order_independent():
    pool = place_pool({("k80", "us-west1"): 2, ("k80", "europe-west1"): 2})
    advisor = LaunchAdvisor(samples_per_option=100, seed=3)
    snapshot = pool.snapshot()
    first = advisor.answer(live_query(), pool=snapshot)
    again = advisor.answer(live_query(), pool=snapshot)
    assert first == again
    # Scores are independent of the order options were first evaluated.
    fresh = LaunchAdvisor(samples_per_option=100, seed=3)
    fresh.revocation_score("k80", "europe-west1",
                           first.options[0].launch_hour_local, 2.0)
    assert fresh.answer(live_query(), pool=snapshot) == first


def test_place_with_nothing_acquirable_returns_no_feasible_option():
    pool = place_pool({("k80", "us-west1"): 1})
    pool.acquire("k80", "us-west1")
    advisor = LaunchAdvisor(samples_per_option=100, seed=1)
    snapshot = pool.snapshot()
    assert advisor.answer(live_query(hour_of_day_utc=0.0),
                          pool=snapshot).best is None
    with pytest.raises(ConfigurationError):
        # No v100 cells in the pool.
        advisor.answer(live_query(gpu_name="v100", hour_of_day_utc=0.0),
                       pool=snapshot)


# ---------------------------------------------------------------------------
# Mitigation planner.
# ---------------------------------------------------------------------------
def test_planner_recommends_mitigation_for_saturated_cluster(resnet32_profile):
    planner = MitigationPlanner()
    step_model = StepTimeModel()
    speeds = [step_model.mean_speed(resnet32_profile.gflops, "p100")] * 8
    plan = planner.plan(speeds, resnet32_profile.parameter_bytes,
                        remaining_steps=50_000)
    assert plan.worthwhile
    assert plan.speedup > 1.4
    assert plan.time_saved_seconds > 100.0
    assert plan.extra_cost_usd > 0.0
    assert plan.breakeven_steps < 50_000


def test_planner_rejects_mitigation_when_not_bottlenecked(resnet32_profile):
    planner = MitigationPlanner()
    step_model = StepTimeModel()
    speeds = [step_model.mean_speed(resnet32_profile.gflops, "k80")] * 2
    plan = planner.plan(speeds, resnet32_profile.parameter_bytes,
                        remaining_steps=50_000)
    assert not plan.worthwhile
    assert plan.speedup < 1.05


def test_planner_rejects_mitigation_near_the_end_of_training(resnet32_profile):
    planner = MitigationPlanner()
    step_model = StepTimeModel()
    speeds = [step_model.mean_speed(resnet32_profile.gflops, "p100")] * 8
    plan = planner.plan(speeds, resnet32_profile.parameter_bytes, remaining_steps=100)
    assert not plan.worthwhile
    assert plan.time_saved_seconds < 30.0


def test_planner_uses_measured_speed_when_provided(resnet32_profile):
    planner = MitigationPlanner()
    step_model = StepTimeModel()
    speeds = [step_model.mean_speed(resnet32_profile.gflops, "p100")] * 8
    modeled = planner.plan(speeds, resnet32_profile.parameter_bytes, 20_000)
    slower = planner.plan(speeds, resnet32_profile.parameter_bytes, 20_000,
                          measured_speed=modeled.current_speed * 0.8)
    assert slower.time_saved_seconds > modeled.time_saved_seconds


def test_planner_for_live_session(resnet32_profile):
    session = TrainingSession(Simulator(), ClusterSpec.from_counts(p100=8),
                              measurement_job(resnet32_profile, steps=20_000),
                              streams=RandomStreams(0))
    plan = MitigationPlanner().plan_for_session(session)
    assert plan.remaining_steps == 20_000
    assert plan.worthwhile


def test_planner_validation(resnet32_profile):
    planner = MitigationPlanner()
    with pytest.raises(ConfigurationError):
        planner.plan([], resnet32_profile.parameter_bytes, 100)
    with pytest.raises(ConfigurationError):
        planner.plan([1.0], resnet32_profile.parameter_bytes, -1)
    with pytest.raises(ConfigurationError):
        planner.plan([1.0], resnet32_profile.parameter_bytes, 10, additional_servers=0)
    with pytest.raises(ConfigurationError):
        MitigationPlanner(restart_overhead_seconds=-1.0)
