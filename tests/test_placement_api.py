"""The redesigned placement query API and the vectorized score table.

Pins the contracts the placement API rests on:

* the vectorized score table is **bit-identical** to the scalar
  Monte-Carlo sampler it replays (the test-only oracle in
  ``tests/oracles.py``) across the full calibration grid, for every
  duration (the tape-replay equivalence);
* :class:`~repro.modeling.placement.PlacementQuery` validates its two
  modes and round-trips through the wire format.
"""

import pytest

from oracles import sampled_probability, use_reference
from repro.errors import ConfigurationError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery, ScoreTable
from repro.scenarios.pool import TransientPool
from repro.simulation.engine import Simulator

#: Small sample count so the exhaustive sampler sweeps stay fast; the
#: equivalence holds sample for sample, so the count does not matter.
SAMPLES = 50

DURATIONS = (0.5, 2.0, 6.0, 23.9)


def advisor(seed=0):
    return LaunchAdvisor(samples_per_option=SAMPLES, seed=seed)


# ---------------------------------------------------------------------------
# Score-table bit-identity (the tape-replay contract).
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("seed", (0, 7))
def test_table_scores_match_sampling_exactly_on_the_full_grid(seed):
    """Every calibrated (gpu, region) cell, every launch hour, several
    durations: the table's rank lookup equals the scalar Monte-Carlo
    estimate exactly (== on floats, not approx)."""
    scorer = advisor(seed=seed)
    table = scorer.score_table
    for gpu, region in table.available_cells():
        for hour in range(24):
            for duration in DURATIONS:
                assert (scorer.revocation_score(gpu, region, hour, duration)
                        == sampled_probability(table, gpu, region, hour,
                                               duration))


def test_answer_is_identical_across_backends_live_and_grid(monkeypatch):
    live = PlacementQuery(gpu_name="k80", duration_hours=3.0,
                          hour_of_day_utc=14.25)
    grid = PlacementQuery(gpu_name="v100", duration_hours=8.0,
                          num_workers=4, launch_hours=(0, 6, 12, 18))
    decisions = [advisor().answer(query) for query in (live, grid)]
    use_reference(monkeypatch, score_backend="sampling")
    assert [advisor().answer(query) for query in (live, grid)] == decisions


def test_vectorized_probabilities_equal_scalar_lookups():
    table = ScoreTable(samples=SAMPLES, seed=3)
    cells = [(region, hour)
             for gpu, region in table.available_cells() if gpu == "k80"
             for hour in (0, 5, 13, 22)]
    for duration in DURATIONS:
        bulk = table.probabilities("k80", cells, duration)
        for (region, hour), value in zip(cells, bulk):
            assert value == table.probability("k80", region, hour, duration)


def test_probability_is_monotonic_in_duration():
    table = ScoreTable(samples=SAMPLES)
    previous = 0.0
    for duration in (0.1, 1.0, 4.0, 12.0, 24.0, 100.0):
        current = table.probability("k80", "us-west1", 9, duration)
        assert current >= previous
        previous = current


def test_answer_is_deterministic_and_seed_sensitive():
    query = PlacementQuery(gpu_name="p100", duration_hours=5.0,
                           launch_hours=(3, 15))
    first = LaunchAdvisor(samples_per_option=SAMPLES, seed=2).answer(query)
    second = LaunchAdvisor(samples_per_option=SAMPLES, seed=2).answer(query)
    assert first == second
    other_seed = LaunchAdvisor(samples_per_option=SAMPLES,
                               seed=11).answer(query)
    assert [option.revocation_probability for option in first.options] != \
        [option.revocation_probability for option in other_seed.options]


# ---------------------------------------------------------------------------
# PlacementQuery validation and the wire format.
# ---------------------------------------------------------------------------
def test_query_requires_exactly_one_mode():
    with pytest.raises(ConfigurationError, match="exactly one"):
        PlacementQuery(gpu_name="k80", duration_hours=1.0)
    with pytest.raises(ConfigurationError, match="exactly one"):
        PlacementQuery(gpu_name="k80", duration_hours=1.0,
                       launch_hours=(8,), hour_of_day_utc=9.0)


@pytest.mark.parametrize("kwargs,match", [
    (dict(duration_hours=0.0, launch_hours=(8,)), "duration_hours"),
    (dict(duration_hours=1.0, num_workers=0, launch_hours=(8,)),
     "num_workers"),
    (dict(duration_hours=1.0, queue_weight=-0.1, launch_hours=(8,)),
     "queue_weight"),
    (dict(duration_hours=1.0, launch_hours=()), "launch_hours"),
    (dict(duration_hours=1.0, region_names=(), launch_hours=(8,)),
     "region_names"),
])
def test_query_rejects_bad_fields(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        PlacementQuery(gpu_name="k80", **kwargs)


NON_FINITE = (float("nan"), float("inf"), float("-inf"))


@pytest.mark.parametrize("value", NON_FINITE)
def test_query_rejects_non_finite_duration(value):
    with pytest.raises(ConfigurationError, match="duration_hours"):
        PlacementQuery(gpu_name="k80", duration_hours=value,
                       hour_of_day_utc=9.0)


@pytest.mark.parametrize("value", NON_FINITE)
def test_query_rejects_non_finite_utc_hour(value):
    # Without the check NaN and infinities silently wrapped to hour 0.
    with pytest.raises(ConfigurationError, match="hour_of_day_utc"):
        PlacementQuery(gpu_name="k80", duration_hours=1.0,
                       hour_of_day_utc=value)


@pytest.mark.parametrize("value", NON_FINITE)
def test_query_rejects_non_finite_launch_hours(value):
    with pytest.raises(ConfigurationError, match="launch_hours"):
        PlacementQuery(gpu_name="k80", duration_hours=1.0,
                       launch_hours=(8, value))


def test_query_normalizes_hours():
    grid = PlacementQuery(gpu_name="k80", duration_hours=1.0,
                          launch_hours=(8.6, 23))
    assert grid.launch_hours == (8, 23)
    live = PlacementQuery(gpu_name="k80", duration_hours=1.0,
                          hour_of_day_utc=25.5)
    assert live.hour_of_day_utc == 1.5


def test_query_round_trips_through_params():
    for query in (
        PlacementQuery(gpu_name="k80", duration_hours=2.0,
                       hour_of_day_utc=9.0),
        PlacementQuery(gpu_name="v100", duration_hours=8.0, num_workers=4,
                       region_names=("us-west1",), launch_hours=(0, 12),
                       queue_weight=1.25),
    ):
        assert PlacementQuery.from_params(query.to_params()) == query
    # Defaults are omitted from the wire format.
    minimal = PlacementQuery(gpu_name="k80", duration_hours=2.0,
                             hour_of_day_utc=9.0)
    assert minimal.to_params() == {"gpu_name": "k80", "duration_hours": 2.0,
                                   "hour_of_day_utc": 9.0}


def test_from_params_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown placement-query"):
        PlacementQuery.from_params({"gpu_name": "k80", "duration_hours": 1.0,
                                    "hour_of_day_utc": 9.0, "color": "red"})


def test_decision_best_is_none_when_nothing_is_feasible():
    pool = TransientPool(Simulator(), {("k80", "us-west1"): 1})
    pool.acquire("k80", "us-west1")
    decision = advisor().answer(
        PlacementQuery(gpu_name="k80", duration_hours=2.0,
                       hour_of_day_utc=9.0), pool=pool.snapshot())
    assert decision.best is None and not decision.feasible
    assert all(not option.feasible for option in decision.options)


# ---------------------------------------------------------------------------
# ScoreTable construction.
# ---------------------------------------------------------------------------
def test_score_table_validates_inputs():
    with pytest.raises(ConfigurationError, match="samples"):
        ScoreTable(samples=5)
    table = ScoreTable(samples=SAMPLES)
    with pytest.raises(ConfigurationError, match="duration_hours"):
        table.probability("k80", "us-west1", 9, 0.0)
    with pytest.raises(ConfigurationError, match="duration_hours"):
        table.probabilities("k80", [("us-west1", 9)], -1.0)


def test_warm_builds_every_cell_once():
    table = ScoreTable(samples=SAMPLES)
    built = table.warm()
    assert built == len(table.available_cells()) * 24
    assert table.options_built == built
    # Warming again (or querying) builds nothing new.
    assert table.warm() == built
    table.probability("k80", "us-west1", 9, 2.0)
    assert table.options_built == built

