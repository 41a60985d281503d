"""The redesigned placement query API and the vectorized score table.

Pins the contracts the placement API rests on:

* the vectorized score table is **bit-identical** to the scalar
  Monte-Carlo sampler it replays (the test-only oracle in
  ``tests/oracles.py``): every option's sorted lifetime vector matches
  byte for byte — on the full calibration grid, on a recalibrated model,
  and at small and large sample counts — so every duration's score does
  too (the tape-replay equivalence);
* :class:`~repro.modeling.placement.PlacementQuery` validates its two
  modes and round-trips through the wire format.
"""

import json
import math

import numpy as np
import pytest

from oracles import sampled_lifetimes, sampled_probability, use_reference
from repro.cloud.revocation import RevocationCellParams
from repro.errors import ConfigurationError
from repro.modeling import placement
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery, ScoreTable
from repro.scenarios.pool import TransientPool
from repro.simulation.engine import Simulator
from repro.telemetry.recalibrate import RecalibrationResult

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


def recalibrated_table():
    """Refit cells (shapes on both sides of 1) and non-flat hourly
    profiles, one with zero-weight hours, as ``recalibrate`` installs
    them."""
    result = RecalibrationResult(
        calibration={("k80", "us-west1"): RevocationCellParams(0.62, 0.7, 5.5),
                     ("p100", "us-east1"): RevocationCellParams(0.91, 2.6, 9.0),
                     ("v100", "asia-east1"): RevocationCellParams(0.08, 1.1, 30.0)},
        hourly_weights={
            "k80": tuple(1.0 + 0.9 * math.cos(2 * math.pi * (hour - 14) / 24)
                         for hour in range(24)),
            "v100": tuple(0.0 if hour % 5 == 0 else 1.0 + hour / 12
                          for hour in range(24))})
    return result.advisor(samples_per_option=10, seed=3).score_table


#: Score tables whose every lifetime is pinned: (builder, GPU or None = all).
LIFETIME_TABLES = {
    "grid-seed0": (lambda: ScoreTable(samples=SAMPLES, seed=0), None),
    "grid-seed7": (lambda: ScoreTable(samples=SAMPLES, seed=7), None),
    "recalibrated-samples10": (recalibrated_table, None),
    "v100-samples400": (lambda: ScoreTable(samples=400, seed=1), "v100"),
}


@pytest.mark.parametrize("case", sorted(LIFETIME_TABLES))
def test_table_lifetimes_match_sampling_bytes(case):
    """Every lifetime of every option, byte for byte: an ulp of drift in
    one lifetime moves no probe-duration score above, but fails here."""
    build, gpu_name = LIFETIME_TABLES[case]
    table = build()
    for gpu, region in table.available_cells():
        if gpu_name not in (None, gpu):
            continue
        for hour in range(24):
            assert (table.lifetimes(gpu, region, hour).tobytes()
                    == sampled_lifetimes(table, gpu, region, hour).tobytes()), \
                (gpu, region, hour)


@pytest.mark.parametrize("case", ("grid-seed0", "recalibrated-samples10"))
def test_table_bins_survive_array_power_rounding(case, monkeypatch):
    """The build bins candidates through the array ``np.power``, which may
    round a few ulp away from the scalar ``**``.  A relative 1e-12 error
    on every array power, far past any real rounding gap, leaves every
    lifetime byte for byte: with the committed margin, and with a margin
    that sends every candidate through the scalar fallback.  A 1e-3 error
    moves some lifetime, so the binning power is really exercised."""
    build, _ = LIFETIME_TABLES[case]
    reference = build()
    options = [(gpu, region, hour)
               for gpu, region in reference.available_cells()
               for hour in range(24)]
    expected = [sampled_lifetimes(reference, *option).tobytes()
                for option in options]
    power = np.power

    def lifetimes(relative_error, margin=placement._BIN_MARGIN_HOURS):
        with monkeypatch.context() as patch:
            patch.setattr(np, "power", lambda base, exponent: power(
                base, exponent) * (1.0 + relative_error))
            patch.setattr(placement, "_BIN_MARGIN_HOURS", margin)
            table = build()
            return [table.lifetimes(*option).tobytes() for option in options]

    assert lifetimes(1e-12) == expected
    assert lifetimes(1e-12, margin=1.0) == expected
    assert lifetimes(1e-3, margin=1.0) == expected
    assert lifetimes(1e-3) != expected


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


LIVE = {"gpu_name": "k80", "duration_hours": 1.0, "hour_of_day_utc": 9.0}
GRID = {"gpu_name": "k80", "duration_hours": 1.0, "launch_hours": [8]}


@pytest.mark.parametrize("params,field", [
    (dict(LIVE, gpu_name=["k80"]), "gpu_name"),
    (dict(LIVE, gpu_name=None), "gpu_name"),
    (dict(LIVE, duration_hours="4"), "duration_hours"),
    (dict(LIVE, duration_hours=True), "duration_hours"),
    (dict(LIVE, hour_of_day_utc=True), "hour_of_day_utc"),
    (dict(LIVE, hour_of_day_utc="9"), "hour_of_day_utc"),
    (dict(GRID, launch_hours=[True, 3]), "launch_hours"),
    (dict(GRID, launch_hours=8), "launch_hours"),
    (dict(GRID, launch_hours="8"), "launch_hours"),
    (dict(LIVE, num_workers=2.5), "num_workers"),
    (dict(LIVE, num_workers=True), "num_workers"),
    (dict(LIVE, num_workers="2"), "num_workers"),
    (dict(LIVE, region_names="us-west1"), "region_names"),
    (dict(LIVE, region_names=["us-west1", 3]), "region_names"),
    (dict(LIVE, region_names=7), "region_names"),
    (dict(LIVE, queue_weight="0.5"), "queue_weight"),
    (dict(LIVE, queue_weight=False), "queue_weight"),
    ({"gpu_name": "k80", "hour_of_day_utc": 9.0}, "duration_hours"),
])
def test_query_rejects_mistyped_fields(params, field):
    """Wrong-typed wire fields raise a ConfigurationError naming the
    field, never a raw TypeError or a silent coercion (True -> hour 1,
    a region string -> its characters)."""
    with pytest.raises(ConfigurationError, match=field):
        PlacementQuery.from_params(params)


def test_query_rejects_a_non_object_document():
    with pytest.raises(ConfigurationError, match="object"):
        PlacementQuery.from_params([["gpu_name", "k80"]])


def test_query_accepts_numpy_scalars():
    """Fleets pass simulator hours; numpy scalars are numbers, and the
    normalized query stays JSON-encodable."""
    query = PlacementQuery(gpu_name=np.str_("k80"),
                           duration_hours=np.float64(2.0),
                           num_workers=np.int64(3),
                           hour_of_day_utc=np.float64(9.5),
                           queue_weight=np.float32(0.25))
    assert query == PlacementQuery(gpu_name="k80", duration_hours=2.0,
                                   num_workers=3, hour_of_day_utc=9.5,
                                   queue_weight=0.25)
    json.dumps(query.to_params())
    grid = PlacementQuery(gpu_name="k80", duration_hours=1.0,
                          launch_hours=np.arange(3))
    assert grid.launch_hours == (0, 1, 2)


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

